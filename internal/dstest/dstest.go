// Package dstest is the property-based differential test harness shared by
// every ordered index in the repository: it drives one pseudo-random
// operation sequence (insert / update / delete / point lookup / bounded
// range scan) simultaneously against the structure under test and a trivial
// map-plus-sort oracle, failing on the first divergence in return values,
// lookup results, scan contents, or scan order. Each index package runs the
// same harness from its own tests (hybrid, sharded, lsm, btree, ...), so
// all structures are checked against one oracle implementation rather than
// each package growing its own slightly different model test.
package dstest

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"mets/internal/keys"
)

// Index is the surface the harness drives — index.Dynamic minus MemoryUsage,
// so adapters (e.g. around lsm.DB) stay small.
type Index interface {
	Insert(key []byte, value uint64) bool
	Get(key []byte) (uint64, bool)
	Update(key []byte, value uint64) bool
	Delete(key []byte) bool
	Scan(start []byte, fn func(key []byte, value uint64) bool) int
}

// lenIndex is optionally satisfied for exact live-entry accounting.
type lenIndex interface{ Len() int }

// Config tunes one differential run.
type Config struct {
	// Ops is the operation count (default 4000).
	Ops int
	// KeySpace is the number of distinct candidate keys (default Ops/4).
	// Smaller key spaces produce more duplicate-insert / update / delete
	// collisions, which is where stage-layering bugs live.
	KeySpace int
	// Seed makes the sequence reproducible.
	Seed int64
	// ScanEvery runs a bounded range scan every n-th operation (default 16).
	ScanEvery int
}

// maxScanLen bounds verification scans.
const maxScanLen = 40

func (c *Config) fill() {
	if c.Ops <= 0 {
		c.Ops = 4000
	}
	if c.KeySpace <= 0 {
		c.KeySpace = c.Ops / 4
		if c.KeySpace < 16 {
			c.KeySpace = 16
		}
	}
	if c.ScanEvery <= 0 {
		c.ScanEvery = 16
	}
}

// keySpace generates a deterministic mix of fixed-width integer keys and
// short variable-length byte-string keys over a small alphabet, so prefix
// sharing, keys-that-are-prefixes-of-other-keys, and length ties are all
// exercised.
func keySpace(n int, rng *rand.Rand) [][]byte {
	seen := make(map[string]struct{}, n)
	out := make([][]byte, 0, n)
	for len(out) < n {
		var k []byte
		if len(out)%2 == 0 {
			k = keys.Uint64(rng.Uint64() >> 20) // clustered high bytes
		} else {
			k = make([]byte, 1+rng.Intn(10))
			for i := range k {
				k[i] = byte('a' + rng.Intn(4))
			}
		}
		if _, dup := seen[string(k)]; dup {
			continue
		}
		seen[string(k)] = struct{}{}
		out = append(out, k)
	}
	return out
}

// Run drives the differential sequence against idx. Any divergence from the
// oracle fails t.
func Run(t *testing.T, idx Index, cfg Config) {
	t.Helper()
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	space := keySpace(cfg.KeySpace, rng)
	oracle := make(map[string]uint64, cfg.KeySpace)

	for op := 0; op < cfg.Ops; op++ {
		k := space[rng.Intn(len(space))]
		_, present := oracle[string(k)]
		switch rng.Intn(10) {
		case 0, 1, 2: // insert
			v := rng.Uint64()
			got := idx.Insert(k, v)
			if got != !present {
				t.Fatalf("op %d: Insert(%q) = %v, oracle present=%v", op, k, got, present)
			}
			if got {
				oracle[string(k)] = v
			}
		case 3, 4: // update
			v := rng.Uint64()
			got := idx.Update(k, v)
			if got != present {
				t.Fatalf("op %d: Update(%q) = %v, oracle present=%v", op, k, got, present)
			}
			if got {
				oracle[string(k)] = v
			}
		case 5: // delete
			got := idx.Delete(k)
			if got != present {
				t.Fatalf("op %d: Delete(%q) = %v, oracle present=%v", op, k, got, present)
			}
			delete(oracle, string(k))
		default: // point lookup
			v, ok := idx.Get(k)
			want, wantOK := oracle[string(k)]
			if ok != wantOK || (ok && v != want) {
				t.Fatalf("op %d: Get(%q) = (%d,%v), oracle (%d,%v)", op, k, v, ok, want, wantOK)
			}
		}
		if op%cfg.ScanEvery == cfg.ScanEvery-1 {
			start := space[rng.Intn(len(space))]
			checkScan(t, op, idx, oracle, start, 1+rng.Intn(maxScanLen))
		}
	}
	// Final full verification: every oracle key readable, full scan matches
	// the sorted oracle exactly, Len (when available) agrees.
	for kk, want := range oracle {
		if v, ok := idx.Get([]byte(kk)); !ok || v != want {
			t.Fatalf("final Get(%q) = (%d,%v), oracle %d", kk, v, ok, want)
		}
	}
	checkScan(t, cfg.Ops, idx, oracle, nil, len(oracle)+1)
	if li, ok := idx.(lenIndex); ok {
		if got := li.Len(); got != len(oracle) {
			t.Fatalf("final Len = %d, oracle %d", got, len(oracle))
		}
	}
}

// checkScan compares a bounded scan from start against the sorted oracle.
func checkScan(t *testing.T, op int, idx Index, oracle map[string]uint64, start []byte, limit int) {
	t.Helper()
	want := make([][]byte, 0, len(oracle))
	for kk := range oracle {
		if start == nil || keys.Compare([]byte(kk), start) >= 0 {
			want = append(want, []byte(kk))
		}
	}
	sort.Slice(want, func(i, j int) bool { return keys.Compare(want[i], want[j]) < 0 })
	if len(want) > limit {
		want = want[:limit]
	}
	got := make([][]byte, 0, limit)
	idx.Scan(start, func(k []byte, v uint64) bool {
		kk := append([]byte(nil), k...)
		if wantV := oracle[string(kk)]; v != wantV {
			t.Fatalf("op %d: scan value for %q = %d, oracle %d", op, kk, v, wantV)
		}
		got = append(got, kk)
		return len(got) < limit
	})
	if len(got) != len(want) {
		t.Fatalf("op %d: scan from %q visited %d entries, oracle %d", op, start, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("op %d: scan[%d] = %q, oracle %q", op, i, got[i], want[i])
		}
	}
}
