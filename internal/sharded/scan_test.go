package sharded

import (
	"bytes"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"mets/internal/hope"
	"mets/internal/index"
	"mets/internal/keycodec"
	"mets/internal/keys"
)

// scanFixture is a five-shard index over email keys whose router leaves
// shard 2 empty: its range lies strictly between two adjacent keys. Boundary
// 0 is a stored key, the others are not.
type scanFixture struct {
	idx    *Index
	want   []index.Entry // everything stored, sorted
	bounds [][]byte      // raw-space router boundaries
}

func newScanFixture(t *testing.T, codec keycodec.Codec) *scanFixture {
	t.Helper()
	ks := keys.Dedup(keys.Emails(600, 81))
	n := len(ks)
	f := &scanFixture{bounds: [][]byte{
		ks[n/5],
		append(append([]byte(nil), ks[2*n/5]...), 1), // just above a key ...
		ks[2*n/5+1], // ... up to the next one: nothing in between
		append(append([]byte(nil), ks[4*n/5]...), '~'),
	}}
	cfg := smallCfg(0)
	cfg.Router = NewRouter(f.bounds)
	cfg.Codec = codec
	f.idx = New(cfg)
	// Random insertion order with small merge thresholds leaves every shard
	// with entries in both stages.
	for _, i := range rand.New(rand.NewSource(82)).Perm(n) {
		if !f.idx.Insert(ks[i], uint64(i)) {
			t.Fatalf("Insert(%q) failed", ks[i])
		}
	}
	f.idx.WaitMerges()
	for i, k := range ks {
		f.want = append(f.want, index.Entry{Key: k, Value: uint64(i)})
	}
	for i, sh := range f.idx.shards {
		if (sh.Len() == 0) != (i == 2) {
			t.Fatalf("shard %d holds %d keys; only shard 2 should be empty", i, sh.Len())
		}
	}
	return f
}

// TestScanNBoundaries checks ScanN(start, n) against the first n entries of
// Scan(start) and against the sorted expectation, at every place the ordered
// shard walk has an edge.
func TestScanNBoundaries(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codec func(testing.TB) keycodec.Codec
	}{
		{"raw", func(testing.TB) keycodec.Codec { return nil }},
		{"hope-3grams", func(tb testing.TB) keycodec.Codec { return shardedEmailCodec(tb, hope.ThreeGrams) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newScanFixture(t, tc.codec(t))
			last := f.want[len(f.want)-1].Key
			starts := [][]byte{
				nil,                         // from the very first key
				{},                          // the empty key: below everything
				f.want[0].Key,               // the first key itself
				f.bounds[0],                 // a router boundary that is a stored key
				f.bounds[1],                 // a boundary that is not, opening the empty shard
				f.bounds[2],                 // the boundary closing the empty shard
				f.bounds[3],                 // a boundary between two stored keys
				f.want[len(f.want)/5-1].Key, // the last key of shard 0
				f.want[2*len(f.want)/5].Key, // the last key before the empty shard
				last,                        // the last key
				append(append([]byte(nil), last...), 'z'), // past the last key
				[]byte("~~~"), // past everything
			}
			perShard := len(f.want) / 5
			for _, start := range starts {
				// 1 is the lower bound; perShard+1 always crosses a boundary;
				// 3*perShard spans at least three shards (four with the
				// empty one); the last asks for more than exists.
				for _, n := range []int{1, 2, perShard + 1, 3 * perShard, len(f.want) + 10} {
					checkScanMatches(t, f.idx, f.want, start, n)
				}
				lo := sortSearchEntries(f.want, start)
				es := f.idx.ScanN(start, 1)
				if ok := len(es) == 1; ok != (lo < len(f.want)) {
					t.Fatalf("ScanN(%q, 1) found=%v, want %v", start, ok, lo < len(f.want))
				}
				if len(es) == 1 && (!bytes.Equal(es[0].Key, f.want[lo].Key) || es[0].Value != f.want[lo].Value) {
					t.Fatalf("ScanN(%q, 1) = %q, want %q", start, es[0].Key, f.want[lo].Key)
				}
			}
			if got := f.idx.ScanN(nil, 0); got != nil {
				t.Fatalf("ScanN(nil, 0) = %d entries", len(got))
			}
		})
	}
}

// TestScanNUnderConcurrentInserts runs bounded scans while writers insert
// across all shards and background merges swap generations. Every result
// must be sorted, duplicate-free, within [start, ...) and at most n long; and
// it may not skip a key that was stored before the scans began, which is
// what a walk that leaves a shard too early or enters the next one at the
// wrong place would do.
func TestScanNUnderConcurrentInserts(t *testing.T) {
	ks := keys.Dedup(keys.Emails(6000, 83))
	if raceEnabled {
		ks = ks[:2500]
	}
	var stable, late [][]byte
	for i, k := range ks {
		if i%2 == 0 {
			stable = append(stable, k)
		} else {
			late = append(late, k)
		}
	}
	cfg := smallCfg(0)
	cfg.Router = RouterFromSample(stable, 6)
	cfg.Codec = shardedEmailCodec(t, hope.ThreeGrams)
	s := New(cfg)
	for i, k := range stable {
		s.Insert(k, uint64(i))
	}

	const writers, scanners = 2, 2
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(late); i += writers {
				s.Insert(late[i], uint64(i))
			}
		}(w)
	}
	var scanWg sync.WaitGroup
	for r := 0; r < scanners; r++ {
		scanWg.Add(1)
		go func(seed int64) {
			defer scanWg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				start := ks[rng.Intn(len(ks))]
				n := 1 + rng.Intn(len(ks)/3)
				got := s.ScanN(start, n)
				if len(got) > n {
					t.Errorf("ScanN(%q, %d) returned %d entries", start, n, len(got))
					return
				}
				for i, e := range got {
					if bytes.Compare(e.Key, start) < 0 {
						t.Errorf("ScanN(%q, %d)[%d] = %q sorts below start", start, n, i, e.Key)
						return
					}
					if i > 0 && bytes.Compare(got[i-1].Key, e.Key) >= 0 {
						t.Errorf("ScanN(%q, %d): %q then %q — not strictly ascending", start, n, got[i-1].Key, e.Key)
						return
					}
				}
				// Stable keys inside the covered range must all be there.
				lo := sort.Search(len(stable), func(i int) bool { return bytes.Compare(stable[i], start) >= 0 })
				hi := len(stable)
				if len(got) == n {
					end := got[n-1].Key
					hi = sort.Search(len(stable), func(i int) bool { return bytes.Compare(stable[i], end) > 0 })
				}
				j := 0
				for _, k := range stable[lo:hi] {
					for j < len(got) && bytes.Compare(got[j].Key, k) < 0 {
						j++
					}
					if j == len(got) || !bytes.Equal(got[j].Key, k) {
						t.Errorf("ScanN(%q, %d) skipped %q, stored before the scan began", start, n, k)
						return
					}
				}
			}
		}(int64(84 + r))
	}
	wg.Wait()
	close(done)
	scanWg.Wait()
	s.WaitMerges()
	if merges, _, _ := s.MergeStats(); merges == 0 {
		t.Fatal("no merge ran; the test did not exercise generation swaps")
	}
	// Quiescent: the bounded scan of everything equals the full scan.
	all := s.ScanN(nil, len(ks)+1)
	if len(all) != len(ks) {
		t.Fatalf("final ScanN holds %d keys, want %d", len(all), len(ks))
	}
	for i, e := range all {
		if !bytes.Equal(e.Key, ks[i]) {
			t.Fatalf("final ScanN[%d] = %q, want %q", i, e.Key, ks[i])
		}
	}
}

// TestScanN50Allocs pins what the gated benchmark's scan allocates, on its
// own shape (newLibReadIndex) at 50k keys: a 50-entry ScanN from a random
// present key. With the HOPE codec that is the encoded start bound, the
// collector with its entry slice and key slab, the run decoder, and per shard
// visited a memtable cursor (the FST stage's walk reuses a pooled iterator);
// it was 68 when every returned key was its own allocation and each layer
// staged entries of its own.
func TestScanN50Allocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, tc := range []struct {
		name     string
		withHOPE bool
		budget   float64
	}{{"hope", true, 30}, {"raw", false, 12}} {
		s, ks := newLibReadIndex(t, 50_000, nil, tc.withHOPE)
		state := uint64(7)
		allocs := testing.AllocsPerRun(2000, func() {
			state = state*2862933555777941757 + 3037000493
			if got := s.ScanN(ks[state%uint64(len(ks))], 50); len(got) == 0 {
				t.Fatal("empty scan")
			}
		})
		t.Logf("%s: %.1f allocs per ScanN(50)", tc.name, allocs)
		if allocs > tc.budget {
			t.Fatalf("%s: %.1f allocs per ScanN(50), budget %.0f", tc.name, allocs, tc.budget)
		}
	}
}
