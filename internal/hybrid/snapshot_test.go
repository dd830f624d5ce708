package hybrid

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"mets/internal/index"
)

// snapKey formats a deterministic test key.
func snapKey(prefix string, i int) []byte {
	return []byte(fmt.Sprintf("%s%06d", prefix, i))
}

// oracleOf collects a map oracle's sorted entries.
func oracleEntries(oracle map[string]uint64) []string {
	out := make([]string, 0, len(oracle))
	for k := range oracle {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// checkSnapshotMatches asserts the snapshot equals the oracle exactly: every
// oracle key present with the right value via Get, full Scan yields exactly
// the oracle's sorted entries, and a handful of absent keys miss.
func checkSnapshotMatches(t *testing.T, sn *Snapshot, oracle map[string]uint64) {
	t.Helper()
	for k, want := range oracle {
		got, ok := sn.Get([]byte(k))
		if !ok || got != want {
			t.Fatalf("snapshot Get(%q) = (%d,%v), want (%d,true)", k, got, ok, want)
		}
	}
	sorted := oracleEntries(oracle)
	i := 0
	sn.Scan(nil, func(k []byte, v uint64) bool {
		if i >= len(sorted) {
			t.Fatalf("snapshot Scan yielded extra key %q (oracle has %d)", k, len(sorted))
		}
		if string(k) != sorted[i] {
			t.Fatalf("snapshot Scan[%d] = %q, want %q", i, k, sorted[i])
		}
		if v != oracle[sorted[i]] {
			t.Fatalf("snapshot Scan[%d] %q value = %d, want %d", i, k, v, oracle[sorted[i]])
		}
		i++
		return true
	})
	if i != len(sorted) {
		t.Fatalf("snapshot Scan yielded %d entries, want %d", i, len(sorted))
	}
	for _, probe := range []string{"zzz-absent", "a", ""} {
		if _, ok := sn.Get([]byte(probe)); ok && oracle[probe] == 0 {
			if _, inOracle := oracle[probe]; !inOracle {
				t.Fatalf("snapshot Get(%q) found a key the oracle lacks", probe)
			}
		}
	}
}

// TestSnapshotDifferential drives a randomized op stream, snapshots at
// checkpoints, keeps mutating (including merges), and verifies every held
// snapshot still matches the oracle captured with it — in lock mode, epoch
// mode, and over HOPE-encoded keys (a sharded index's shards hold those).
func TestSnapshotDifferential(t *testing.T) {
	codec := testCodec(t)
	cases := map[string]struct {
		epoch bool
		key   func(prefix string, i int) []byte
	}{
		"lock":  {false, snapKey},
		"epoch": {true, snapKey},
		"codec": {true, func(prefix string, i int) []byte { return codec.Encode(snapKey(prefix, i)) }},
	}
	for name, tc := range cases {
		cfg := Config{MergeRatio: 2, MinDynamic: 32, BloomBitsPerKey: 10, EpochReads: tc.epoch}
		t.Run(name, func(t *testing.T) {
			h := NewBTree(cfg)
			oracle := make(map[string]uint64)
			rng := rand.New(rand.NewSource(7))

			type held struct {
				sn     *Snapshot
				oracle map[string]uint64
			}
			var snaps []held

			for step := 0; step < 4000; step++ {
				k := tc.key("k", rng.Intn(400))
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4, 5, 6:
					v := uint64(step + 1)
					if !h.Insert(k, v) {
						h.Update(k, v)
					}
					oracle[string(k)] = v
				case 7, 8:
					h.Delete(k)
					delete(oracle, string(k))
				case 9:
					if rng.Intn(4) == 0 {
						h.Merge()
					}
				}
				// Capture a snapshot at fixed checkpoints (mid-stream, so the
				// index has a mix of dynamic/frozen/static state each time).
				if step%1000 == 500 {
					sn := Cut(h)[0]
					oc := make(map[string]uint64, len(oracle))
					for k, v := range oracle {
						oc[k] = v
					}
					snaps = append(snaps, held{sn: sn, oracle: oc})
				}
			}
			h.Merge()
			if len(snaps) == 0 {
				t.Fatal("test never captured a snapshot")
			}
			// Every snapshot must still read as of its capture point, despite
			// all the mutations and merges since.
			for _, hd := range snaps {
				checkSnapshotMatches(t, hd.sn, hd.oracle)
				hd.sn.Release()
			}
			// And the live index must match the final oracle.
			for k, want := range oracle {
				if got, ok := h.Get([]byte(k)); !ok || got != want {
					t.Fatalf("live Get(%q) = (%d,%v), want (%d,true)", k, got, ok, want)
				}
			}
		})
	}
}

// TestSnapshotScanUnderChurn pins a snapshot over a stable key range while a
// concurrent writer churns a disjoint range with background merges enabled;
// the snapshot's view of the stable range must stay exact through repeated
// full scans. This is the MVCC property the server's SNAPSHOT_READ relies
// on: long scans proceed concurrently with writes and merges.
func TestSnapshotScanUnderChurn(t *testing.T) {
	cfg := Config{MergeRatio: 2, MinDynamic: 64, BloomBitsPerKey: 10, EpochReads: true, BackgroundMerge: true}
	h := NewBTree(cfg)

	oracle := make(map[string]uint64)
	for i := 0; i < 500; i++ {
		k := snapKey("a", i)
		h.Insert(k, uint64(i+1))
		oracle[string(k)] = uint64(i + 1)
	}
	h.Merge()
	h.WaitMerges()

	sn := Cut(h)[0]
	defer sn.Release()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(11))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := snapKey("b", rng.Intn(2000))
			if rng.Intn(4) == 0 {
				h.Delete(k)
			} else if !h.Insert(k, uint64(i+1)) {
				h.Update(k, uint64(i+1))
			}
		}
	}()

	for round := 0; round < 20; round++ {
		// The writer only touches "b" keys, none of which existed at capture
		// time, so the snapshot must see exactly the 500 "a" keys — the scan
		// runs to completion while merges retire generations under it.
		n := 0
		sn.Scan(nil, func(k []byte, v uint64) bool {
			want, ok := oracle[string(k)]
			if !ok {
				t.Errorf("snapshot scan saw key %q not captured at begin", k)
				return false
			}
			if v != want {
				t.Errorf("snapshot scan %q = %d, want %d", k, v, want)
				return false
			}
			n++
			return true
		})
		if n != len(oracle) {
			t.Fatalf("round %d: snapshot scan saw %d keys, want %d", round, n, len(oracle))
		}
	}
	close(stop)
	wg.Wait()
	h.WaitMerges()
}

// TestSnapshotIsACut is the prefix-closure probe: a writer inserts a_i, then
// z_i, for i = 0, 1, …, so a snapshot that holds z_i must hold a_i. The
// concurrent memtable is drained in key order, so a drain that ran beside
// the writer would pass a_i's place before a_i landed and reach z_i after z_i
// did. Nothing merges (MinDynamic), so every write stays in the memtable.
func TestSnapshotIsACut(t *testing.T) {
	h := NewFST(Config{MergeRatio: 2, MinDynamic: 1 << 30, BloomBitsPerKey: 10, EpochReads: true, BackgroundMerge: true})
	var bulk []index.Entry
	for i := 0; i < 20_000; i++ {
		bulk = append(bulk, index.Entry{Key: snapKey("m", i), Value: uint64(i)})
	}
	if err := h.BulkLoad(bulk); err != nil {
		t.Fatal(err)
	}
	const pairs = 10_000
	var written atomic.Int64 // pairs the writer finished
	var wg sync.WaitGroup
	wg.Add(1)
	defer wg.Wait()
	go func() {
		defer wg.Done()
		for i := 0; i < pairs; i++ {
			h.Insert(snapKey("a", i), uint64(i))
			h.Insert(snapKey("z", i), uint64(i))
			written.Store(int64(i + 1))
		}
	}()
	for rounds := 0; written.Load() < pairs; rounds++ {
		sn := Cut(h)[0]
		// The largest i whose z_i the snapshot holds: z keys are written in
		// key order, so what a snapshot holds of them is a prefix.
		last := sort.Search(pairs, func(i int) bool {
			_, ok := sn.Get(snapKey("z", i))
			return !ok
		}) - 1
		if _, ok := sn.Get(snapKey("a", last)); last >= 0 && !ok {
			t.Fatalf("snapshot %d holds %s but not %s, which was written before it", rounds, snapKey("z", last), snapKey("a", last))
		}
	}
}

// BenchmarkSnapshotDrain times Snapshot over a memtable of 4,096 entries
// (the concurrent skip list, nothing merged): the drain runs under the
// writer mutex, so its time is how long one snapshot stalls the index's
// writes.
func BenchmarkSnapshotDrain(b *testing.B) {
	h := NewFST(Config{MergeRatio: 2, MinDynamic: 1 << 30, BloomBitsPerKey: 10, EpochReads: true, BackgroundMerge: true})
	for i := 0; i < 4096; i++ {
		h.Insert(snapKey("user", i*7919%100_000), uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Cut(h)
	}
}
