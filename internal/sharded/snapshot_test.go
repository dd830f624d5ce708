package sharded

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"mets/internal/hybrid"
)

func snapTestIndex() *Index {
	return New(Config{
		Shards: 4,
		Hybrid: hybrid.Config{MergeRatio: 2, MinDynamic: 32, BloomBitsPerKey: 10},
	})
}

// TestShardedSnapshotDifferential mutates across shards, snapshots at
// checkpoints, keeps mutating with merges, and verifies each held snapshot
// still matches its capture-time oracle via Get, Scan, and ScanN.
func TestShardedSnapshotDifferential(t *testing.T) {
	s := snapTestIndex()
	defer s.Close()
	oracle := make(map[string]uint64)
	rng := rand.New(rand.NewSource(3))

	type held struct {
		sn     *Snapshot
		oracle map[string]uint64
	}
	var snaps []held

	for step := 0; step < 5000; step++ {
		k := []byte(fmt.Sprintf("key%06d", rng.Intn(600)))
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5, 6:
			v := uint64(step + 1)
			if !s.Insert(k, v) {
				s.Update(k, v)
			}
			oracle[string(k)] = v
		case 7, 8:
			s.Delete(k)
			delete(oracle, string(k))
		case 9:
			if rng.Intn(3) == 0 {
				s.Merge()
			}
		}
		if step%1250 == 600 {
			sn := s.Snapshot()
			oc := make(map[string]uint64, len(oracle))
			for k, v := range oracle {
				oc[k] = v
			}
			snaps = append(snaps, held{sn: sn, oracle: oc})
		}
	}
	s.Merge()
	if len(snaps) == 0 {
		t.Fatal("no snapshots captured")
	}

	for si, hd := range snaps {
		sorted := make([]string, 0, len(hd.oracle))
		for k := range hd.oracle {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)

		for k, want := range hd.oracle {
			if got, ok := hd.sn.Get([]byte(k)); !ok || got != want {
				t.Fatalf("snap %d: Get(%q) = (%d,%v), want (%d,true)", si, k, got, ok, want)
			}
		}
		i := 0
		hd.sn.Scan(nil, func(k []byte, v uint64) bool {
			if i >= len(sorted) || string(k) != sorted[i] || v != hd.oracle[sorted[i]] {
				t.Fatalf("snap %d: Scan[%d] = (%q,%d), want %q", si, i, k, v, sorted[i])
			}
			i++
			return true
		})
		if i != len(sorted) {
			t.Fatalf("snap %d: Scan yielded %d, want %d", si, i, len(sorted))
		}
		// ScanN from a mid-range start must agree with the sorted oracle tail.
		if len(sorted) > 10 {
			start := sorted[len(sorted)/2]
			es := hd.sn.ScanN([]byte(start), 25)
			for j, e := range es {
				want := sorted[len(sorted)/2+j]
				if string(e.Key) != want {
					t.Fatalf("snap %d: ScanN[%d] = %q, want %q", si, j, e.Key, want)
				}
			}
		}
		hd.sn.Release()
	}
}

// TestShardedSnapshotUnderMergeChurn is the serving-path property the server
// depends on: a snapshot scan started before merges observes its captured
// state to completion while a concurrent writer forces merge churn across
// every shard.
func TestShardedSnapshotUnderMergeChurn(t *testing.T) {
	s := New(Config{
		Shards: 4,
		Hybrid: hybrid.Config{MergeRatio: 2, MinDynamic: 64, BloomBitsPerKey: 10},
	})
	defer s.Close()

	oracle := make(map[string]uint64)
	for i := 0; i < 800; i++ {
		k := []byte(fmt.Sprintf("stable%06d", i))
		s.Insert(k, uint64(i+1))
		oracle[string(k)] = uint64(i + 1)
	}
	s.Merge()
	s.WaitMerges()

	sn := s.Snapshot()
	defer sn.Release()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(5))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// "churn" sorts after "stable", landing in the upper shards; the
			// merge pressure still rebuilds those shards' static stages under
			// the held snapshot.
			k := []byte(fmt.Sprintf("zchurn%06d", rng.Intn(3000)))
			if rng.Intn(4) == 0 {
				s.Delete(k)
			} else if !s.Insert(k, uint64(i+1)) {
				s.Update(k, uint64(i+1))
			}
		}
	}()

	for round := 0; round < 15; round++ {
		n := 0
		sn.Scan(nil, func(k []byte, v uint64) bool {
			want, ok := oracle[string(k)]
			if !ok || v != want {
				t.Errorf("round %d: snapshot saw (%q,%d), oracle has (%d,%v)", round, k, v, want, ok)
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
	s.WaitMerges()
}

// TestShardedSnapshotIsACut is the cross-shard prefix-closure probe: a
// writer inserts a_i into one shard, then z_i into the other, for i = 0, 1,
// …, so a snapshot that holds z_i must hold a_i. Shards captured one after
// the other would take the a-shard before a_i landed and the z-shard after
// z_i did.
func TestShardedSnapshotIsACut(t *testing.T) {
	s := New(Config{
		Router: NewRouter([][]byte{[]byte("m")}),
		Hybrid: hybrid.Config{MergeRatio: 2, MinDynamic: 1 << 30, BloomBitsPerKey: 10},
	})
	defer s.Close()
	key := func(prefix string, i int) []byte { return []byte(fmt.Sprintf("%s%06d", prefix, i)) }
	const pairs = 10_000
	var written atomic.Int64 // pairs the writer finished
	var wg sync.WaitGroup
	wg.Add(1)
	defer wg.Wait()
	go func() {
		defer wg.Done()
		for i := 0; i < pairs; i++ {
			s.Insert(key("a", i), uint64(i))
			s.Insert(key("z", i), uint64(i))
			written.Store(int64(i + 1))
		}
	}()
	for rounds := 0; written.Load() < pairs; rounds++ {
		sn := s.Snapshot()
		last := sort.Search(pairs, func(i int) bool {
			_, ok := sn.Get(key("z", i))
			return !ok
		}) - 1
		if _, ok := sn.Get(key("a", last)); last >= 0 && !ok {
			t.Fatalf("snapshot %d holds %s but not %s, which was written before it", rounds, key("z", last), key("a", last))
		}
	}
}
