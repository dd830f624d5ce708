package sharded

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"mets/internal/dstest"
	"mets/internal/hope"
	"mets/internal/hybrid"
	"mets/internal/index"
	"mets/internal/keycodec"
	"mets/internal/keys"
)

// TestEpochDifferential runs the shared oracle harness with a merge trigger
// far below smallCfg's (MinDynamic 4, MergeRatio 10): the shards merge four
// to five times as often as in TestDifferential (42-88 merges per run against
// 12-18), so many more ops race a background merge and resolve across a
// frozen stage while every shard's generation keeps swapping under them.
func TestEpochDifferential(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := smallCfg(shards)
			cfg.Hybrid.MergeRatio, cfg.Hybrid.MinDynamic = 10, 4
			s := New(cfg)
			dstest.Run(t, s, dstest.Config{Ops: 6000, KeySpace: 600, Seed: 5})
			s.WaitMerges()
		})
	}
}

// TestEpochRetrainStress is the full-stack stress of the lock-free read
// path under a fixed HOPE codec: readers run across shard merges and bulk
// loads — each of which swaps every shard's generation — while writers keep
// mutating. The value and order invariants check a reader never sees a torn
// generation of any shard.
func TestEpochRetrainStress(t *testing.T) {
	ks := keys.Dedup(keys.Emails(3000, 77))
	sort.Slice(ks, func(i, j int) bool { return keys.Compare(ks[i], ks[j]) < 0 })
	entries := make([]index.Entry, len(ks))
	for i, k := range ks {
		entries[i] = index.Entry{Key: k, Value: uint64(i)}
	}
	hc := hybrid.Config{MergeRatio: 4, MinDynamic: 256, BloomBitsPerKey: 10}
	codec, err := keycodec.TrainHOPE(ks, hope.DoubleChar, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Router: RouterFromSample(ks, 4),
		Hybrid: hc,
		Codec:  codec,
	})
	if err := s.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				i := rng.Intn(len(ks))
				if v, ok := s.Get(ks[i]); ok && v != uint64(i) && v != uint64(i)+1<<32 {
					panic(fmt.Sprintf("reader saw impossible value %d for key %d", v, i))
				}
				if rng.Intn(8) == 0 {
					var prev []byte
					n := 0
					s.Scan(ks[rng.Intn(len(ks))], func(k []byte, _ uint64) bool {
						if prev != nil && keys.Compare(prev, k) >= 0 {
							panic("epoch sharded scan out of order")
						}
						prev = append(prev[:0], k...)
						n++
						return n < 50
					})
				}
				if rng.Intn(16) == 0 {
					s.ScanN(ks[rng.Intn(len(ks))], 20)
				}
			}
		}(int64(r) + 11)
	}

	rounds := 4
	if raceEnabled {
		rounds = 2
	}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < rounds; round++ {
		// Writer churn (updates only keep the value invariant checkable).
		for w := 0; w < 3000; w++ {
			i := rng.Intn(len(ks))
			s.Update(ks[i], uint64(i)+1<<32)
		}
		// A merge of every shard on another goroutine beside a bulk load
		// that replaces every shard's generation, all under live readers.
		merged := make(chan struct{})
		go func() { s.Merge(); close(merged) }()
		if err := s.BulkLoad(entries); err != nil {
			t.Fatal(err)
		}
		<-merged
	}
	stop.Store(true)
	wg.Wait()
	for i, k := range ks {
		if v, ok := s.Get(k); !ok || v != uint64(i) {
			t.Fatalf("post-stress Get(%q) = %d,%v (bulk reload should reset values)", k, v, ok)
		}
	}
}

// TestMemoryUsageDuringInserts is the regression for the memtable's byte
// accounting, which the shard writer used to update without synchronization
// while MemoryUsage (safe for concurrent use, like every Index method) read
// it: under -race, polling MemoryUsage beside inserts must report no race.
func TestMemoryUsageDuringInserts(t *testing.T) {
	s := New(Config{
		Shards: 4,
		Hybrid: hybrid.Config{MergeRatio: 4, MinDynamic: 512, BloomBitsPerKey: 10},
	})
	var stop atomic.Bool
	peak := make(chan int64)
	go func() {
		var m int64
		for !stop.Load() {
			m = max(m, s.MemoryUsage())
		}
		peak <- m
	}()
	n := 20000
	if raceEnabled {
		n = 4000
	}
	for i := 0; i < n; i++ {
		s.Insert(keys.Uint64(uint64(i)*2654435761), uint64(i))
		if i%256 == 0 {
			runtime.Gosched()
		}
	}
	stop.Store(true)
	if m := <-peak; m <= 0 {
		t.Fatalf("MemoryUsage never grew above %d bytes during %d inserts", m, n)
	}
	s.WaitMerges()
}
