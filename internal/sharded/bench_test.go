package sharded

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mets/internal/hope"
	"mets/internal/hybrid"
	"mets/internal/index"
	"mets/internal/keycodec"
	"mets/internal/keys"
	"mets/internal/obs"
)

// benchShardReadUnderMerge is the sharded-layer twin of the hybrid
// ReadUnderMerge benchmark: point reads against an 8-shard index while a
// writer churns inserts and updates across all shards, with per-shard
// merges triggering naturally. Epoch mode additionally removes the
// per-shard RWMutex from the read path.
func benchShardReadUnderMerge(b *testing.B, epoch bool) {
	const n = 1 << 17
	s := NewBTree(Config{
		Shards: 8,
		Hybrid: hybrid.Config{MergeRatio: 4, MinDynamic: 1 << 13, BloomBitsPerKey: 10,
			BackgroundMerge: true, EpochReads: epoch},
	})
	ks := make([][]byte, n)
	entries := make([]index.Entry, n)
	for i := range ks {
		ks[i] = keys.Uint64(uint64(i) * 3)
		entries[i] = index.Entry{Key: ks[i], Value: uint64(i)}
	}
	if err := s.BulkLoad(entries); err != nil {
		b.Fatal(err)
	}
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		state := uint64(1)
		next := uint64(n)
		for i := 0; !stop.Load(); i++ {
			state = state*2862933555777941757 + 3037000493
			if state%4 == 0 {
				s.Insert(keys.Uint64(next*3+1), next)
				next++
			} else {
				s.Update(ks[state%n], state)
			}
			// Yield regularly so the measured reader isn't starved by this
			// spin loop on small GOMAXPROCS — the pause metric should reflect
			// read-path blocking, not scheduler oversubscription.
			if i&15 == 0 {
				runtime.Gosched()
			}
		}
	}()
	hist := obs.NewHistogram()
	state := uint64(99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state = state*2862933555777941757 + 3037000493
		k := ks[state%n]
		t0 := time.Now()
		s.Get(k)
		hist.Observe(time.Since(t0))
	}
	b.StopTimer()
	stop.Store(true)
	<-done
	s.WaitMerges()
	snap := hist.Snapshot()
	b.ReportMetric(float64(snap.P99), "p99-ns")
	b.ReportMetric(float64(snap.Max), "worst-read-pause-ns")
}

func BenchmarkShardReadUnderMerge(b *testing.B) {
	b.Run("mode=lock", func(b *testing.B) { benchShardReadUnderMerge(b, false) })
	b.Run("mode=epoch", func(b *testing.B) { benchShardReadUnderMerge(b, true) })
}

// libReadKeys is the gated benchmark's lib-read size. The scan and point-read
// benchmarks run at it: at 200k keys the HOPE dictionary and the static stage
// sit in cache, which hides what a scan costs at the size that is gated.
const libReadKeys = 1_000_000

// newLibReadIndex builds the configuration the gated benchmark's lib-read
// workload runs over n keys: sharded, epoch reads, background merge, sampled
// router, HOPE 3-Grams with a 2^14-entry dictionary (withHOPE; raw keys
// otherwise), bulk-loaded and fully merged. reg may be nil.
func newLibReadIndex(tb testing.TB, n int, reg *obs.Registry, withHOPE bool) (*Index, [][]byte) {
	tb.Helper()
	ks := keys.Dedup(keys.Emails(n, 1))
	sample := make([][]byte, 0, len(ks)/100+1)
	for i := 0; i < len(ks); i += 100 {
		sample = append(sample, ks[i])
	}
	var codec keycodec.Codec
	if withHOPE {
		var err error
		if codec, err = keycodec.TrainHOPE(sample, hope.ThreeGrams, 1<<14); err != nil {
			tb.Fatal(err)
		}
	}
	hc := hybrid.DefaultConfig()
	hc.EpochReads = true
	hc.BackgroundMerge = true
	s := NewBTree(Config{Router: RouterFromSample(sample, 8), Hybrid: hc, Codec: codec, Obs: reg})
	entries := make([]index.Entry, len(ks))
	for i, k := range ks {
		entries[i] = index.Entry{Key: k, Value: uint64(i)}
	}
	if err := s.BulkLoad(entries); err != nil {
		tb.Fatal(err)
	}
	s.WaitMerges()
	return s, ks
}

// BenchmarkShardedScanN50 is the lib-read scan: 50 entries from a random
// present key, decoded on emit.
func BenchmarkShardedScanN50(b *testing.B) {
	s, ks := newLibReadIndex(b, libReadKeys, obs.NewRegistry(), true)
	state := uint64(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state = state*2862933555777941757 + 3037000493
		if got := s.ScanN(ks[state%uint64(len(ks))], 50); len(got) == 0 {
			b.Fatal("empty scan")
		}
	}
}

// BenchmarkShardedGetHOPE is the lib-read point read.
func BenchmarkShardedGetHOPE(b *testing.B) {
	s, ks := newLibReadIndex(b, libReadKeys, obs.NewRegistry(), true)
	state := uint64(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state = state*2862933555777941757 + 3037000493
		if _, ok := s.Get(ks[state%uint64(len(ks))]); !ok {
			b.Fatal("missing key")
		}
	}
}
