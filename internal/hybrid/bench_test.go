package hybrid

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mets/internal/index"
	"mets/internal/keys"
	"mets/internal/obs"
)

// benchReadUnderMerge times point reads while a writer keeps the memtable
// filling and merges churning, and reports the read p99 plus the worst
// single read — the merge pause a reader actually eats. Neither memtable
// makes a reader wait for a merge; the locked one (mode=lock) can still
// collide with a single write, the lock-free one (mode=epoch) never waits.
func benchReadUnderMerge(b *testing.B, epoch bool) {
	const n = 1 << 17
	cfg := Config{MergeRatio: 4, MinDynamic: 1 << 13, BloomBitsPerKey: 10,
		BackgroundMerge: true, EpochReads: epoch}
	h := NewBTree(cfg)
	ks := make([][]byte, n)
	entries := make([]index.Entry, n)
	for i := range ks {
		ks[i] = keys.Uint64(uint64(i) * 3)
		entries[i] = index.Entry{Key: ks[i], Value: uint64(i)}
	}
	if err := h.BulkLoad(entries); err != nil {
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
				h.Insert(keys.Uint64(next*3+1), next)
				next++
			} else {
				h.Update(ks[state%n], state)
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
		h.Get(k)
		hist.Observe(time.Since(t0))
	}
	b.StopTimer()
	stop.Store(true)
	<-done
	h.WaitMerges()
	snap := hist.Snapshot()
	b.ReportMetric(float64(snap.P99), "p99-ns")
	b.ReportMetric(float64(snap.Max), "worst-read-pause-ns")
}

func BenchmarkReadUnderMerge(b *testing.B) {
	b.Run("mode=lock", func(b *testing.B) { benchReadUnderMerge(b, false) })
	b.Run("mode=epoch", func(b *testing.B) { benchReadUnderMerge(b, true) })
}
