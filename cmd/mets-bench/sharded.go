package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mets/internal/hybrid"
	"mets/internal/obs"
	"mets/internal/sharded"
	"mets/internal/surf"
	"mets/internal/ycsb"
)

func runtimeGOMAXPROCS() int { return runtime.GOMAXPROCS(0) }

func init() {
	register("shard.ycsb", "Range-sharded hybrid index: concurrent YCSB scaling vs single shard", runShardedYCSB)
	register("shard.pause", "Per-shard merge pauses: N short pauses vs one global pause", runShardedPause)
}

// bgMergeCfg is the per-shard hybrid configuration used by the sharding
// experiments: background merges on, thesis defaults otherwise. epoch picks
// the dynamic stage: the lock-free skip-list memtable (wait-free reads) or
// the thesis B+tree behind the memtable's readers-writer lock ("lock").
func bgMergeCfg(epoch bool) hybrid.Config {
	cfg := hybrid.DefaultConfig()
	cfg.BackgroundMerge = true
	cfg.EpochReads = epoch
	return cfg
}

func modeName(epoch bool) string {
	if epoch {
		return "epoch"
	}
	return "lock"
}

// shardedAt builds an N-shard hybrid B+tree with boundaries learned from the
// loaded key sample and bulk-loads it. With a registry, every shard reports
// under "shard<i>.".
func shardedAt(n int, ks [][]byte, reg *obs.Registry, epoch bool) *sharded.Index {
	s := sharded.NewBTree(sharded.Config{
		Router: sharded.RouterFromSample(ks, n),
		Hybrid: bgMergeCfg(epoch),
		Obs:    reg,
	})
	if err := s.BulkLoad(loadEntries(ks)); err != nil {
		panic(err)
	}
	return s
}

// startSuRFAudit builds a SuRF over the loaded key set and audits its point
// FPR from a background goroutine for as long as the experiment runs: probes
// derived from members (top two bytes kept, low six rerandomized, so the
// truncated-leaf suffix check is actually exercised — see the metamorphic
// sweep in internal/surf) are checked against ground truth, feeding the live
// "surf.fpr" gauge. Returns a stop function.
func startSuRFAudit(reg *obs.Registry, ks [][]byte) func() {
	f, err := surf.Build(ks, surf.RealConfig(8))
	if err != nil {
		panic(err)
	}
	f.EnableObs(reg, "surf")
	member := make(map[string]struct{}, len(ks))
	for _, k := range ks {
		member[string(k)] = struct{}{}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		state := uint64(0x9E3779B97F4A7C15)
		probe := make([]byte, 8)
		for {
			select {
			case <-done:
				return
			default:
			}
			for i := 0; i < 4096; i++ {
				state = state*2862933555777941757 + 3037000493
				base := ks[int(state%uint64(len(ks)))]
				copy(probe, base)
				state = state*2862933555777941757 + 3037000493
				for j := 2; j < 8 && j < len(base); j++ {
					probe[j] = byte(state >> uint(8*(j-2)))
				}
				pass := f.Lookup(probe[:len(base)])
				if _, ok := member[string(probe[:len(base)])]; pass && !ok {
					f.RecordFalsePositive()
				}
			}
			// Light duty cycle: keep the gauge fresh without competing with
			// the foreground benchmark for cores.
			time.Sleep(50 * time.Millisecond)
		}
	}()
	return func() { close(done); <-finished }
}

// runShardedYCSB compares single-shard hybrid against the sharded index
// under the concurrent driver for YCSB A (write-heavy: parallel writers and
// merges), C (read-only: lock contention), and E (scans: the ordered
// shard walk), reporting aggregate throughput and the read-pause distribution
// (p50/p99/max from the driver's latency histogram).
func runShardedYCSB(ctx *benchContext) {
	ks := dataset(randInt, ctx.numKeys(), 1)
	opsPerThread := ctx.queries / 4
	if ctx.obs != nil {
		stop := startSuRFAudit(ctx.obs, ks)
		defer stop()
	}
	for _, w := range []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadC, ycsb.WorkloadE} {
		ops := opsPerThread
		if w == ycsb.WorkloadE {
			ops /= 10
		}
		fmt.Printf("-- workload %v (%d keys, %d threads) --\n", w, len(ks), threadCount(ctx))
		row("variant", "Mops", "read p50 us", "read p99 us", "max pause us", "merges")
		for _, n := range shardCounts(ctx) {
			for _, epoch := range []bool{false, true} {
				var kv ycsb.KV
				var mergesOf func() int
				var drain func()
				if n == 1 {
					hc := bgMergeCfg(epoch)
					// The single-shard baseline reports as "shard0." too, so the
					// debug endpoint always carries per-shard counters.
					hc.Obs = ctx.obs.Sub("shard0.")
					h := hybrid.NewBTree(hc)
					if err := h.BulkLoad(loadEntries(ks)); err != nil {
						panic(err)
					}
					kv = h
					mergesOf = func() int { m, _, _ := h.MergeStats(); return m }
					drain = func() { h.MergeAsync(); h.WaitMerges() }
				} else {
					s := shardedAt(n, ks, ctx.obs, epoch)
					kv = s
					mergesOf = func() int { m, _, _ := s.MergeStats(); return m }
					drain = func() { s.MergeAsync(); s.WaitMerges() }
				}
				res := ycsb.RunConcurrent(kv, ks, ycsb.DriverConfig{
					Workload: w, Threads: ctx.threads, OpsPerThread: ops, Seed: 11,
					ReadHist: ctx.obs.Histogram("ycsb.read_ns"),
				})
				variant := fmt.Sprintf("%d-shard/%s", n, modeName(epoch))
				row(variant, res.Mops(),
					float64(res.ReadLatency.P50)/1e3, float64(res.ReadLatency.P99)/1e3,
					float64(res.MaxReadPause.Microseconds()), mergesOf())
				// Also emit the row in `go test -bench` format so piping through
				// cmd/benchjson lands read p99 and the worst read pause in the
				// BENCH_<date>.json artifact.
				fmt.Printf("BenchmarkShardYCSB/%v/shards=%d/mode=%s \t%d\t%.1f ns/op\t%d read-p99-ns\t%d worst-read-pause-ns\n",
					w, n, modeName(epoch), res.Ops, 1e3/res.Mops(),
					res.ReadLatency.P99, res.MaxReadPause.Nanoseconds())
				// With the debug endpoint live, retire each variant through the
				// background-merge path: at default scale the Zipfian write
				// residue stays under the ratio trigger, and draining it off the
				// timed path puts real seal/build/swap spans in the tracer ring.
				if ctx.obs != nil {
					drain()
				}
			}
		}
	}
	fmt.Println("expect: reads scale with shards, the lock-free memtable flattens the pause tail, writes/merges parallelize")
}

// pauseReader is any index the pause probe can point-read.
type pauseReader interface {
	Get(key []byte) (uint64, bool)
}

// worstReadPauseDuring hammers Get from a few reader goroutines while fn
// runs and returns the worst single-read latency any of them observed —
// the read pause the merge actually inflicts. With either memtable readers
// resolve against the pinned generation while the merge runs; the locked
// memtable adds only its read lock, which a merge never holds exclusively.
func worstReadPauseDuring(idx pauseReader, ks [][]byte, fn func()) time.Duration {
	readers := runtimeGOMAXPROCS() - 1
	if readers < 1 {
		readers = 1
	}
	if readers > 4 {
		readers = 4
	}
	var stop int32
	var worst int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			state := seed
			for atomic.LoadInt32(&stop) == 0 {
				state = state*2862933555777941757 + 3037000493
				k := ks[int(state%uint64(len(ks)))]
				t0 := time.Now()
				idx.Get(k)
				d := int64(time.Since(t0))
				for {
					w := atomic.LoadInt64(&worst)
					if d <= w || atomic.CompareAndSwapInt64(&worst, w, d) {
						break
					}
				}
			}
		}(uint64(r)*0x9E3779B97F4A7C15 + 1)
	}
	// Let the readers reach steady state before the pause-inducing work.
	time.Sleep(20 * time.Millisecond)
	fn()
	atomic.StoreInt32(&stop, 1)
	wg.Wait()
	return time.Duration(atomic.LoadInt64(&worst))
}

// runShardedPause loads every variant and forces a full merge while reader
// goroutines time every Get — the pause budget argument for sharding and
// for generation-published reads: N small rebuilds instead of one big one,
// and no rebuild blocks a reader at all. Shards are merged one at a time
// (MergeShard) so each measured duration is that shard's writer-mutex hold
// time, not inflated by timeslicing against the other rebuilds on a small
// machine.
func runShardedPause(ctx *benchContext) {
	ks := dataset(randInt, ctx.numKeys(), 1)
	row("variant", "merge wall ms", "worst shard ms", "sum shard ms", "worst read pause us")
	for _, n := range shardCounts(ctx) {
		for _, epoch := range []bool{false, true} {
			hc := hybrid.Config{MergeRatio: 10, MinDynamic: 1 << 30, BloomBitsPerKey: 10, EpochReads: epoch}
			var wall, worst, sum, pause time.Duration
			if n == 1 {
				h := hybrid.NewBTree(hc)
				measureLoad(h, ks, 2)
				pause = worstReadPauseDuring(h, ks, func() {
					start := time.Now()
					h.Merge()
					wall = time.Since(start)
				})
				_, worst, _ = h.MergeStats()
				sum = worst
			} else {
				cfg := sharded.Config{Router: sharded.RouterFromSample(ks, n), Obs: ctx.obs}
				cfg.Hybrid = hc
				s := sharded.NewBTree(cfg)
				measureLoad(s, ks, 2)
				pause = worstReadPauseDuring(s, ks, func() {
					start := time.Now()
					for i := 0; i < s.NumShards(); i++ {
						s.MergeShard(i)
					}
					wall = time.Since(start)
				})
				for _, st := range s.ShardStats() {
					if st.LastMerge > worst {
						worst = st.LastMerge
					}
					sum += st.LastMerge
				}
			}
			variant := fmt.Sprintf("%d-shard/%s", n, modeName(epoch))
			row(variant, float64(wall.Milliseconds()), float64(worst.Milliseconds()),
				float64(sum.Milliseconds()), float64(pause.Microseconds()))
			fmt.Printf("BenchmarkShardPause/shards=%d/mode=%s \t1\t%d ns/op\t%d worst-shard-merge-ns\t%d worst-read-pause-ns\n",
				n, modeName(epoch), wall.Nanoseconds(), worst.Nanoseconds(), pause.Nanoseconds())
		}
	}
	fmt.Println("expect: worst per-shard merge ~1/N of the single-shard merge; the read pause stays flat under both memtables")
}

func shardCounts(ctx *benchContext) []int {
	n := ctx.shards
	if n <= 1 {
		n = 8
	}
	return []int{1, n}
}

func threadCount(ctx *benchContext) int {
	if ctx.threads > 0 {
		return ctx.threads
	}
	return runtimeGOMAXPROCS()
}
