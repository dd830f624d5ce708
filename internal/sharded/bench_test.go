package sharded

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mets/internal/btree"
	"mets/internal/fst"
	"mets/internal/hope"
	"mets/internal/hybrid"
	"mets/internal/index"
	"mets/internal/keycodec"
	"mets/internal/keys"
	"mets/internal/obs"
)

// BenchmarkShardReadUnderMerge is the sharded-layer twin of the hybrid
// ReadUnderMerge benchmark: point reads against an 8-shard index while a
// writer churns inserts and updates across all shards, with per-shard
// background merges triggering naturally.
func BenchmarkShardReadUnderMerge(b *testing.B) {
	const n = 1 << 17
	s := New(Config{
		Shards: 8,
		Hybrid: hybrid.Config{MergeRatio: 4, MinDynamic: 1 << 13, BloomBitsPerKey: 10},
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

// libReadKeys is the gated benchmark's lib-read size. The scan and point-read
// benchmarks run at it: at 200k keys the HOPE dictionary and the static stage
// sit in cache, which hides what a scan costs at the size that is gated.
const libReadKeys = 1_000_000

// newLibReadIndex builds the configuration the gated benchmark's lib-read
// workload runs over n keys: sharded, sampled router, HOPE 3-Grams with a
// 2^14-entry dictionary (withHOPE; raw keys otherwise), bulk-loaded and
// fully merged. reg may be nil.
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
	s := New(Config{Router: RouterFromSample(sample, 8), Hybrid: hybrid.DefaultConfig(), Codec: codec, Obs: reg})
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

// BenchmarkScanDecode measures a codec-backed range scan (decode on every
// emit) over a bulk-loaded 8-shard index: 100-entry scans, the YCSB-E shape.
func BenchmarkScanDecode(b *testing.B) {
	entries := emailEntries(20000, 67)
	sample := make([][]byte, len(entries))
	for i, e := range entries {
		sample[i] = e.Key
	}
	s := New(Config{
		Router: RouterFromSample(sample, 8),
		Hybrid: hybrid.DefaultConfig(),
		Codec:  shardedEmailCodec(b, hope.ThreeGrams),
	})
	if err := s.BulkLoad(entries); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	visited := 0
	for i := 0; i < b.N; i++ {
		s.Scan(sample[i%len(sample)], func([]byte, uint64) bool {
			visited++
			return visited%100 != 0
		})
	}
}

// libReadShard returns shard 0 of the lib-read index as the merge hands it to
// the static-stage builder: its keys HOPE-encoded (3-Grams, a 2^14-entry
// dictionary trained on every 100th key), sorted, with their tuple IDs.
func libReadShard(tb testing.TB) []index.Entry {
	tb.Helper()
	ks := keys.Dedup(keys.Emails(libReadKeys, 1))
	sample := make([][]byte, 0, len(ks)/100+1)
	for i := 0; i < len(ks); i += 100 {
		sample = append(sample, ks[i])
	}
	codec, err := keycodec.TrainHOPE(sample, hope.ThreeGrams, 1<<14)
	if err != nil {
		tb.Fatal(err)
	}
	router := RouterFromSample(sample, 8)
	var entries []index.Entry
	for i, k := range ks {
		if router.Shard(k) == 0 {
			entries = append(entries, index.Entry{Key: codec.Encode(k), Value: uint64(i)})
		}
	}
	return entries
}

// BenchmarkStaticStage holds the FST stage to the compact B+tree on
// lib-read's shard 0, op by op: a build (with what it allocates per byte of
// the stage it returns), a point read of a present key, a 50-entry scan from
// one, and a full scan — a merge's stage work is one build and one full
// scan. Every iteration runs a batch on each stage, alternating which goes
// first, so both see the same host; each reports its ns per op and the
// FST's time as a multiple of the compact B+tree's, and the build the
// stages' bits per key.
func BenchmarkStaticStage(b *testing.B) {
	entries := libReadShard(b)
	builds := [2]func([]index.Entry) (index.Static, error){
		func(es []index.Entry) (index.Static, error) { return btree.NewCompact(es) },
		func(es []index.Entry) (index.Static, error) { return fst.NewStatic(es) },
	}
	var stages [2]index.Static
	for k, build := range builds {
		st, err := build(entries)
		if err != nil {
			b.Fatal(err)
		}
		stages[k] = st
	}
	var allocs [2]uint64
	for _, op := range []struct {
		name  string
		batch int
		do    func(k int, state *uint64)
	}{
		{"build", 1, func(k int, _ *uint64) {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			if _, err := builds[k](entries); err != nil {
				b.Fatal(err)
			}
			runtime.ReadMemStats(&ms1)
			allocs[k] += ms1.TotalAlloc - ms0.TotalAlloc
		}},
		{"get", 1000, func(k int, state *uint64) {
			*state = *state*2862933555777941757 + 3037000493
			e := entries[*state%uint64(len(entries))]
			if v, ok := stages[k].Get(e.Key); !ok || v != e.Value {
				b.Fatal("wrong value")
			}
		}},
		{"scan50", 100, func(k int, state *uint64) {
			*state = *state*2862933555777941757 + 3037000493
			n := 0
			stages[k].Scan(entries[*state%uint64(len(entries))].Key, func([]byte, uint64) bool {
				n++
				return n < 50
			})
		}},
		{"fullscan", 1, func(k int, _ *uint64) {
			if stages[k].Scan(nil, func([]byte, uint64) bool { return true }) != len(entries) {
				b.Fatal("short scan")
			}
		}},
	} {
		b.Run("op="+op.name, func(b *testing.B) {
			runtime.GC()
			allocs = [2]uint64{}
			var spent [2]time.Duration
			for i := 0; i < b.N; i++ {
				for j := range 2 {
					k := (i + j) % 2
					state := uint64(i)
					t0 := time.Now()
					for range op.batch {
						op.do(k, &state)
					}
					spent[k] += time.Since(t0)
				}
			}
			per := func(k int) float64 { return float64(spent[k]) / float64(b.N*op.batch) }
			b.ReportMetric(per(0), "compact-ns/op")
			b.ReportMetric(per(1), "fst-ns/op")
			b.ReportMetric(per(1)/per(0), "fst/compact")
			if op.name == "build" {
				for k, name := range [2]string{"compact", "fst"} {
					b.ReportMetric(float64(allocs[k])/float64(b.N)/float64(stages[k].MemoryUsage()), name+"-alloc/stage")
					b.ReportMetric(float64(stages[k].MemoryUsage())*8/float64(len(entries)), name+"-bits/key")
				}
			}
		})
	}
}
