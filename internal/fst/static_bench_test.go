package fst

import (
	"runtime"
	"testing"
	"time"

	"mets/internal/keys"
)

// BenchmarkStaticFixedWidth holds the stage's three layouts to each other on
// a served-read shard: 62.5k random 8-byte keys with tuple IDs in key order.
// "complete" is the trie fst.Build makes under the stage's tuning, every key
// byte stored; "lazy" is the truncated trie with the tails kept beside it;
// "column" is what NewStatic makes of these keys, the keys as integers in one
// bits.FOR and the values in another. The ops are a build (with what it
// allocates per byte of the stage it returns), a point read of a present key
// and a 50-entry scan from one. Every iteration runs a batch on each layout,
// rotating which goes first, so all see the same host; each reports its ns
// per op, the lazy layout's time as a multiple of the complete one's and the
// column's as a multiple of the lazy one's, and the build the layouts' bits
// per key.
func BenchmarkStaticFixedWidth(b *testing.B) {
	ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(62_500, 45)))
	entries := entriesOf(ks, false)
	values := make([]uint64, len(ks))
	for i := range values {
		values[i] = uint64(i)
	}
	names := [3]string{"complete", "lazy", "column"}
	builds := [3]func() *Static{
		func() *Static {
			tr, err := Build(ks, values, staticConfig)
			if err != nil {
				b.Fatal(err)
			}
			return &Static{t: *tr}
		},
		func() *Static { return buildTrie(b, entries) },
		func() *Static { return buildStatic(b, entries) },
	}
	stages := [3]*Static{builds[0](), builds[1](), builds[2]()}
	if stages[0].tails != nil || stages[1].tails == nil || stages[2].col == nil {
		b.Fatal("the layouts are not complete, lazy and column")
	}
	var allocs [3]uint64
	for _, op := range []struct {
		name  string
		batch int
		do    func(k int, state *uint64)
	}{
		{"build", 1, func(k int, _ *uint64) {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			builds[k]()
			runtime.ReadMemStats(&ms1)
			allocs[k] += ms1.TotalAlloc - ms0.TotalAlloc
		}},
		{"get", 1000, func(k int, state *uint64) {
			*state = *state*2862933555777941757 + 3037000493
			i := *state % uint64(len(ks))
			if v, ok := stages[k].Get(ks[i]); !ok || v != i {
				b.Fatal("wrong value")
			}
		}},
		{"scan50", 100, func(k int, state *uint64) {
			*state = *state*2862933555777941757 + 3037000493
			n := 0
			stages[k].Scan(ks[*state%uint64(len(ks))], func([]byte, uint64) bool {
				n++
				return n < 50
			})
		}},
	} {
		b.Run("op="+op.name, func(b *testing.B) {
			runtime.GC()
			allocs = [3]uint64{}
			var spent [3]time.Duration
			for i := 0; i < b.N; i++ {
				for j := range 3 {
					k := (i + j) % 3
					state := uint64(i)
					t0 := time.Now()
					for range op.batch {
						op.do(k, &state)
					}
					spent[k] += time.Since(t0)
				}
			}
			per := func(k int) float64 { return float64(spent[k]) / float64(b.N*op.batch) }
			for k, name := range names {
				b.ReportMetric(per(k), name+"-ns/op")
			}
			b.ReportMetric(per(1)/per(0), "lazy/complete")
			b.ReportMetric(per(2)/per(1), "column/lazy")
			if op.name == "build" {
				for k, name := range names {
					b.ReportMetric(float64(allocs[k])/float64(b.N)/float64(stages[k].MemoryUsage()), name+"-alloc/stage")
					b.ReportMetric(float64(stages[k].MemoryUsage())*8/float64(len(ks)), name+"-bits/key")
				}
			}
		})
	}
}
