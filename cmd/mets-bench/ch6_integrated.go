package main

import (
	"fmt"
	"time"

	"mets/internal/fst"
	"mets/internal/hope"
	"mets/internal/hybrid"
	"mets/internal/keycodec"
	"mets/internal/keys"
	"mets/internal/obs"
	"mets/internal/surf"
	"mets/internal/ycsb"
)

func init() {
	register("ch6.integrated",
		"integrated key-compression sweep: FST/SuRF/hybrid memory and p50/p99, codec on/off per scheme",
		runCh6Integrated)
}

// runCh6Integrated measures the three index structures with the key codec
// off and on (per scheme): resident memory, dictionary overhead, and the
// point-lookup latency distribution.
func runCh6Integrated(ctx *benchContext) {
	datasets := []struct {
		name string
		ks   [][]byte
	}{
		{"email", keys.Dedup(keys.Emails(ctx.numKeys()/2, 1))},
		{"url", keys.Dedup(keys.URLs(ctx.numKeys()/2, 3))},
	}
	modes := []struct {
		name   string
		scheme hope.Scheme
		on     bool
	}{
		{"off", 0, false},
		{"single", hope.SingleChar, true},
		{"3grams", hope.ThreeGrams, true},
		{"alm-imp", hope.ALMImproved, true},
	}
	row("structure/data/codec", "ns/op", "index-bytes", "dict-bytes", "bits/key", "p50-ns", "p99-ns")
	for _, ds := range datasets {
		ks := ds.ks
		sample := ks[:len(ks)/10+1]
		for _, mode := range modes {
			var codec keycodec.Codec
			if mode.on {
				c, err := keycodec.TrainHOPE(sample, mode.scheme, 1<<14)
				if err != nil {
					fmt.Printf("# %s/%s: train failed: %v\n", ds.name, mode.name, err)
					continue
				}
				codec = c
			}
			var dictBytes int64
			if sized, ok := codec.(interface{ DictBytes() int64 }); ok {
				dictBytes = sized.DictBytes()
			}
			enc := func(k []byte) []byte { return k }
			if codec != nil {
				enc = codec.Encode
			}
			stored := make([][]byte, len(ks))
			for i, k := range ks {
				stored[i] = enc(k)
			}
			stored = keys.Dedup(stored)
			values := make([]uint64, len(stored))
			for i := range values {
				values[i] = uint64(i)
			}
			gen := ycsb.NewGenerator(len(ks), false, 7)
			ops := gen.Ops(ycsb.WorkloadC, ctx.queries)
			bench := func(structName string, mem int64, get func(raw, encoded []byte)) {
				hist := obs.NewHistogram()
				start := time.Now()
				for _, op := range ops {
					k := ks[op.KeyIndex]
					t0 := time.Now()
					get(k, stored[op.KeyIndex%len(stored)])
					hist.Observe(time.Since(t0))
				}
				elapsed := time.Since(start)
				snap := hist.Snapshot()
				row(fmt.Sprintf("%s/%s/%s", structName, ds.name, mode.name),
					float64(elapsed.Nanoseconds())/float64(len(ops)),
					mem, dictBytes,
					float64(mem*8)/float64(len(stored)),
					snap.P50, snap.P99)
			}

			// FST: static trie over the stored (possibly encoded) keys;
			// lookups probe with the encoded form, as an integrated system
			// would after encoding once at its boundary.
			trie, err := fst.Build(stored, values, fst.DefaultConfig())
			if err != nil {
				fmt.Printf("# %s/%s: fst build failed: %v\n", ds.name, mode.name, err)
				continue
			}
			bench("fst", trie.MemoryUsage(), func(_, e []byte) { trie.Get(e) })

			// SuRF: range filter over the stored keys (the Fig 6.15 shape).
			f, err := surf.Build(stored, surf.RealConfig(8))
			if err != nil {
				fmt.Printf("# %s/%s: surf build failed: %v\n", ds.name, mode.name, err)
				continue
			}
			bench("surf", f.MemoryUsage(), func(_, e []byte) { f.Lookup(e) })

			// Hybrid: keys are encoded at the index's boundary, as the
			// sharded layer encodes them for its shards, and each lookup
			// encodes its raw key — encode cost is part of the measured
			// lookup, exactly what a caller pays.
			h := hybrid.NewBTree(hybrid.DefaultConfig())
			for i, k := range ks {
				h.Insert(enc(k), uint64(i))
			}
			h.Merge()
			bench("hybrid", h.MemoryUsage(), func(raw, _ []byte) { h.Get(enc(raw)) })
		}
	}
	fmt.Println("paper: HOPE trades a dictionary (KBs) for 15-40% smaller string-keyed indexes at comparable or better lookup latency")
}
