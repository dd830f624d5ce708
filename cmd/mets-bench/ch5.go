package main

import (
	"fmt"
	"sort"
	"time"

	"mets/internal/art"
	"mets/internal/btree"
	"mets/internal/hybrid"
	"mets/internal/keys"
	"mets/internal/masstree"
	"mets/internal/oltp"
	"mets/internal/skiplist"
	"mets/internal/ycsb"
)

func init() {
	register("fig5.3", "Hybrid B+tree vs original B+tree (YCSB x key types)", func(c *benchContext) { runHybridVsOriginal(c, "btree") })
	register("fig5.4", "Hybrid Masstree vs original Masstree", func(c *benchContext) { runHybridVsOriginal(c, "masstree") })
	register("fig5.5", "Hybrid Skip List vs original Skip List", func(c *benchContext) { runHybridVsOriginal(c, "skiplist") })
	register("fig5.6", "Hybrid ART vs original ART", func(c *benchContext) { runHybridVsOriginal(c, "art") })
	register("fig5.7", "Merge-ratio sensitivity (insert vs read throughput)", runFig57)
	register("fig5.8", "Merge time vs static-stage size", runFig58)
	register("fig5.9", "Auxiliary structures ablation: Bloom filter and node cache", runFig59)
	register("fig5.10", "Secondary (non-unique) hybrid index vs original", runFig510)
	register("fig5.11", "OLTP in-memory TPC-C: throughput and memory by index type", func(c *benchContext) { runOLTPInMem(c, oltp.NewTPCC(2, 10000), 40000) })
	register("fig5.12", "OLTP in-memory Voter", func(c *benchContext) { runOLTPInMem(c, nil, 0) })
	register("fig5.13", "OLTP in-memory Articles", func(c *benchContext) { runOLTPInMem(c, oltp.NewArticles(20000*c.scale), 40000) })
	register("table5.1", "TPC-C transaction latency percentiles by index type", runTable51)
	register("fig5.14", "OLTP larger-than-memory TPC-C (anti-caching)", func(c *benchContext) { runOLTPAnti(c, oltp.NewTPCC(2, 10000), 60000) })
	register("fig5.15", "OLTP larger-than-memory Voter (anti-caching)", func(c *benchContext) { runOLTPAnti(c, nil, 0) })
	register("fig5.16", "OLTP larger-than-memory Articles (anti-caching)", func(c *benchContext) { runOLTPAnti(c, oltp.NewArticles(20000*c.scale), 60000) })
}

// hybridPair builds the original structure and its hybrid counterpart.
func hybridPair(kind string) (writable, writable, writable) {
	cfg := hybrid.DefaultConfig()
	switch kind {
	case "masstree":
		return masstree.New(), hybrid.NewMasstree(cfg), nil
	case "skiplist":
		return skiplist.New(), hybrid.NewSkipList(cfg), nil
	case "art":
		return art.New(), hybrid.NewART(cfg), nil
	default:
		return btree.New(), hybrid.NewBTree(cfg), hybrid.NewCompressedBTree(cfg, 0)
	}
}

func runHybridVsOriginal(ctx *benchContext, kind string) {
	for _, kt := range []keyType{randInt, monoInc, email} {
		ks := dataset(kt, ctx.numKeys(), 1)
		fmt.Printf("-- key type: %v (%d keys) --\n", kt, len(ks))
		row("variant/workload", "insert Mops", "read Mops", "rw Mops", "scan Mops", "memMB")
		names := []string{"original", "hybrid", "hybrid-compressed"}
		for vi := 0; vi < 3; vi++ {
			builders := make([]writable, 3)
			builders[0], builders[1], builders[2] = hybridPair(kind)
			t := builders[vi]
			if t == nil {
				continue
			}
			ins := measureLoad(t, ks, 2)
			rd := measureWorkload(t, ks, ycsb.WorkloadC, ctx.queries, 3)
			rw := measureWorkload(t, ks, ycsb.WorkloadA, ctx.queries, 4)
			sc := measureWorkload(t, ks, ycsb.WorkloadE, ctx.queries/10, 5)
			row(names[vi], ins, rd, rw, sc, mb(t.MemoryUsage()))
		}
	}
	fmt.Println("paper: hybrids are ~30% slower on insert (uniqueness check), faster on skewed read/write, 30-70% smaller")
}

func runFig57(ctx *benchContext) {
	ks := dataset(randInt, ctx.numKeys(), 1)
	row("merge ratio", "insert Mops", "read Mops", "merges")
	for _, ratio := range []int{1, 2, 5, 10, 20, 40, 80} {
		h := hybrid.NewBTree(hybrid.Config{MergeRatio: ratio, MinDynamic: 4096, BloomBitsPerKey: 10})
		ins := measureLoad(h, ks, 2)
		rd := measureGets(h, ks, ctx.queries, 3)
		merges, _, _ := h.MergeStats()
		row(fmt.Sprintf("%d", ratio), ins, rd, merges)
	}
	fmt.Println("paper: larger ratios trade write throughput for slightly better reads; 10 balances OLTP mixes")
}

func runFig58(ctx *benchContext) {
	h := hybrid.NewBTree(hybrid.Config{MergeRatio: 10, MinDynamic: 1 << 30})
	rng := permutation(ctx.numKeys()*4, 7)
	row("static entries", "merge ms")
	chunk := ctx.numKeys()
	buf := make([]byte, 8)
	for round := 0; round < 4; round++ {
		for i := 0; i < chunk; i++ {
			keys.PutUint64(buf, uint64(rng[(round*chunk+i)%len(rng)])*2654435761+uint64(i))
			h.Insert(buf, 1)
		}
		h.Merge()
		_, last, _ := h.MergeStats()
		row(fmt.Sprintf("%d", h.StaticLen()), float64(last.Milliseconds()))
	}
	fmt.Println("paper: merge time grows linearly with index size; amortized cost stays constant")
}

func runFig59(ctx *benchContext) {
	ks := dataset(randInt, ctx.numKeys(), 1)
	row("configuration", "read Mops", "rw Mops")
	type cfg struct {
		name  string
		bloom bool
		cache int // compressed static-stage cache blocks; 0 = plain compact
	}
	for _, c := range []cfg{
		{"hybrid", true, 0},
		{"hybrid-nobloom", false, 0},
		{"hybrid-compressed+cache", true, 64},
		{"hybrid-compressed-nocache", true, 1},
	} {
		hc := hybrid.DefaultConfig()
		hc.DisableBloom = !c.bloom
		var h *hybrid.Index
		if c.cache == 0 {
			h = hybrid.NewBTree(hc)
		} else {
			h = hybrid.NewCompressedBTree(hc, c.cache)
		}
		for i, k := range ks {
			h.Insert(k, uint64(i))
		}
		rd := measureGets(h, ks, ctx.queries, 3)
		rw := measureWorkload(h, ks, ycsb.WorkloadA, ctx.queries/2, 4)
		row(c.name, rd, rw)
	}
	fmt.Println("paper: the Bloom filter lifts read-only throughput; the node cache recovers compressed-stage reads")
}

func runFig510(ctx *benchContext) {
	numKeys := ctx.numKeys() / 10
	row("variant", "insert Mops", "read Kops", "memMB")
	// Original multimap B+tree.
	orig := btree.NewMulti()
	start := time.Now()
	for i := 0; i < numKeys; i++ {
		k := keys.Uint64(uint64(i) * 2654435761)
		for j := 0; j < 10; j++ {
			orig.Insert(k, uint64(i*10+j))
		}
	}
	insOrig := mops(numKeys*10, time.Since(start))
	gen := ycsb.NewGenerator(numKeys, false, 3)
	ops := gen.Ops(ycsb.WorkloadC, ctx.queries/10)
	start = time.Now()
	for _, op := range ops {
		orig.GetAll(keys.Uint64(uint64(op.KeyIndex) * 2654435761))
	}
	rdOrig := float64(len(ops)) / time.Since(start).Seconds() / 1e3

	sec := hybrid.NewSecondary(hybrid.DefaultConfig())
	start = time.Now()
	for i := 0; i < numKeys; i++ {
		k := keys.Uint64(uint64(i) * 2654435761)
		for j := 0; j < 10; j++ {
			sec.Insert(k, uint64(i*10+j))
		}
	}
	insHyb := mops(numKeys*10, time.Since(start))
	start = time.Now()
	for _, op := range ops {
		sec.GetAll(keys.Uint64(uint64(op.KeyIndex) * 2654435761))
	}
	rdHyb := float64(len(ops)) / time.Since(start).Seconds() / 1e3
	row("original-multi", insOrig, rdOrig, mb(orig.MemoryUsage()))
	row("hybrid-secondary", insHyb, rdHyb, mb(sec.MemoryUsage()))
	fmt.Println("paper: memory savings are larger for secondary indexes (keys deduplicated in the static stage)")
}

func oltpIndexTypes() []oltp.IndexType {
	return []oltp.IndexType{oltp.BTreeIndex, oltp.HybridIndex, oltp.HybridCompressedIndex}
}

func runOLTPInMem(ctx *benchContext, w oltp.Workload, tx int) {
	row("index type", "tx Kops", "indexMB", "totalMB")
	for _, it := range oltpIndexTypes() {
		wl := w
		if wl == nil {
			wl = oltp.NewVoter(100000 * ctx.scale)
			tx = 150000 * ctx.scale
		} else if tws, ok := wl.(*oltp.TPCC); ok {
			wl = oltp.NewTPCC(tws.Warehouses, tws.Items) // fresh sequence counters
		} else if a, ok := wl.(*oltp.Articles); ok {
			wl = oltp.NewArticles(a.InitialArticles)
		}
		tps, mem, _ := oltp.RunBenchmark(wl, oltp.Config{IndexType: it}, tx*ctx.scale, 1)
		row(it.String(), tps/1e3, mb(mem.Primary+mem.Secondary), mb(mem.Total()))
	}
	fmt.Println("paper: hybrids cut index memory 40-55% (compressed 50-65%) at a 1-10% throughput cost")
}

func runTable51(ctx *benchContext) {
	row("index type", "p50 us", "p99 us", "max us")
	for _, it := range oltpIndexTypes() {
		w := oltp.NewTPCC(2, 10000)
		e := oltp.New(oltp.Config{IndexType: it})
		w.Load(e)
		rng := newRand(1)
		n := 40000 * ctx.scale
		lat := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			start := time.Now()
			w.Tx(e, rng)
			lat = append(lat, time.Since(start))
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		row(it.String(),
			float64(lat[len(lat)/2].Microseconds()),
			float64(lat[len(lat)*99/100].Microseconds()),
			float64(lat[len(lat)-1].Microseconds()))
	}
	fmt.Println("paper: p50/p99 match the default; only MAX grows (blocking merges)")
}

func runOLTPAnti(ctx *benchContext, w oltp.Workload, tx int) {
	row("index type", "tx Kops", "tuplesMB", "indexMB", "evictions", "diskReads")
	for _, it := range oltpIndexTypes() {
		wl := w
		if wl == nil {
			wl = oltp.NewVoter(100000 * ctx.scale)
			tx = 200000 * ctx.scale
		} else if tws, ok := wl.(*oltp.TPCC); ok {
			wl = oltp.NewTPCC(tws.Warehouses, tws.Items)
		} else if a, ok := wl.(*oltp.Articles); ok {
			wl = oltp.NewArticles(a.InitialArticles)
		}
		cfg := oltp.Config{IndexType: it, EvictionThreshold: 24 << 20, EvictBatch: 2048}
		tps, mem, e := oltp.RunBenchmark(wl, cfg, tx*ctx.scale, 1)
		row(it.String(), tps/1e3, mb(mem.Tuples), mb(mem.Primary+mem.Secondary),
			e.Stats.Evictions, e.Stats.DiskReads)
	}
	fmt.Println("paper: index memory saved by hybrids keeps more tuples resident, sustaining throughput under anti-caching")
}
