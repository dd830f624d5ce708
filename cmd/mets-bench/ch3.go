package main

import (
	"fmt"
	"time"

	"mets/internal/art"
	"mets/internal/btree"
	"mets/internal/fst"
	"mets/internal/ycsb"
)

func init() {
	register("fig3.4", "FST vs pointer-based indexes (B+tree, ART, C-ART): point/range perf vs memory", runFig34)
	register("fig3.5", "FST vs other succinct tries (LOUDS-Sparse-only baselines)", runFig35)
	register("fig3.6", "FST performance breakdown: LOUDS-Dense + rank/select/label-search ablations", runFig36)
	register("fig3.7", "LOUDS-Dense vs LOUDS-Sparse trade-off: dense-level sweep", runFig37)
}

// fstAsDyn adapts the trie to the measurement interface.
type fstAsDyn struct{ t *fst.Trie }

func (f fstAsDyn) Get(k []byte) (uint64, bool) { return f.t.Get(k) }

// Scan iterates values in key order; like the other trees' scans it hands
// the callback the stored value per step, but skips materializing each key
// (range queries fetch tuples through the value pointer).
func (f fstAsDyn) Scan(start []byte, fn func([]byte, uint64) bool) int {
	it := f.t.LowerBound(start)
	n := 0
	for it.Valid() {
		n++
		if !fn(nil, it.Value()) {
			break
		}
		it.Next()
	}
	return n
}
func (f fstAsDyn) MemoryUsage() int64 { return f.t.MemoryUsage() }

func runFig34(ctx *benchContext) {
	for _, kt := range []keyType{randInt, email} {
		ks := dataset(kt, ctx.numKeys(), 1)
		fmt.Printf("-- key type: %v (%d keys) --\n", kt, len(ks))
		row("index", "point Mops", "range Mops", "memMB")
		entries := loadEntries(ks)

		bt := btree.New()
		for i, k := range ks {
			bt.Insert(k, uint64(i))
		}
		if kt == randInt { // the paper only runs B+tree on fixed-length ints
			row("B+tree", measureGets(bt, ks, ctx.queries, 3), measureScans(bt, ks, ctx.queries/10, 4), mb(bt.MemoryUsage()))
		}

		at := art.New()
		for i, k := range ks {
			at.Insert(k, uint64(i))
		}
		row("ART", measureGets(at, ks, ctx.queries, 3), measureScans(at, ks, ctx.queries/10, 4), mb(at.MemoryUsage()))

		cart, _ := art.NewCompact(entries)
		row("C-ART", measureGets(cart, ks, ctx.queries, 3), measureScans(cart, ks, ctx.queries/10, 4), mb(cart.MemoryUsage()))

		trie, _ := fst.Build(ks, values(len(ks)), fst.DefaultConfig())
		f := fstAsDyn{trie}
		row("FST", measureGets(f, ks, ctx.queries, 3), measureScans(f, ks, ctx.queries/10, 4), mb(trie.MemoryUsage()))
	}
	fmt.Println("paper: FST matches the fastest pointer-based index while using a fraction of the memory")
}

func values(n int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = uint64(i)
	}
	return v
}

func runFig35(ctx *benchContext) {
	for _, kt := range []keyType{randInt, email} {
		ks := dataset(kt, ctx.numKeys(), 1)
		fmt.Printf("-- key type: %v (%d keys) --\n", kt, len(ks))
		row("trie", "point Mops", "memMB")
		// tx-trie analogue: LOUDS-Sparse only, linear label search, default
		// (coarse) rank/select tuning.
		naive, _ := fst.Build(ks, values(len(ks)), fst.Config{
			StoreValues: true, DenseLevels: 0, LinearLabelSearch: true,
			RankSparseBlock: 512, SelectSample: 512,
		})
		row("tx-trie-like", measureGets(fstAsDyn{naive}, ks, ctx.queries, 3), mb(naive.MemoryUsage()))
		// PDT-like analogue: sparse-only with tuned search.
		pdt, _ := fst.Build(ks, values(len(ks)), fst.Config{StoreValues: true, DenseLevels: 0})
		row("sparse-tuned", measureGets(fstAsDyn{pdt}, ks, ctx.queries, 3), mb(pdt.MemoryUsage()))
		full, _ := fst.Build(ks, values(len(ks)), fst.DefaultConfig())
		row("FST", measureGets(fstAsDyn{full}, ks, ctx.queries, 3), mb(full.MemoryUsage()))
	}
	fmt.Println("paper: FST is 4-15x faster than tx-trie/PDT while smaller; see DESIGN.md for the baseline substitution")
}

func runFig36(ctx *benchContext) {
	type step struct {
		name string
		cfg  fst.Config
	}
	steps := []step{
		{"baseline(sparse)", fst.Config{StoreValues: true, DenseLevels: 0, LinearLabelSearch: true, SelectSample: 512}},
		{"+LOUDS-Dense", fst.Config{StoreValues: true, DenseLevels: -1, LinearLabelSearch: true, RankDenseBlock: 512, SelectSample: 512}},
		{"+rank-opt", fst.Config{StoreValues: true, DenseLevels: -1, LinearLabelSearch: true, SelectSample: 512}},
		{"+select-opt", fst.Config{StoreValues: true, DenseLevels: -1, LinearLabelSearch: true}},
		{"+word-search(SIMD)", fst.Config{StoreValues: true, DenseLevels: -1}},
	}
	for _, kt := range []keyType{randInt, email} {
		ks := dataset(kt, ctx.numKeys(), 1)
		fmt.Printf("-- key type: %v --\n", kt)
		row("configuration", "point Mops")
		for _, s := range steps {
			trie, err := fst.Build(ks, values(len(ks)), s.cfg)
			if err != nil {
				fmt.Println("build failed:", err)
				continue
			}
			row(s.name, measureGets(fstAsDyn{trie}, ks, ctx.queries, 3))
		}
	}
	fmt.Println("paper: LOUDS-Dense is the big win; the other optimizations add 3-12%")
}

func runFig37(ctx *benchContext) {
	for _, kt := range []keyType{randInt, email} {
		ks := dataset(kt, ctx.numKeys(), 1)
		fmt.Printf("-- key type: %v --\n", kt)
		row("dense levels", "point Mops", "memMB")
		for cut := -1; cut <= 8; cut++ { // -1: the cutoff the builder picks
			trie, err := fst.Build(ks, values(len(ks)), fst.Config{StoreValues: true, DenseLevels: cut})
			if err != nil {
				continue
			}
			start := time.Now()
			gen := ycsb.NewGenerator(len(ks), false, 3)
			ops := gen.Ops(ycsb.WorkloadC, ctx.queries)
			for _, op := range ops {
				trie.Get(ks[op.KeyIndex])
			}
			row(fmt.Sprintf("%d (actual %d)", cut, trie.DenseHeight()), mops(len(ops), time.Since(start)), mb(trie.MemoryUsage()))
		}
	}
	fmt.Println("paper: up to 3x faster with more dense levels; memory grows for emails, shrinks for random ints")
}
