package main

import (
	"fmt"
	"math/rand"
	"time"

	"mets/internal/art"
	"mets/internal/btree"
	"mets/internal/hope"
	"mets/internal/keys"
	"mets/internal/masstree"
	"mets/internal/surf"
	"mets/internal/ycsb"
)

func init() {
	register("fig6.8", "HOPE sample-size sensitivity (CPR vs sample size)", runFig68)
	register("fig6.9", "HOPE compression rate by scheme and dataset", runFig69)
	register("fig6.10", "HOPE encode latency by scheme and dataset", runFig610)
	register("fig6.11", "HOPE dictionary memory by scheme and dataset", runFig611)
	register("fig6.12", "HOPE dictionary build-time breakdown", runFig612)
	register("fig6.13", "HOPE batch encoding latency vs batch size", runFig613)
	register("fig6.14", "HOPE robustness to key-distribution changes", runFig614)
	register("fig6.15", "HOPE-optimized SuRF: YCSB runtime, height, FPR (also fig6.16/6.17)", runFig615)
	register("fig6.18", "HOPE-optimized ART YCSB", func(c *benchContext) { runHOPETree(c, "ART") })
	register("fig6.19", "HOPE-optimized Masstree YCSB (HOT substitution)", func(c *benchContext) { runHOPETree(c, "Masstree") })
	register("fig6.20", "HOPE-optimized B+tree YCSB", func(c *benchContext) { runHOPETree(c, "B+tree") })
	register("fig6.21", "HOPE-optimized Prefix B+tree YCSB", func(c *benchContext) { runHOPETree(c, "PrefixB+tree") })
}

// hopeDatasets returns the three string datasets of §6.4.
func hopeDatasets(ctx *benchContext) map[string][][]byte {
	n := ctx.numKeys() / 2
	return map[string][][]byte{
		"email": keys.Dedup(keys.Emails(n, 1)),
		"wiki":  keys.Dedup(keys.Words(n, 2)),
		"url":   keys.Dedup(keys.URLs(n, 3)),
	}
}

func runFig68(ctx *benchContext) {
	ks := keys.Dedup(keys.Emails(ctx.numKeys()/2, 1))
	row("sample size", "SingleChar CPR", "DoubleChar CPR", "3-Grams CPR", "ALM-Imp CPR")
	for _, sampleN := range []int{100, 1000, 10000, len(ks) / 2} {
		if sampleN > len(ks) {
			continue
		}
		sample := ks[:sampleN]
		var cells []any
		cells = append(cells, fmt.Sprintf("%d", sampleN))
		for _, s := range []hope.Scheme{hope.SingleChar, hope.DoubleChar, hope.ThreeGrams, hope.ALMImproved} {
			e, err := hope.Train(sample, s, 1<<16)
			if err != nil {
				cells = append(cells, -1.0)
				continue
			}
			cells = append(cells, e.CompressionRate(ks))
		}
		row(cells...)
	}
	fmt.Println("paper: 1% samples already reach full-sample compression rates")
}

func runFig69(ctx *benchContext) {
	for name, ks := range hopeDatasets(ctx) {
		fmt.Printf("-- dataset: %s (%d keys) --\n", name, len(ks))
		row("scheme", "CPR")
		sample := ks[:len(ks)/10+1]
		for _, s := range hope.Schemes {
			e, err := hope.Train(sample, s, 1<<16)
			if err != nil {
				continue
			}
			row(s.String(), e.CompressionRate(ks))
		}
	}
	fmt.Println("paper shape: ALM-Improved > 4-Grams > 3-Grams ~ ALM > Double-Char > Single-Char")
}

func runFig610(ctx *benchContext) {
	for name, ks := range hopeDatasets(ctx) {
		fmt.Printf("-- dataset: %s --\n", name)
		row("scheme", "ns/key")
		sample := ks[:len(ks)/10+1]
		for _, s := range hope.Schemes {
			e, err := hope.Train(sample, s, 1<<16)
			if err != nil {
				continue
			}
			start := time.Now()
			for _, k := range ks {
				e.Encode(k)
			}
			row(s.String(), float64(time.Since(start).Nanoseconds())/float64(len(ks)))
		}
	}
	fmt.Println("paper: fixed-interval schemes encode fastest; VIVC trades latency for CPR")
}

func runFig611(ctx *benchContext) {
	for name, ks := range hopeDatasets(ctx) {
		fmt.Printf("-- dataset: %s --\n", name)
		row("scheme", "dict entries", "dictMB")
		sample := ks[:len(ks)/10+1]
		for _, s := range hope.Schemes {
			e, err := hope.Train(sample, s, 1<<16)
			if err != nil {
				continue
			}
			row(s.String(), e.NumEntries(), mb(e.MemoryUsage()))
		}
	}
}

func runFig612(ctx *benchContext) {
	ks := keys.Dedup(keys.Emails(ctx.numKeys()/2, 1))
	sample := ks[:len(ks)/100+1] // 1% sample as in the paper
	row("scheme", "symbol-select ms", "code-assign ms", "dict-build ms")
	for _, s := range hope.Schemes {
		e, err := hope.Train(sample, s, 1<<16)
		if err != nil {
			continue
		}
		st := e.BuildStats
		row(s.String(),
			float64(st.SymbolSelect.Microseconds())/1000,
			float64(st.CodeAssign.Microseconds())/1000,
			float64(st.DictBuild.Microseconds())/1000)
	}
	fmt.Println("paper: symbol selection dominates ALM; code assignment (Hu-Tucker) dominates the gram schemes")
}

func runFig613(ctx *benchContext) {
	ks := keys.Dedup(keys.Emails(ctx.numKeys()/2, 1))
	sample := ks[:len(ks)/100+1]
	for _, s := range []hope.Scheme{hope.ThreeGrams, hope.FourGrams} {
		e, err := hope.Train(sample, s, 1<<16)
		if err != nil {
			continue
		}
		fmt.Printf("-- scheme: %v --\n", s)
		row("batch size", "ns/key")
		for _, batch := range []int{1, 8, 64, 512, 4096} {
			start := time.Now()
			n := 0
			for off := 0; off+batch <= len(ks); off += batch {
				e.EncodeBatch(ks[off : off+batch])
				n += batch
				if n >= ctx.queries {
					break
				}
			}
			row(fmt.Sprintf("%d", batch), float64(time.Since(start).Nanoseconds())/float64(n))
		}
	}
	fmt.Println("paper: sorted batches amortize shared-prefix encoding, dropping per-key latency")
}

func runFig614(ctx *benchContext) {
	emails := keys.Dedup(keys.Emails(ctx.numKeys()/2, 1))
	urls := keys.Dedup(keys.URLs(ctx.numKeys()/2, 2))
	e, err := hope.Train(emails[:len(emails)/10], hope.ThreeGrams, 1<<16)
	if err != nil {
		fmt.Println(err)
		return
	}
	row("workload", "CPR")
	row("stable (emails)", e.CompressionRate(emails))
	row("sudden change (urls)", e.CompressionRate(urls))
	fresh, _ := hope.Train(urls[:len(urls)/10], hope.ThreeGrams, 1<<16)
	row("retrained (urls)", fresh.CompressionRate(urls))
	fmt.Println("paper: CPR degrades but stays >1 after a distribution shift; retraining restores it")
}

func runFig615(ctx *benchContext) {
	for name, ks := range hopeDatasets(ctx) {
		fmt.Printf("-- dataset: %s --\n", name)
		row("config", "point Mops", "height", "bits/key", "FPR%")
		sample := ks[:len(ks)/10+1]
		variants := []struct {
			name   string
			scheme hope.Scheme
			raw    bool
		}{
			{"uncompressed", 0, true},
			{"Single-Char", hope.SingleChar, false},
			{"Double-Char", hope.DoubleChar, false},
			{"3-Grams", hope.ThreeGrams, false},
			{"ALM-Improved", hope.ALMImproved, false},
		}
		half := len(ks) / 2
		for _, v := range variants {
			enc := func(k []byte) []byte { return k }
			if !v.raw {
				e, err := hope.Train(sample, v.scheme, 1<<14)
				if err != nil {
					continue
				}
				enc = e.Encode
			}
			stored := make([][]byte, half)
			for i := 0; i < half; i++ {
				stored[i] = enc(ks[i])
			}
			stored = keys.Dedup(stored)
			f, err := surf.Build(stored, surf.RealConfig(8))
			if err != nil {
				continue
			}
			start := time.Now()
			fp, neg := 0, 0
			for i, k := range ks {
				got := f.Lookup(enc(k))
				if i >= half {
					neg++
					if got {
						fp++
					}
				}
			}
			elapsed := time.Since(start)
			row(v.name, mops(len(ks), elapsed), f.Height(),
				float64(f.MemoryUsage()*8)/float64(half), 100*float64(fp)/float64(neg))
		}
	}
	fmt.Println("paper: HOPE cuts SuRF's trie height and memory while lowering FPR (Figs 6.15-6.17)")
}

// runHOPETree measures a tree with raw vs HOPE-encoded keys (Figs 6.18-6.21).
func runHOPETree(ctx *benchContext, tree string) {
	for name, ks := range hopeDatasets(ctx) {
		fmt.Printf("-- dataset: %s --\n", name)
		row("keys", "load Mops", "read Mops", "memMB")
		sample := ks[:len(ks)/10+1]
		for _, mode := range []string{"raw", "Single-Char", "3-Grams", "ALM-Improved"} {
			enc := func(k []byte) []byte { return k }
			if mode != "raw" {
				var s hope.Scheme
				switch mode {
				case "Single-Char":
					s = hope.SingleChar
				case "3-Grams":
					s = hope.ThreeGrams
				default:
					s = hope.ALMImproved
				}
				e, err := hope.Train(sample, s, 1<<14)
				if err != nil {
					continue
				}
				enc = e.Encode
			}
			encoded := make([][]byte, len(ks))
			for i, k := range ks {
				encoded[i] = enc(k)
			}
			var t writable
			var static dyn
			switch tree {
			case "ART":
				t = art.New()
			case "Masstree":
				t = masstree.New()
			case "B+tree":
				t = btree.New()
			}
			var loadT, memMB float64
			if t != nil {
				start := time.Now()
				for i, k := range encoded {
					t.Insert(k, uint64(i))
				}
				loadT = mops(len(encoded), time.Since(start))
				static = t
				memMB = mb(t.MemoryUsage())
			} else { // PrefixB+tree is static-only
				sorted := keys.Dedup(append([][]byte(nil), encoded...))
				start := time.Now()
				p, err := btree.NewCompact(loadEntries(sorted))
				if err != nil {
					continue
				}
				loadT = mops(len(sorted), time.Since(start))
				static = p
				memMB = mb(p.MemoryUsage())
			}
			gen := ycsb.NewGenerator(len(ks), false, 3)
			ops := gen.Ops(ycsb.WorkloadC, ctx.queries)
			start := time.Now()
			for _, op := range ops {
				static.Get(encoded[op.KeyIndex])
			}
			rd := mops(len(ops), time.Since(start))
			row(mode, loadT, rd, memMB)
		}
	}
	fmt.Println("paper: HOPE shrinks string-keyed trees up to 30% and often speeds lookups (shorter keys to compare)")
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
