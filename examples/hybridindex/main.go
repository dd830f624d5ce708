// hybridindex demonstrates the Chapter 5 dual-stage architecture: a Hybrid
// B+tree ingests a write-heavy stream while periodic ratio-triggered merges
// keep most entries in the compact static stage, cutting memory roughly in
// half versus the plain B+tree at comparable throughput.
package main

import (
	"fmt"
	"time"

	"mets"
	"mets/internal/btree"
	"mets/internal/keys"
)

func main() {
	n := 300000
	ks := keys.EncodeUint64s(keys.RandomUint64(n, 1))

	plain := btree.New()
	start := time.Now()
	for i, k := range ks {
		plain.Insert(k, uint64(i))
	}
	plainLoad := time.Since(start)

	h := mets.NewHybridBTree(mets.DefaultHybridConfig())
	start = time.Now()
	for i, k := range ks {
		h.Insert(k, uint64(i))
	}
	hybridLoad := time.Since(start)

	fmt.Printf("loaded %d random integer keys\n", n)
	fmt.Printf("%-14s load %8v  memory %6.1f MB\n", "B+tree", plainLoad.Round(time.Millisecond), float64(plain.MemoryUsage())/(1<<20))
	merges, _, mergeTime := h.MergeStats()
	fmt.Printf("%-14s load %8v  memory %6.1f MB  (%d merges, %v total merge time)\n",
		"Hybrid B+tree", hybridLoad.Round(time.Millisecond), float64(h.MemoryUsage())/(1<<20),
		merges, mergeTime.Round(time.Millisecond))
	fmt.Printf("stage split: %d dynamic / %d static entries\n", h.DynamicLen(), h.StaticLen())

	// Updates shadow the static stage; reads see the newest value.
	key := ks[12345]
	h.Update(key, 999999)
	if v, ok := h.Get(key); ok {
		fmt.Printf("after update, Get = %d\n", v)
	}

	// Range scans merge both stages in key order.
	fmt.Print("five keys from a range scan: ")
	shown := 0
	h.Scan(ks[0], func(k []byte, v uint64) bool {
		fmt.Printf("%x ", k[:4])
		shown++
		return shown < 5
	})
	fmt.Println()

	ratio := float64(h.MemoryUsage()) / float64(plain.MemoryUsage())
	fmt.Printf("hybrid/original memory ratio: %.2f (paper: 0.3-0.7)\n", ratio)
}
