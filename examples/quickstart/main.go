// Quickstart: build a Fast Succinct Trie and a SuRF filter over a small key
// set and run point lookups, range scans, and approximate range filtering.
package main

import (
	"fmt"
	"log"

	"mets"
)

func main() {
	// Sorted unique keys with 64-bit values (think: tuple pointers).
	raw := [][]byte{
		[]byte("f"), []byte("far"), []byte("fas"), []byte("fast"),
		[]byte("fat"), []byte("s"), []byte("top"), []byte("toy"),
		[]byte("trie"), []byte("trip"), []byte("try"),
	}
	ks := mets.SortKeys(raw)
	values := make([]uint64, len(ks))
	for i := range values {
		values[i] = uint64(i * 100)
	}

	// --- Fast Succinct Trie: an exact ordered index at ~10 bits/node. ---
	trie, err := mets.NewFST(ks, values)
	if err != nil {
		log.Fatal(err)
	}
	if v, ok := trie.Get([]byte("fast")); ok {
		fmt.Printf("Get(fast) = %d\n", v)
	}
	fmt.Printf("FST memory: %d bytes for %d keys (%.1f bits/key)\n",
		trie.MemoryUsage(), len(ks), float64(trie.MemoryUsage()*8)/float64(len(ks)))

	// Ordered iteration from a lower bound.
	fmt.Print("keys >= 'to': ")
	it := trie.LowerBound([]byte("to"))
	for ; it.Valid(); it.Next() {
		fmt.Printf("%s ", it.Key())
	}
	fmt.Println()

	// Approximate range count in O(height).
	fmt.Printf("count[far, toy] = %d\n", trie.Count([]byte("far"), []byte("toy")))

	// --- SuRF: the same trie shape as a range filter. ---
	filter, err := mets.NewSuRF(ks, mets.SuRFReal(8))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("filter: %.1f bits/key\n", filter.BitsPerKey())
	for _, probe := range []string{"fast", "fake", "trap"} {
		fmt.Printf("Lookup(%s) = %v\n", probe, filter.Lookup([]byte(probe)))
	}
	fmt.Printf("LookupRange[ta, tn] = %v (nothing stored there)\n",
		filter.LookupRange([]byte("ta"), []byte("tn"), true))
	fmt.Printf("LookupRange[toa, toz] = %v (top/toy inside)\n",
		filter.LookupRange([]byte("toa"), []byte("toz"), true))

	// The filter's iterator walks what it stores: each key's shortest
	// distinguishing prefix, extended by its real suffix byte.
	fmt.Print("filter keys >= 'to': ")
	for fit := filter.MoveToNext([]byte("to")); fit.Valid(); fit.Next() {
		fmt.Printf("%s ", fit.Key())
	}
	fmt.Println()
}
