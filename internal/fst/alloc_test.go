//go:build !race

package fst

import (
	"testing"

	"mets/internal/keys"
)

// TestStaticScanAllocs holds Static.Scan to zero allocations once the
// iterator pool, which SuRF's range probes share, holds an iterator, and the
// key column's buffer pool a buffer: with random values (plain slots) and
// with IDs in key order (Elias–Fano), over random 8-byte keys (the key
// column) and 16-byte ones (the lazy trie).
func TestStaticScanAllocs(t *testing.T) {
	u64s := sortedByteKeys(keys.EncodeUint64s(keys.RandomUint64(20_000, 35)))
	for _, ks := range [][][]byte{u64s, layoutSets()[8].ks} {
		for _, random := range []bool{true, false} {
			s, err := NewStatic(entriesOf(ks, random))
			if err != nil {
				t.Fatal(err)
			}
			next := 0
			scan := func() { // 50 entries from a key spread over the set
				next++
				n := 0
				s.Scan(ks[next*7919%len(ks)], func([]byte, uint64) bool {
					n++
					return n < 50
				})
			}
			scan() // warm the pools
			if a := testing.AllocsPerRun(2000, scan); a != 0 {
				t.Fatalf("Static.Scan, %d-byte keys, column %v, random values %v: %.2f allocs/op, want 0", len(ks[0]), s.col != nil, random, a)
			}
		}
	}
}
