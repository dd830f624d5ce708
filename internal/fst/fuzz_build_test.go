package fst

import (
	"bytes"
	"math/rand"
	"testing"

	"mets/internal/keys"
)

// FuzzFSTBuildLookup drives the builder with pseudo-random sorted key sets
// derived from the fuzz inputs: every built key must be found with its
// value, and LowerBound must land exactly on each key and step to its
// in-order successor from the key's immediate successor. The picked cutoff
// must not make the trie bigger than §3.4's ratio cutoff. Complements
// FuzzTrieOps, which derives the key set directly from the input blob and
// probes a single point.
func FuzzFSTBuildLookup(f *testing.F) {
	f.Add(uint64(1), uint16(8), uint8(3))
	f.Add(uint64(42), uint16(300), uint8(12))
	f.Add(uint64(7), uint16(1), uint8(1))
	f.Add(uint64(9), uint16(511), uint8(0x83))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, maxLen uint8) {
		rng := rand.New(rand.NewSource(int64(seed)))
		count := int(n)%512 + 1
		lim := int(maxLen)%16 + 1
		// A narrow alphabet forces shared prefixes and prefix keys. With
		// maxLen's top bit set, the first byte takes one of two values and
		// the rest any, so level 1 holds two wide nodes.
		wide := maxLen&0x80 != 0
		ks := make([][]byte, 0, count)
		for i := 0; i < count; i++ {
			k := make([]byte, rng.Intn(lim)+1)
			for j := range k {
				switch {
				case !wide:
					k[j] = byte(rng.Intn(8))
				case j == 0:
					k[j] = byte(rng.Intn(2))
				default:
					k[j] = byte(rng.Intn(256))
				}
			}
			ks = append(ks, k)
		}
		ks = keys.Dedup(ks)
		values := make([]uint64, len(ks))
		for i := range values {
			values[i] = uint64(i) * 3
		}
		trie, err := Build(ks, values, Config{StoreValues: true, DenseLevels: -1})
		if err != nil {
			t.Fatal(err)
		}
		checkNeverLarger(t, "fuzz", ks, values, Config{StoreValues: true})
		checkNeverLarger(t, "fuzz/truncated", ks, nil, Config{Truncate: true})
		for i, k := range ks {
			if v, ok := trie.Get(k); !ok || v != uint64(i)*3 {
				t.Fatalf("Get(%x) = %d,%v, want %d,true", k, v, ok, uint64(i)*3)
			}
			it := trie.LowerBound(k)
			if !it.Valid() || !bytes.Equal(it.Key(), k) {
				t.Fatalf("LowerBound(%x) missed its own key", k)
			}
			// The smallest key strictly greater than k is ks[i+1].
			it = trie.LowerBound(keys.Next(k))
			if i == len(ks)-1 {
				if it.Valid() {
					t.Fatalf("LowerBound past last key = %x", it.Key())
				}
			} else if !it.Valid() || !bytes.Equal(it.Key(), ks[i+1]) {
				t.Fatalf("LowerBound(Next(%x)) != next key %x", k, ks[i+1])
			}
		}
	})
}
