package fst

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// labelSearchKeys returns sorted keys whose trie has, below the root, one
// node of every size from 1 to 256 labels (node s under the one-byte prefix
// s-1). By s mod 4 a node holds label 0x00, 0xFF, both or whichever the
// draw gives; a one-label node holds lone, which is 0x00 or 0xFF. With
// terminators each of those nodes also stores its prefix as a key. Labels
// divisible by three get a child node.
func labelSearchKeys(rng *rand.Rand, terminators bool, lone byte) [][]byte {
	var ks [][]byte
	for s := 1; s <= 256; s++ {
		p := byte(s - 1)
		labels := map[byte]bool{}
		switch {
		case s == 1:
			labels[lone] = true
		case s%4 == 0:
			labels[0x00] = true
		case s%4 == 1:
			labels[0xFF] = true
		case s%4 == 2:
			labels[0x00], labels[0xFF] = true, true
		}
		for _, l := range rng.Perm(256) {
			if len(labels) < s {
				labels[byte(l)] = true
			}
		}
		if terminators {
			ks = append(ks, []byte{p})
		}
		for l := 0; l < 256; l++ {
			if !labels[byte(l)] {
				continue
			}
			ks = append(ks, []byte{p, byte(l)})
			if l%3 == 0 {
				ks = append(ks, []byte{p, byte(l), byte(rng.Intn(256))})
			}
		}
	}
	sort.Slice(ks, func(i, j int) bool { return bytes.Compare(ks[i], ks[j]) < 0 })
	return ks
}

// TestSparseLabelSearchOracle drives the one sparse label search through
// Get, SeekLowerBound with Next, and CountLess on nodes of every size, with
// and without a terminator entry, and checks all three against a sorted
// slice. Each node is probed below, between, on and above its labels, at
// its prefix alone and past some keys by one byte.
func TestSparseLabelSearchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, terminators := range []bool{false, true} {
		lone := byte(0xFF) // a real label, not a terminator
		if terminators {
			lone = 0x00
		}
		ks := labelSearchKeys(rng, terminators, lone)
		// Every byte after every prefix: below, between, on and above the
		// node's labels. Then every fourth key extended by a byte.
		var probes [][]byte
		for p := 0; p < 256; p++ {
			probes = append(probes, []byte{byte(p)})
			for b := 0; b < 256; b++ {
				probes = append(probes, []byte{byte(p), byte(b)})
			}
		}
		for i := 0; i < len(ks); i += 4 {
			probes = append(probes, append(ks[i][:len(ks[i]):len(ks[i])], 0x80))
		}
		want := make([]int, len(probes)) // the oracle: the first key >= the probe
		for j, q := range probes {
			want[j] = sort.Search(len(ks), func(i int) bool { return bytes.Compare(ks[i], q) >= 0 })
		}
		for name, cfg := range map[string]Config{
			"default":       DefaultConfig(),
			"sparse":        {DenseLevels: 0},
			"sparse-linear": {DenseLevels: 0, LinearLabelSearch: true},
		} {
			tr := buildExact(t, ks, cfg)
			if name == "sparse" && tr.DenseHeight() != 0 {
				t.Fatalf("sparse: %d dense levels", tr.DenseHeight())
			}
			it := tr.NewIterator()
			var key []byte
			for j, q := range probes {
				i := want[j]
				found := i < len(ks) && bytes.Equal(ks[i], q)
				if v, ok := tr.Get(q); ok != found || found && v != uint64(i) {
					t.Fatalf("%s terminators=%v: Get(%x) = %d, %v; want %d, %v", name, terminators, q, v, ok, i, found)
				}
				if it.SeekLowerBound(q) {
					it.Next()
				}
				for j := i; j < i+2; j++ {
					if it.Valid() != (j < len(ks)) {
						t.Fatalf("%s terminators=%v: seek %x, step %d: valid %v, want %v", name, terminators, q, j-i, it.Valid(), j < len(ks))
					}
					if !it.Valid() {
						break
					}
					if key = it.AppendKey(key[:0]); !bytes.Equal(key, ks[j]) || it.Value() != uint64(j) {
						t.Fatalf("%s terminators=%v: seek %x, step %d: %x (value %d), want %x (%d)", name, terminators, q, j-i, key, it.Value(), ks[j], j)
					}
					it.Next()
				}
				if got := tr.CountLess(q); got != i {
					t.Fatalf("%s terminators=%v: CountLess(%x) = %d, want %d", name, terminators, q, got, i)
				}
			}
		}
	}
}
