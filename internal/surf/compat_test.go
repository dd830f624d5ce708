package surf

import (
	"bytes"
	"os"
	"testing"

	"mets/internal/fst"
	"mets/internal/keys"
)

// The two fixtures in testdata were marshaled by the builder whose only
// cutoff rule was §3.4's ratio, which kept level 1 sparse on both key sets;
// the size rule now makes it dense. Key i of compatTrieKeys carries value i.
const (
	compatFilterFile = "testdata/surf_real8_ints.bin" // RealConfig(8) over compatFilterKeys
	compatTrieFile   = "testdata/fst_complete.bin"    // fst.DefaultConfig over compatTrieKeys
)

// compatFilterKeys is the first of probeTables' tables: 25k random ints.
func compatFilterKeys() [][]byte {
	return keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(25_000, 100)))
}

// compatTrieKeys are 3-byte keys under 16 first bytes, so each level-1 node
// holds about 200 labels.
func compatTrieKeys() [][]byte {
	var ks [][]byte
	for _, v := range keys.RandomUint64(6000, 3) {
		k := keys.Uint64(v)[:3]
		k[0] &= 15
		ks = append(ks, k)
	}
	return keys.Dedup(ks)
}

// TestCutoffOneFixtures loads both fixtures and checks that they answer
// every probe as a fresh build of the same keys does.
func TestCutoffOneFixtures(t *testing.T) {
	data, err := os.ReadFile(compatFilterFile)
	if err != nil {
		t.Fatal(err)
	}
	old, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	ks := compatFilterKeys()
	fresh := build(t, ks, RealConfig(8))
	if old.trie.DenseHeight() != 1 || fresh.trie.DenseHeight() != 2 {
		t.Fatalf("dense heights: fixture %d, fresh %d; want 1 and 2", old.trie.DenseHeight(), fresh.trie.DenseHeight())
	}
	probes := append(keys.EncodeUint64s(keys.RandomUint64(4000, 9)), ks...)
	var a, b []byte
	for _, q := range probes {
		if old.Lookup(q) != fresh.Lookup(q) {
			t.Fatalf("Lookup(%x) differs", q)
		}
		if hi := probeHi(q); old.LookupRange(q, hi, false) != fresh.LookupRange(q, hi, false) {
			t.Fatalf("LookupRange(%x) differs", q)
		}
		var okA, okB bool
		a, okA = old.AppendSeek(a[:0], q)
		b, okB = fresh.AppendSeek(b[:0], q)
		if okA != okB || !bytes.Equal(a, b) {
			t.Fatalf("AppendSeek(%x) = %x, %v; fresh %x, %v", q, a, okA, b, okB)
		}
	}

	if data, err = os.ReadFile(compatTrieFile); err != nil {
		t.Fatal(err)
	}
	oldTrie, err := fst.UnmarshalTrie(data)
	if err != nil {
		t.Fatal(err)
	}
	ks = compatTrieKeys()
	values := make([]uint64, len(ks))
	for i := range values {
		values[i] = uint64(i)
	}
	freshTrie, err := fst.Build(ks, values, fst.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if oldTrie.DenseHeight() != 1 || freshTrie.DenseHeight() != 2 {
		t.Fatalf("trie dense heights: fixture %d, fresh %d; want 1 and 2", oldTrie.DenseHeight(), freshTrie.DenseHeight())
	}
	for i, k := range ks {
		if v, ok := oldTrie.Get(k); !ok || v != uint64(i) {
			t.Fatalf("fixture Get(%x) = %d, %v; want %d", k, v, ok, i)
		}
	}
	// Probes of one to four bytes under 32 first bytes: prefixes of stored
	// keys, stored keys, misses and extensions.
	for _, v := range keys.RandomUint64(20000, 11) {
		q := keys.Uint64(v)[:1+v%4]
		q[0] &= 31
		va, okA := oldTrie.Get(q)
		vb, okB := freshTrie.Get(q)
		if va != vb || okA != okB {
			t.Fatalf("Get(%x) = %d, %v; fresh %d, %v", q, va, okA, vb, okB)
		}
	}
}
