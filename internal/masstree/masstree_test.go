package masstree

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"mets/internal/index"
	"mets/internal/keys"
)

func datasets() map[string][][]byte {
	return map[string][][]byte{
		"ints":   keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(5000, 1))),
		"emails": keys.Dedup(keys.Emails(5000, 2)),
		"slices": keys.Dedup([][]byte{
			[]byte("a"), []byte("abcdefgh"), []byte("abcdefghi"),
			[]byte("abcdefghijklmnop"), []byte("abcdefghijklmnopq"),
			[]byte("abcdefghzzzzzzzz"), []byte("b"), {},
			[]byte("exactly8"), []byte("exactly8exactly8"),
		}),
	}
}

func TestLayerKeyOrderPreserving(t *testing.T) {
	// The 9-byte layer key encoding must preserve lexicographic order for
	// remainders of any length.
	rems := [][]byte{
		{}, {0}, {0, 0}, []byte("a"), []byte("a\x00"), []byte("ab"),
		[]byte("abcdefgh"), []byte("abcdefghA"), []byte("abcdefgi"),
		{0xFF}, bytes.Repeat([]byte{0xFF}, 9),
	}
	sort.Slice(rems, func(i, j int) bool { return keys.Compare(rems[i], rems[j]) < 0 })
	var prev []byte
	for _, r := range rems {
		lk := make([]byte, layerKeyLen)
		layerKey(lk, r)
		if prev != nil && bytes.Compare(prev, lk) > 0 {
			t.Fatalf("layer key order violated at %x", r)
		}
		prev = lk
	}
}

func TestInsertGetDynamic(t *testing.T) {
	for name, ks := range datasets() {
		tr := New()
		perm := rand.New(rand.NewSource(3)).Perm(len(ks))
		for _, i := range perm {
			if !tr.Insert(ks[i], uint64(i)) {
				t.Fatalf("%s: insert %q failed", name, ks[i])
			}
		}
		if tr.Len() != len(ks) {
			t.Fatalf("%s: Len = %d", name, tr.Len())
		}
		for i, k := range ks {
			if v, ok := tr.Get(k); !ok || v != uint64(i) {
				t.Fatalf("%s: Get(%q) = %d,%v", name, k, v, ok)
			}
		}
		if tr.Insert(ks[0], 1) {
			t.Fatalf("%s: duplicate insert", name)
		}
		if _, ok := tr.Get([]byte("~~~absent~~~")); ok {
			t.Fatalf("%s: absent key found", name)
		}
	}
}

func TestUpdateDelete(t *testing.T) {
	ks := keys.Dedup(keys.Emails(3000, 5))
	tr := New()
	for i, k := range ks {
		tr.Insert(k, uint64(i))
	}
	for i, k := range ks {
		if i%2 == 0 && !tr.Update(k, uint64(i+100000)) {
			t.Fatal("update failed")
		}
		if i%3 == 0 && !tr.Delete(k) {
			t.Fatal("delete failed")
		}
	}
	for i, k := range ks {
		v, ok := tr.Get(k)
		switch {
		case i%3 == 0:
			if ok {
				t.Fatal("deleted key present")
			}
		case i%2 == 0:
			if !ok || v != uint64(i+100000) {
				t.Fatal("update lost")
			}
		default:
			if !ok || v != uint64(i) {
				t.Fatal("value wrong")
			}
		}
	}
}

func TestScanDynamic(t *testing.T) {
	for name, ks := range datasets() {
		tr := New()
		perm := rand.New(rand.NewSource(7)).Perm(len(ks))
		for _, i := range perm {
			tr.Insert(ks[i], uint64(i))
		}
		got := index.Snapshot(tr)
		if len(got) != len(ks) {
			t.Fatalf("%s: snapshot %d entries, want %d", name, len(got), len(ks))
		}
		for i := range got {
			if !bytes.Equal(got[i].Key, ks[i]) || got[i].Value != uint64(i) {
				t.Fatalf("%s: scan[%d] = %q, want %q", name, i, got[i].Key, ks[i])
			}
		}
		rng := rand.New(rand.NewSource(9))
		for trial := 0; trial < 100; trial++ {
			probe := ks[rng.Intn(len(ks))]
			if rng.Intn(2) == 0 && len(probe) > 2 {
				probe = probe[:len(probe)-1]
			}
			idx := sort.Search(len(ks), func(i int) bool { return keys.Compare(ks[i], probe) >= 0 })
			var first []byte
			tr.Scan(probe, func(k []byte, _ uint64) bool { first = k; return false })
			if idx == len(ks) {
				if first != nil {
					t.Fatalf("%s: scan past end = %q", name, first)
				}
			} else if !bytes.Equal(first, ks[idx]) {
				t.Fatalf("%s: scan(%q) = %q, want %q", name, probe, first, ks[idx])
			}
		}
	}
}

func TestCompactMatches(t *testing.T) {
	for name, ks := range datasets() {
		entries := make([]index.Entry, len(ks))
		for i, k := range ks {
			entries[i] = index.Entry{Key: k, Value: uint64(i)}
		}
		c, err := NewCompact(entries)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range ks {
			if v, ok := c.Get(k); !ok || v != uint64(i) {
				t.Fatalf("%s: compact Get(%q) = %d,%v", name, k, v, ok)
			}
		}
		present := map[string]bool{}
		for _, k := range ks {
			present[string(k)] = true
		}
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 1000; trial++ {
			probe := make([]byte, rng.Intn(20))
			rng.Read(probe)
			if present[string(probe)] {
				continue
			}
			if _, ok := c.Get(probe); ok {
				t.Fatalf("%s: compact false positive", name)
			}
		}
		// Full ordered scan.
		i := 0
		c.Scan(nil, func(k []byte, v uint64) bool {
			if !bytes.Equal(k, ks[i]) {
				t.Fatalf("%s: compact scan[%d] mismatch", name, i)
			}
			i++
			return true
		})
		if i != len(ks) {
			t.Fatalf("%s: compact scan visited %d", name, i)
		}
	}
}

func TestCompactMuchSmaller(t *testing.T) {
	// Fig 2.5: Compact Masstree has the most savings because its B+trees
	// flatten to sorted arrays.
	ks := keys.Dedup(keys.Emails(20000, 13))
	tr := New()
	entries := make([]index.Entry, len(ks))
	for i, k := range ks {
		tr.Insert(k, uint64(i))
		entries[i] = index.Entry{Key: k, Value: uint64(i)}
	}
	c, _ := NewCompact(entries)
	if ratio := float64(c.MemoryUsage()) / float64(tr.MemoryUsage()); ratio > 0.5 {
		t.Fatalf("compact masstree ratio %.2f, want <= 0.5", ratio)
	}
}

func TestKeybagToLayerPromotion(t *testing.T) {
	tr := New()
	// Two keys sharing two full slices force two layer promotions.
	a := []byte("0123456789abcdefSUFFIX-A")
	b := []byte("0123456789abcdefSUFFIX-B")
	tr.Insert(a, 1)
	if numLayers(tr) != 1 {
		t.Fatalf("layers = %d before conflict", numLayers(tr))
	}
	tr.Insert(b, 2)
	if numLayers(tr) < 3 {
		t.Fatalf("layers = %d after conflict, want >= 3", numLayers(tr))
	}
	if v, ok := tr.Get(a); !ok || v != 1 {
		t.Fatal("key a lost after promotion")
	}
	if v, ok := tr.Get(b); !ok || v != 2 {
		t.Fatal("key b lost after promotion")
	}
}

// numLayers counts t's trie layers (B+trees).
func numLayers(t *Tree) int {
	n := 0
	var walk func(l *layer)
	walk = func(l *layer) {
		n++
		l.tree.Scan(nil, func(_ []byte, i uint64) bool {
			if r := &t.records[i]; r.kind == recLayer {
				walk(r.layer)
			}
			return true
		})
	}
	walk(t.root)
	return n
}

func BenchmarkGetEmail(b *testing.B) {
	ks := keys.Dedup(keys.Emails(100000, 1))
	tr := New()
	for i, k := range ks {
		tr.Insert(k, uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(ks[i%len(ks)])
	}
}
