package art

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
		"ints":    keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(5000, 1))),
		"monoinc": keys.Dedup(keys.EncodeUint64s(keys.MonoIncUint64(5000, 1))),
		"emails":  keys.Dedup(keys.Emails(5000, 2)),
		"nested": keys.Dedup([][]byte{
			[]byte("a"), []byte("ab"), []byte("abc"), []byte("abcdefghijklm"),
			[]byte("abd"), []byte("b"), {0x00}, {0x00, 0x00}, {0xFF},
			[]byte("prefix"), []byte("prefixed"), []byte("prefixes"),
		}),
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
			t.Fatalf("%s: Len = %d, want %d", name, tr.Len(), len(ks))
		}
		for i, k := range ks {
			if v, ok := tr.Get(k); !ok || v != uint64(i) {
				t.Fatalf("%s: Get(%q) = %d,%v want %d", name, k, v, ok, i)
			}
		}
		// Duplicate inserts fail.
		if tr.Insert(ks[0], 99) {
			t.Fatalf("%s: duplicate insert succeeded", name)
		}
		// Absent lookups fail.
		if _, ok := tr.Get([]byte("\x01nonexistent-key")); ok {
			t.Fatalf("%s: absent key found", name)
		}
	}
}

func TestPrefixKeysCoexist(t *testing.T) {
	tr := New()
	ks := [][]byte{[]byte("a"), []byte("ab"), []byte("abc"), []byte("abcd"), []byte("abce")}
	for i, k := range ks {
		if !tr.Insert(k, uint64(i)) {
			t.Fatalf("insert %q failed", k)
		}
	}
	for i, k := range ks {
		if v, ok := tr.Get(k); !ok || v != uint64(i) {
			t.Fatalf("Get(%q) = %d,%v", k, v, ok)
		}
	}
	if _, ok := tr.Get([]byte("abcf")); ok {
		t.Fatal("absent sibling found")
	}
	if _, ok := tr.Get([]byte("abcde")); ok {
		t.Fatal("absent extension found")
	}
}

func TestUpdateDeleteDynamic(t *testing.T) {
	ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(3000, 5)))
	tr := New()
	for i, k := range ks {
		tr.Insert(k, uint64(i))
	}
	for i, k := range ks {
		if i%2 == 0 && !tr.Update(k, uint64(i+1000000)) {
			t.Fatalf("update failed")
		}
	}
	for i, k := range ks {
		if i%3 == 0 && !tr.Delete(k) {
			t.Fatalf("delete failed")
		}
	}
	if tr.Delete([]byte("missing")) || tr.Update([]byte("missing"), 0) {
		t.Fatal("ops on absent key should fail")
	}
	for i, k := range ks {
		v, ok := tr.Get(k)
		switch {
		case i%3 == 0:
			if ok {
				t.Fatalf("deleted key %x present", k)
			}
		case i%2 == 0:
			if !ok || v != uint64(i+1000000) {
				t.Fatalf("updated key wrong: %d %v", v, ok)
			}
		default:
			if !ok || v != uint64(i) {
				t.Fatalf("untouched key wrong")
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
			t.Fatalf("%s: snapshot has %d entries, want %d", name, len(got), len(ks))
		}
		for i := range got {
			if !bytes.Equal(got[i].Key, ks[i]) {
				t.Fatalf("%s: scan[%d] = %q, want %q", name, i, got[i].Key, ks[i])
			}
		}
		// Lower-bound scans at random probes.
		rng := rand.New(rand.NewSource(9))
		for trial := 0; trial < 200; trial++ {
			probe := ks[rng.Intn(len(ks))]
			if rng.Intn(2) == 0 {
				probe = append(append([]byte(nil), probe...), byte(rng.Intn(256)))
			}
			idx := sort.Search(len(ks), func(i int) bool { return keys.Compare(ks[i], probe) >= 0 })
			var first []byte
			tr.Scan(probe, func(k []byte, v uint64) bool { first = k; return false })
			if idx == len(ks) {
				if first != nil {
					t.Fatalf("%s: scan past end returned %q", name, first)
				}
			} else if !bytes.Equal(first, ks[idx]) {
				t.Fatalf("%s: scan(%q) starts at %q, want %q", name, probe, first, ks[idx])
			}
		}
	}
}

func TestNodeGrowth(t *testing.T) {
	tr := New()
	// 256 children under one node forces growth 4 -> 16 -> 48 -> 256.
	for i := 0; i < 256; i++ {
		tr.Insert([]byte{byte(i), 'x'}, uint64(i))
	}
	n4, n16, n48, n256 := tr.n4, tr.n16, tr.n48, tr.n256
	if n256 != 1 || n4 != 0 || n16 != 0 || n48 != 0 {
		t.Fatalf("node counts after growth: %d %d %d %d", n4, n16, n48, n256)
	}
	for i := 0; i < 256; i++ {
		if v, ok := tr.Get([]byte{byte(i), 'x'}); !ok || v != uint64(i) {
			t.Fatalf("key %d lost after growth", i)
		}
	}
}

func TestCompactMatchesDynamic(t *testing.T) {
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
		rng := rand.New(rand.NewSource(11))
		present := map[string]bool{}
		for _, k := range ks {
			present[string(k)] = true
		}
		for trial := 0; trial < 1000; trial++ {
			probe := make([]byte, 1+rng.Intn(10))
			rng.Read(probe)
			if present[string(probe)] {
				continue
			}
			if _, ok := c.Get(probe); ok {
				t.Fatalf("%s: compact false positive on %x", name, probe)
			}
		}
	}
}

func TestCompactSmaller(t *testing.T) {
	ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(50000, 13)))
	tr := New()
	entries := make([]index.Entry, len(ks))
	for i, k := range ks {
		tr.Insert(k, uint64(i))
		entries[i] = index.Entry{Key: k, Value: uint64(i)}
	}
	c, _ := NewCompact(entries)
	ratio := float64(c.MemoryUsage()) / float64(tr.MemoryUsage())
	if ratio > 0.8 {
		t.Fatalf("compact ART ratio %.2f, expected around 0.5 for random ints", ratio)
	}
}

func TestCompactScan(t *testing.T) {
	ks := keys.Dedup(keys.Emails(3000, 17))
	entries := make([]index.Entry, len(ks))
	for i, k := range ks {
		entries[i] = index.Entry{Key: k, Value: uint64(i)}
	}
	c, _ := NewCompact(entries)
	i := 0
	c.Scan(nil, func(k []byte, v uint64) bool {
		if !bytes.Equal(k, ks[i]) || v != uint64(i) {
			t.Fatalf("compact scan[%d] mismatch", i)
		}
		i++
		return true
	})
	if i != len(ks) {
		t.Fatalf("compact scan visited %d", i)
	}
}

func BenchmarkGetRandInt(b *testing.B) {
	ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(200000, 1)))
	tr := New()
	for i, k := range ks {
		tr.Insert(k, uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(ks[i%len(ks)])
	}
}

func BenchmarkCompactGetRandInt(b *testing.B) {
	ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(200000, 1)))
	entries := make([]index.Entry, len(ks))
	for i, k := range ks {
		entries[i] = index.Entry{Key: k, Value: uint64(i)}
	}
	c, _ := NewCompact(entries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(ks[i%len(ks)])
	}
}

func TestNode48DeleteInsertHoles(t *testing.T) {
	// Regression: deleting from a Node48 leaves a hole in the child array;
	// a subsequent insert must not clobber a live slot.
	tr := New()
	for i := 0; i < 40; i++ {
		tr.Insert([]byte{byte(i), 'x'}, uint64(i))
	}
	// Delete a few from the middle, then add new labels.
	for i := 5; i < 15; i++ {
		if !tr.Delete([]byte{byte(i), 'x'}) {
			t.Fatalf("delete %d failed", i)
		}
	}
	for i := 100; i < 110; i++ {
		tr.Insert([]byte{byte(i), 'x'}, uint64(i))
	}
	for i := 0; i < 40; i++ {
		v, ok := tr.Get([]byte{byte(i), 'x'})
		if i >= 5 && i < 15 {
			if ok {
				t.Fatalf("deleted key %d present", i)
			}
			continue
		}
		if !ok || v != uint64(i) {
			t.Fatalf("key %d lost or wrong after hole reuse: %d %v", i, v, ok)
		}
	}
	for i := 100; i < 110; i++ {
		if v, ok := tr.Get([]byte{byte(i), 'x'}); !ok || v != uint64(i) {
			t.Fatalf("new key %d wrong", i)
		}
	}
}

func TestRandomOpsAgainstMap(t *testing.T) {
	tr := New()
	oracle := make(map[string]uint64)
	rng := rand.New(rand.NewSource(42))
	keySpace := make([][]byte, 500)
	for i := range keySpace {
		keySpace[i] = keys.Uint64(uint64(rng.Intn(800)) * 2654435761)
	}
	for step := 0; step < 50000; step++ {
		k := keySpace[rng.Intn(len(keySpace))]
		switch rng.Intn(6) {
		case 0, 1, 2:
			_, exists := oracle[string(k)]
			if tr.Insert(k, uint64(step)) == exists {
				t.Fatalf("step %d: insert result mismatch", step)
			}
			if !exists {
				oracle[string(k)] = uint64(step)
			}
		case 3:
			_, exists := oracle[string(k)]
			if tr.Delete(k) != exists {
				t.Fatalf("step %d: delete result mismatch", step)
			}
			delete(oracle, string(k))
		default:
			want, exists := oracle[string(k)]
			got, ok := tr.Get(k)
			if ok != exists || (ok && got != want) {
				t.Fatalf("step %d: get mismatch", step)
			}
		}
	}
	if tr.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle %d", tr.Len(), len(oracle))
	}
}
