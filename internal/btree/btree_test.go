package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mets/internal/index"
	"mets/internal/keys"
)

func intEntries(n int, seed int64) []index.Entry {
	ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(n, seed)))
	entries := make([]index.Entry, len(ks))
	for i, k := range ks {
		entries[i] = index.Entry{Key: k, Value: uint64(i)}
	}
	return entries
}

func TestInsertGet(t *testing.T) {
	entries := intEntries(10000, 1)
	tr := New()
	perm := rand.New(rand.NewSource(2)).Perm(len(entries))
	for _, i := range perm {
		if !tr.Insert(entries[i].Key, entries[i].Value) {
			t.Fatalf("insert %x failed", entries[i].Key)
		}
	}
	if tr.Len() != len(entries) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(entries))
	}
	for _, e := range entries {
		v, ok := tr.Get(e.Key)
		if !ok || v != e.Value {
			t.Fatalf("Get(%x) = %d,%v want %d", e.Key, v, ok, e.Value)
		}
	}
	if _, ok := tr.Get(keys.Uint64(0)); ok {
		t.Fatal("absent key found")
	}
}

func TestDuplicateInsertRejected(t *testing.T) {
	tr := New()
	if !tr.Insert([]byte("k"), 1) || tr.Insert([]byte("k"), 2) {
		t.Fatal("duplicate insert should fail in unique mode")
	}
	if v, _ := tr.Get([]byte("k")); v != 1 {
		t.Fatal("value clobbered by rejected insert")
	}
}

func TestMultiMode(t *testing.T) {
	tr := NewMulti()
	for i := 0; i < 10; i++ {
		if !tr.Insert([]byte("dup"), uint64(i)) {
			t.Fatal("multimap insert failed")
		}
	}
	tr.Insert([]byte("a"), 100)
	tr.Insert([]byte("z"), 200)
	vs := tr.GetAll([]byte("dup"))
	if len(vs) != 10 {
		t.Fatalf("GetAll returned %d values, want 10", len(vs))
	}
	if tr.Len() != 12 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestUpdateDelete(t *testing.T) {
	entries := intEntries(5000, 3)
	tr := New()
	for _, e := range entries {
		tr.Insert(e.Key, e.Value)
	}
	for i, e := range entries {
		if i%2 == 0 {
			if !tr.Update(e.Key, e.Value+1000000) {
				t.Fatalf("update %x failed", e.Key)
			}
		}
	}
	for i, e := range entries {
		want := e.Value
		if i%2 == 0 {
			want += 1000000
		}
		if v, ok := tr.Get(e.Key); !ok || v != want {
			t.Fatalf("after update Get(%x) = %d, want %d", e.Key, v, want)
		}
	}
	deleted := 0
	for i, e := range entries {
		if i%3 == 0 {
			if !tr.Delete(e.Key) {
				t.Fatalf("delete %x failed", e.Key)
			}
			deleted++
		}
	}
	if tr.Len() != len(entries)-deleted {
		t.Fatalf("Len after deletes = %d, want %d", tr.Len(), len(entries)-deleted)
	}
	for i, e := range entries {
		_, ok := tr.Get(e.Key)
		if i%3 == 0 && ok {
			t.Fatalf("deleted key %x still present", e.Key)
		}
		if i%3 != 0 && !ok {
			t.Fatalf("surviving key %x lost", e.Key)
		}
	}
	if tr.Delete([]byte("nonexistent")) {
		t.Fatal("deleting absent key should fail")
	}
	if tr.Update([]byte("nonexistent"), 1) {
		t.Fatal("updating absent key should fail")
	}
}

func TestScanOrder(t *testing.T) {
	entries := intEntries(3000, 5)
	tr := New()
	perm := rand.New(rand.NewSource(6)).Perm(len(entries))
	for _, i := range perm {
		tr.Insert(entries[i].Key, entries[i].Value)
	}
	got := index.Snapshot(tr)
	if len(got) != len(entries) {
		t.Fatalf("snapshot %d entries, want %d", len(got), len(entries))
	}
	for i := range got {
		if !bytes.Equal(got[i].Key, entries[i].Key) || got[i].Value != entries[i].Value {
			t.Fatalf("scan order broken at %d", i)
		}
	}
	// Scan from a midpoint.
	start := entries[len(entries)/2].Key
	n := 0
	tr.Scan(start, func(k []byte, v uint64) bool {
		if keys.Compare(k, start) < 0 {
			t.Fatalf("scan emitted key below start")
		}
		n++
		return n < 100
	})
	if n != 100 {
		t.Fatalf("bounded scan visited %d", n)
	}
}

func TestCompactMatchesDynamic(t *testing.T) {
	entries := intEntries(20000, 7)
	c, err := NewCompact(entries)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != len(entries) {
		t.Fatalf("Len = %d", c.Len())
	}
	for _, e := range entries {
		if v, ok := c.Get(e.Key); !ok || v != e.Value {
			t.Fatalf("compact Get(%x) = %d,%v", e.Key, v, ok)
		}
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 3000; i++ {
		probe := keys.Uint64(rng.Uint64())
		idx := sort.Search(len(entries), func(i int) bool { return keys.Compare(entries[i].Key, probe) >= 0 })
		_, ok := c.Get(probe)
		wantOK := idx < len(entries) && bytes.Equal(entries[idx].Key, probe)
		if ok != wantOK {
			t.Fatalf("compact Get(%x) presence mismatch", probe)
		}
		// lower-bound scan agreement
		var first []byte
		c.Scan(probe, func(k []byte, v uint64) bool { first = k; return false })
		if idx < len(entries) {
			if !bytes.Equal(first, entries[idx].Key) {
				t.Fatalf("compact Scan(%x) starts at %x, want %x", probe, first, entries[idx].Key)
			}
		} else if first != nil {
			t.Fatalf("compact Scan past end returned %x", first)
		}
	}
}

func TestCompactSmallerThanDynamic(t *testing.T) {
	entries := intEntries(20000, 9)
	tr := New()
	for _, e := range entries {
		tr.Insert(e.Key, e.Value)
	}
	c, _ := NewCompact(entries)
	ratio := float64(c.MemoryUsage()) / float64(tr.MemoryUsage())
	if ratio > 0.7 {
		t.Fatalf("compact/original memory ratio %.2f, want <= 0.7 (paper: ~30-70%% savings)", ratio)
	}
	fmt.Printf("B+tree compact/original memory ratio: %.2f\n", ratio)
}

func TestCompactMulti(t *testing.T) {
	var entries []index.Entry
	for i := 0; i < 1000; i++ {
		k := keys.Uint64(uint64(i))
		for j := 0; j < 10; j++ {
			entries = append(entries, index.Entry{Key: k, Value: uint64(i*10 + j)})
		}
	}
	c, err := NewCompactMulti(entries)
	if err != nil {
		t.Fatal(err)
	}
	if c.keys.numKeys() != 1000 || c.Len() != 10000 {
		t.Fatalf("NumKeys=%d Len=%d", c.keys.numKeys(), c.Len())
	}
	for i := 0; i < 1000; i++ {
		vs := c.GetAll(keys.Uint64(uint64(i)))
		if len(vs) != 10 || vs[0] != uint64(i*10) {
			t.Fatalf("GetAll(%d) = %v", i, vs)
		}
	}
	if got := c.GetAll(keys.Uint64(5000)); got != nil {
		t.Fatalf("absent key returned %v", got)
	}
	n := 0
	c.Scan(keys.Uint64(990), func(k []byte, v uint64) bool { n++; return true })
	if n != 100 {
		t.Fatalf("tail scan visited %d pairs, want 100", n)
	}
}

func TestCompressedMatchesAndShrinks(t *testing.T) {
	// Mono-inc keys compress well (the Fig 2.5 mono-inc result).
	ks := keys.EncodeUint64s(keys.MonoIncUint64(20000, 0))
	entries := make([]index.Entry, len(ks))
	for i, k := range ks {
		entries[i] = index.Entry{Key: k, Value: uint64(i)}
	}
	c, err := NewCompressed(entries, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(entries); i += 11 {
		if v, ok := c.Get(entries[i].Key); !ok || v != entries[i].Value {
			t.Fatalf("compressed Get(%x) = %d,%v", entries[i].Key, v, ok)
		}
	}
	if _, ok := c.Get(keys.Uint64(1 << 50)); ok {
		t.Fatal("absent key found in compressed tree")
	}
	compact, _ := NewCompact(entries)
	if c.MemoryUsage() >= compact.MemoryUsage() {
		t.Fatalf("compressed (%d) not smaller than compact (%d) on mono-inc keys",
			c.MemoryUsage(), compact.MemoryUsage())
	}
	// Scan must see every entry in order.
	prev := -1
	n := c.Scan(nil, func(k []byte, v uint64) bool {
		if int(v) <= prev {
			t.Fatalf("compressed scan out of order")
		}
		prev = int(v)
		return true
	})
	if n != len(entries) {
		t.Fatalf("compressed scan visited %d, want %d", n, len(entries))
	}
	if c.Decompressions == 0 {
		t.Fatal("expected decompression activity")
	}
}

func TestClockCacheEviction(t *testing.T) {
	cache := newClockCache(4)
	blocks := make([]*decodedBlock, 10)
	for i := range blocks {
		blocks[i] = &decodedBlock{}
		cache.put(i, blocks[i])
	}
	hits := 0
	for i := 0; i < 10; i++ {
		if cache.get(i) != nil {
			hits++
		}
	}
	if hits != 4 {
		t.Fatalf("cache retained %d blocks, capacity 4", hits)
	}
}

func TestEmptyTrees(t *testing.T) {
	tr := New()
	if _, ok := tr.Get([]byte("x")); ok {
		t.Fatal("empty tree Get")
	}
	if tr.Scan(nil, func([]byte, uint64) bool { return true }) != 0 {
		t.Fatal("empty tree Scan")
	}
	c, err := NewCompact(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get([]byte("x")); ok {
		t.Fatal("empty compact Get")
	}
	cc, err := NewCompressed(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cc.Get([]byte("x")); ok {
		t.Fatal("empty compressed Get")
	}
}

func TestStringKeys(t *testing.T) {
	ks := keys.Dedup(keys.Emails(5000, 13))
	tr := New()
	for i, k := range ks {
		tr.Insert(k, uint64(i))
	}
	for i, k := range ks {
		if v, ok := tr.Get(k); !ok || v != uint64(i) {
			t.Fatalf("email Get(%q) failed", k)
		}
	}
}

func BenchmarkInsertRandInt(b *testing.B) {
	tr := New()
	k := make([]byte, 8)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(keys.PutUint64(k, rng.Uint64()), uint64(i))
	}
}

func BenchmarkGetRandInt(b *testing.B) {
	entries := intEntries(200000, 1)
	tr := New()
	for _, e := range entries {
		tr.Insert(e.Key, e.Value)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(entries[i%len(entries)].Key)
	}
}

func BenchmarkCompactGetRandInt(b *testing.B) {
	entries := intEntries(200000, 1)
	c, _ := NewCompact(entries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(entries[i%len(entries)].Key)
	}
}
