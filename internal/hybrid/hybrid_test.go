package hybrid

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mets/internal/btree"
	"mets/internal/keys"
)

func smallCfg() Config {
	// Small thresholds so tests exercise many merges.
	return Config{MergeRatio: 10, MinDynamic: 256, BloomBitsPerKey: 10}
}

// allVariants is the table every cross-variant test drives: the five static
// stages of Chapter 5, each under both memtables — the factory-made thesis
// structure behind its lock ("<name>") and the concurrent skip list
// ("<name>/epoch").
func allVariants(cfg Config) map[string]*Index {
	out := make(map[string]*Index)
	for _, epoch := range []bool{false, true} {
		cfg, suffix := cfg, ""
		if cfg.EpochReads = epoch; epoch {
			suffix = "/epoch"
		}
		for name, ctor := range variantCtors {
			out[name+suffix] = ctor(cfg)
		}
	}
	return out
}

// variantCtors are the six hybrid.New* constructors, for tests that must
// build their indexes one at a time (a journal directory has one owner).
var variantCtors = map[string]func(Config) *Index{
	"btree":      NewBTree,
	"fst":        NewFST,
	"compressed": func(cfg Config) *Index { return NewCompressedBTree(cfg, 0) },
	"art":        NewART,
	"skiplist":   NewSkipList,
	"masstree":   NewMasstree,
}

func TestInsertGetAcrossMerges(t *testing.T) {
	ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(20000, 1)))
	for name, h := range allVariants(smallCfg()) {
		perm := rand.New(rand.NewSource(2)).Perm(len(ks))
		for _, i := range perm {
			if !h.Insert(ks[i], uint64(i)) {
				t.Fatalf("%s: insert failed", name)
			}
		}
		if merges, _, _ := h.MergeStats(); merges == 0 {
			t.Fatalf("%s: expected merges to trigger", name)
		}
		if h.Len() != len(ks) {
			t.Fatalf("%s: Len = %d, want %d", name, h.Len(), len(ks))
		}
		for i, k := range ks {
			if v, ok := h.Get(k); !ok || v != uint64(i) {
				t.Fatalf("%s: Get(%x) = %d,%v want %d", name, k, v, ok, i)
			}
		}
		if _, ok := h.Get(keys.Uint64(0)); ok {
			t.Fatalf("%s: absent key found", name)
		}
		if h.Insert(ks[0], 9) {
			t.Fatalf("%s: duplicate insert accepted", name)
		}
	}
}

func TestUpdateShadowsStatic(t *testing.T) {
	ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(5000, 3)))
	h := NewBTree(smallCfg())
	for i, k := range ks {
		h.Insert(k, uint64(i))
	}
	h.Merge() // force everything into the static stage
	for i, k := range ks {
		if i%2 == 0 && !h.Update(k, uint64(i+777777)) {
			t.Fatal("update failed")
		}
	}
	for i, k := range ks {
		want := uint64(i)
		if i%2 == 0 {
			want = uint64(i + 777777)
		}
		if v, ok := h.Get(k); !ok || v != want {
			t.Fatalf("Get(%x) = %d, want %d", k, v, want)
		}
	}
	// A merge must preserve the shadowed values and drop duplicates.
	h.Merge()
	if h.StaticLen() != len(ks) {
		t.Fatalf("static holds %d entries after merge, want %d", h.StaticLen(), len(ks))
	}
	for i, k := range ks {
		want := uint64(i)
		if i%2 == 0 {
			want = uint64(i + 777777)
		}
		if v, ok := h.Get(k); !ok || v != want {
			t.Fatalf("after merge Get(%x) = %d, want %d", k, v, want)
		}
	}
}

func TestDeleteWithTombstones(t *testing.T) {
	ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(5000, 5)))
	h := NewBTree(smallCfg())
	for i, k := range ks {
		h.Insert(k, uint64(i))
	}
	h.Merge()
	for i, k := range ks {
		if i%3 == 0 && !h.Delete(k) {
			t.Fatal("delete failed")
		}
	}
	for i, k := range ks {
		_, ok := h.Get(k)
		if i%3 == 0 && ok {
			t.Fatalf("tombstoned key %x visible", k)
		}
		if i%3 != 0 && !ok {
			t.Fatalf("live key %x lost", k)
		}
	}
	if h.Delete(ks[0]) {
		t.Fatal("double delete succeeded")
	}
	h.Merge()
	want := len(ks) - (len(ks)+2)/3
	if h.Len() != want {
		t.Fatalf("Len after GC merge = %d, want %d", h.Len(), want)
	}
	// Deleted keys stay gone; reinsert works.
	if _, ok := h.Get(ks[0]); ok {
		t.Fatal("deleted key resurrected by merge")
	}
	if !h.Insert(ks[0], 12345) {
		t.Fatal("reinsert after delete failed")
	}
	if v, _ := h.Get(ks[0]); v != 12345 {
		t.Fatal("reinserted value wrong")
	}
}

func TestScanMergesStages(t *testing.T) {
	ks := keys.Dedup(keys.Emails(6000, 7))
	h := NewBTree(Config{MergeRatio: 10, MinDynamic: 1 << 30}) // never auto-merge
	// Half into static, half dynamic.
	for i, k := range ks {
		if i%2 == 0 {
			h.Insert(k, uint64(i))
		}
	}
	h.Merge()
	for i, k := range ks {
		if i%2 == 1 {
			h.Insert(k, uint64(i))
		}
	}
	// Shadow one static key and tombstone another.
	h.Update(ks[0], 999)
	h.Delete(ks[2])
	var got []string
	h.Scan(nil, func(k []byte, v uint64) bool {
		got = append(got, string(k))
		return true
	})
	var want []string
	for i, k := range ks {
		if i == 2 {
			continue
		}
		want = append(want, string(k))
	}
	if len(got) != len(want) {
		t.Fatalf("scan yielded %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("scan[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if v, _ := h.Get(ks[0]); v != 999 {
		t.Fatal("shadowed value wrong")
	}
	// Bounded scan from a midpoint.
	mid := ks[len(ks)/2]
	n := 0
	h.Scan(mid, func(k []byte, v uint64) bool {
		if keys.Compare(k, mid) < 0 {
			t.Fatal("scan emitted key below start")
		}
		n++
		return n < 50
	})
	if n != 50 {
		t.Fatalf("bounded scan visited %d", n)
	}
}

func TestMergeRatioControlsFrequency(t *testing.T) {
	ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(30000, 9)))
	counts := map[int]int{}
	for _, ratio := range []int{2, 10, 50} {
		h := NewBTree(Config{MergeRatio: ratio, MinDynamic: 256})
		for i, k := range ks {
			h.Insert(k, uint64(i))
		}
		counts[ratio], _, _ = h.MergeStats()
	}
	if !(counts[2] <= counts[10] && counts[10] <= counts[50]) {
		t.Fatalf("merge counts not monotone in ratio: %v", counts)
	}
	fmt.Printf("merges by ratio: %v\n", counts)
}

func TestHybridSavesMemory(t *testing.T) {
	ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(50000, 11)))
	h := NewBTree(smallCfg())
	plain := btree.New()
	for i, k := range ks {
		h.Insert(k, uint64(i))
		plain.Insert(k, uint64(i))
	}
	ratio := float64(h.MemoryUsage()) / float64(plain.MemoryUsage())
	if ratio > 0.75 {
		t.Fatalf("hybrid/original memory ratio %.2f, want <= 0.75 (paper: 30-70%% savings)", ratio)
	}
	fmt.Printf("hybrid B+tree memory ratio vs original: %.2f\n", ratio)
}

func TestBloomAblation(t *testing.T) {
	ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(20000, 13)))
	with := NewBTree(smallCfg())
	withoutCfg := smallCfg()
	withoutCfg.DisableBloom = true
	without := NewBTree(withoutCfg)
	for i, k := range ks {
		with.Insert(k, uint64(i))
		without.Insert(k, uint64(i))
	}
	for i, k := range ks {
		v1, ok1 := with.Get(k)
		v2, ok2 := without.Get(k)
		if !ok1 || !ok2 || v1 != v2 || v1 != uint64(i) {
			t.Fatal("bloom ablation changes results")
		}
	}
}

// startMerge seals h's memtable into the frozen stage and starts its
// background rebuild, as a BackgroundMerge trigger does; it reports whether
// a merge started (none does while one runs, or with nothing to merge).
func startMerge(h *Index) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.merging {
		return false
	}
	h.sealLocked(h.gen.Load())
	return h.merging
}

func TestSecondaryIndex(t *testing.T) {
	s := NewSecondary(Config{MergeRatio: 10, MinDynamic: 512})
	numKeys := 2000
	for i := 0; i < numKeys; i++ {
		k := keys.Uint64(uint64(i))
		for j := 0; j < 10; j++ {
			s.Insert(k, uint64(i*10+j))
		}
	}
	if s.Len() != numKeys*10 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.static == nil {
		t.Fatal("expected merges")
	}
	for i := 0; i < numKeys; i++ {
		vs := s.GetAll(keys.Uint64(uint64(i)))
		if len(vs) != 10 {
			t.Fatalf("key %d has %d values, want 10", i, len(vs))
		}
		sort.Slice(vs, func(a, b int) bool { return vs[a] < vs[b] })
		for j, v := range vs {
			if v != uint64(i*10+j) {
				t.Fatalf("key %d values wrong: %v", i, vs)
			}
		}
	}
	// Ordered scan over pairs.
	prev := []byte(nil)
	n := s.Scan(nil, func(k []byte, v uint64) bool {
		if prev != nil && keys.Compare(prev, k) > 0 {
			t.Fatal("secondary scan out of order")
		}
		prev = append(prev[:0], k...)
		return true
	})
	if n != numKeys*10 {
		t.Fatalf("scan visited %d pairs", n)
	}
}

func TestMergeTimeGrowsLinearly(t *testing.T) {
	// Fig 5.8 sanity: merge time grows roughly linearly with static size.
	h := NewBTree(Config{MergeRatio: 10, MinDynamic: 1 << 30})
	rng := rand.New(rand.NewSource(15))
	var sizes []int
	var times []float64
	for round := 0; round < 6; round++ {
		n := 20000
		for i := 0; i < n; i++ {
			h.Insert(keys.Uint64(rng.Uint64()), 1)
		}
		h.Merge()
		sizes = append(sizes, h.StaticLen())
		_, last, _ := h.MergeStats()
		times = append(times, float64(last.Microseconds()))
	}
	// Later merges handle more data; the last must not be faster than the
	// first by more than noise.
	if times[len(times)-1] < times[0]*0.5 {
		t.Fatalf("merge times do not grow with size: %v for sizes %v", times, sizes)
	}
}

func TestScanAfterManyMergesMatchesOracle(t *testing.T) {
	for name, h := range allVariants(smallCfg()) {
		ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(8000, 17)))
		for i, k := range ks {
			h.Insert(k, uint64(i))
		}
		i := 0
		h.Scan(nil, func(k []byte, v uint64) bool {
			if !bytes.Equal(k, ks[i]) {
				t.Fatalf("%s: scan[%d] mismatch", name, i)
			}
			i++
			return true
		})
		if i != len(ks) {
			t.Fatalf("%s: scan visited %d of %d", name, i, len(ks))
		}
	}
}
