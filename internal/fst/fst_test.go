package fst

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"mets/internal/keys"
)

// sortedByteKeys produces sorted unique byte keys from any generator output.
func sortedByteKeys(ks [][]byte) [][]byte {
	return keys.Dedup(ks)
}

// buildExact builds a complete-key trie with values = key index.
func buildExact(t *testing.T, ks [][]byte, cfg Config) *Trie {
	t.Helper()
	cfg.StoreValues = true
	values := make([]uint64, len(ks))
	for i := range values {
		values[i] = uint64(i)
	}
	trie, err := Build(ks, values, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return trie
}

// configs to exercise: pure sparse, pure dense, auto, ratio variants.
func testConfigs() map[string]Config {
	return map[string]Config{
		"auto":       {DenseLevels: -1},
		"all-sparse": {DenseLevels: 0},
		"dense2":     {DenseLevels: 2},
		"all-dense":  {DenseLevels: 1 << 20},
		"linear":     {DenseLevels: -1, LinearLabelSearch: true},
	}
}

func datasets(t *testing.T) map[string][][]byte {
	t.Helper()
	return map[string][][]byte{
		"ints":    sortedByteKeys(keys.EncodeUint64s(keys.RandomUint64(3000, 1))),
		"monoinc": sortedByteKeys(keys.EncodeUint64s(keys.MonoIncUint64(3000, 1<<30))),
		"emails":  sortedByteKeys(keys.Emails(3000, 2)),
		"words":   sortedByteKeys(keys.Words(2000, 3)),
		"nested": sortedByteKeys([][]byte{
			[]byte("a"), []byte("ab"), []byte("abc"), []byte("abcd"),
			[]byte("abd"), []byte("b"), []byte("ba"), []byte("f"),
			[]byte("fa"), []byte("far"), []byte("fas"), []byte("fast"),
			[]byte("fat"), []byte("s"), []byte("top"), []byte("toy"),
			[]byte("trie"), []byte("trip"), []byte("try"),
			{0xFF}, {0xFF, 0xFF}, {0xFE, 0xFF}, {0x00}, {0x00, 0x00, 0x01},
		}),
	}
}

func TestGetAllStoredKeys(t *testing.T) {
	for dsName, ks := range datasets(t) {
		for cfgName, cfg := range testConfigs() {
			trie := buildExact(t, ks, cfg)
			for i, k := range ks {
				v, ok := trie.Get(k)
				if !ok {
					t.Fatalf("%s/%s: Get(%q) missing", dsName, cfgName, k)
				}
				if v != uint64(i) {
					t.Fatalf("%s/%s: Get(%q) = %d, want %d", dsName, cfgName, k, v, i)
				}
			}
		}
	}
}

func TestGetAbsentKeys(t *testing.T) {
	for dsName, ks := range datasets(t) {
		present := make(map[string]bool, len(ks))
		for _, k := range ks {
			present[string(k)] = true
		}
		for cfgName, cfg := range testConfigs() {
			trie := buildExact(t, ks, cfg)
			rng := rand.New(rand.NewSource(9))
			// Random probes.
			for i := 0; i < 2000; i++ {
				probe := make([]byte, 1+rng.Intn(12))
				rng.Read(probe)
				if present[string(probe)] {
					continue
				}
				if _, ok := trie.Get(probe); ok {
					t.Fatalf("%s/%s: Get(%x) false positive on exact trie", dsName, cfgName, probe)
				}
			}
			// Prefixes and extensions of stored keys.
			for i := 0; i < len(ks); i += 7 {
				k := ks[i]
				if len(k) > 1 {
					p := k[:len(k)-1]
					if !present[string(p)] {
						if _, ok := trie.Get(p); ok {
							t.Fatalf("%s/%s: prefix %q of %q falsely present", dsName, cfgName, p, k)
						}
					}
				}
				e := append(append([]byte(nil), k...), 'x')
				if !present[string(e)] {
					if _, ok := trie.Get(e); ok {
						t.Fatalf("%s/%s: extension %q falsely present", dsName, cfgName, e)
					}
				}
			}
		}
	}
}

func TestIteratorFullScan(t *testing.T) {
	for dsName, ks := range datasets(t) {
		for cfgName, cfg := range testConfigs() {
			trie := buildExact(t, ks, cfg)
			it := trie.NewIterator()
			it.First()
			for i, k := range ks {
				if !it.Valid() {
					t.Fatalf("%s/%s: iterator ended early at %d/%d", dsName, cfgName, i, len(ks))
				}
				if !bytes.Equal(it.Key(), k) {
					t.Fatalf("%s/%s: scan[%d] key = %q, want %q", dsName, cfgName, i, it.Key(), k)
				}
				if it.Value() != uint64(i) {
					t.Fatalf("%s/%s: scan[%d] value = %d, want %d", dsName, cfgName, i, it.Value(), i)
				}
				it.Next()
			}
			if it.Valid() {
				t.Fatalf("%s/%s: iterator has extra keys past the end", dsName, cfgName)
			}
		}
	}
}

func TestLowerBound(t *testing.T) {
	for dsName, ks := range datasets(t) {
		for cfgName, cfg := range testConfigs() {
			trie := buildExact(t, ks, cfg)
			rng := rand.New(rand.NewSource(5))
			probes := make([][]byte, 0, 600)
			for i := 0; i < 200; i++ {
				p := make([]byte, rng.Intn(12))
				rng.Read(p)
				probes = append(probes, p)
			}
			for i := 0; i < len(ks); i += 3 {
				probes = append(probes, ks[i])                                        // exact
				probes = append(probes, append([]byte(nil), ks[i][:len(ks[i])/2]...)) // prefix
				probes = append(probes, append(append([]byte(nil), ks[i]...), 0x01))  // extension
			}
			for _, p := range probes {
				// Oracle: first stored key >= p.
				idx := sort.Search(len(ks), func(i int) bool { return keys.Compare(ks[i], p) >= 0 })
				it := trie.LowerBound(p)
				if idx == len(ks) {
					if it.Valid() {
						t.Fatalf("%s/%s: LowerBound(%x) = %q, want invalid", dsName, cfgName, p, it.Key())
					}
					continue
				}
				if !it.Valid() {
					t.Fatalf("%s/%s: LowerBound(%x) invalid, want %q", dsName, cfgName, p, ks[idx])
				}
				if !bytes.Equal(it.Key(), ks[idx]) {
					t.Fatalf("%s/%s: LowerBound(%x) = %q, want %q", dsName, cfgName, p, it.Key(), ks[idx])
				}
				if it.Value() != uint64(idx) {
					t.Fatalf("%s/%s: LowerBound(%x) value = %d, want %d", dsName, cfgName, p, it.Value(), idx)
				}
			}
		}
	}
}

func TestLowerBoundThenScan(t *testing.T) {
	ks := sortedByteKeys(keys.Emails(2000, 11))
	trie := buildExact(t, ks, Config{DenseLevels: -1})
	for start := 0; start < len(ks); start += 97 {
		it := trie.LowerBound(ks[start])
		for i := start; i < len(ks) && i < start+120; i++ {
			if !it.Valid() || !bytes.Equal(it.Key(), ks[i]) {
				t.Fatalf("scan from %d broke at %d", start, i)
			}
			it.Next()
		}
	}
}

func TestCountLessAgainstOracle(t *testing.T) {
	for dsName, ks := range datasets(t) {
		for cfgName, cfg := range testConfigs() {
			if cfgName == "linear" {
				continue
			}
			trie := buildExact(t, ks, cfg)
			rng := rand.New(rand.NewSource(17))
			var probes [][]byte
			for i := 0; i < 300; i++ {
				p := make([]byte, rng.Intn(12))
				rng.Read(p)
				probes = append(probes, p)
			}
			for i := 0; i < len(ks); i += 5 {
				probes = append(probes, ks[i])
				probes = append(probes, append(append([]byte(nil), ks[i]...), 7))
			}
			for _, p := range probes {
				want := sort.Search(len(ks), func(i int) bool { return keys.Compare(ks[i], p) >= 0 })
				if got := trie.CountLess(p); got != want {
					t.Fatalf("%s/%s: CountLess(%x) = %d, want %d", dsName, cfgName, p, got, want)
				}
			}
		}
	}
}

func TestCountRange(t *testing.T) {
	ks := sortedByteKeys(keys.EncodeUint64s(keys.RandomUint64(2000, 21)))
	trie := buildExact(t, ks, Config{DenseLevels: -1})
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 500; i++ {
		a, b := rng.Intn(len(ks)), rng.Intn(len(ks))
		if a > b {
			a, b = b, a
		}
		lo, hi := ks[a], ks[b]
		want := b - a + 1 // inclusive range of stored keys
		if got := trie.Count(lo, hi); got != want {
			t.Fatalf("Count(%x, %x) = %d, want %d", lo, hi, got, want)
		}
	}
}

func TestTruncatedTrieStoresPrefixes(t *testing.T) {
	ks := sortedByteKeys(keys.Emails(3000, 31))
	values := make([]uint64, len(ks))
	trie, err := Build(ks, values, Config{Truncate: true, StoreValues: true, DenseLevels: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Every stored key must still be found (possibly via its prefix).
	for _, k := range ks {
		if _, _, _, ok := trie.lookup(k); !ok {
			t.Fatalf("truncated trie misses stored key %q", k)
		}
	}
	// A truncated trie must be smaller than the complete one.
	full := buildExact(t, ks, Config{DenseLevels: -1})
	if trie.MemoryUsage() >= full.MemoryUsage() {
		t.Fatalf("truncated trie (%d B) not smaller than complete trie (%d B)",
			trie.MemoryUsage(), full.MemoryUsage())
	}
	// The leaves BuildLeaves reports must reconstruct the original keys:
	// stored path + suffix, the j-th leaf in key order being key j.
	type leafOf struct{ key, suffixStart int }
	leaves := make(map[int]leafOf, len(ks))
	refs, err := BuildLeaves(ks, Config{Truncate: true, DenseLevels: -1}, func(slot, key, suffixStart int) {
		leaves[slot] = leafOf{key, suffixStart}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) != len(ks) {
		t.Fatalf("%d leaves reported for %d keys", len(leaves), len(ks))
	}
	it := refs.NewIterator()
	j := 0
	for it.First(); it.Valid(); it.Next() {
		ref := leaves[it.Slot()]
		orig := ks[ref.key]
		path := it.Key()
		if ref.key != j {
			t.Fatalf("leaf %d in key order reported as key %d", j, ref.key)
		}
		if !bytes.HasPrefix(orig, path) {
			t.Fatalf("leaf path %q is not a prefix of original %q", path, orig)
		}
		if ref.suffixStart != len(path) {
			t.Fatalf("suffix start %d != path length %d for %q", ref.suffixStart, len(path), orig)
		}
		j++
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(nil, nil, DefaultConfig()); err == nil {
		t.Fatal("empty key set should fail")
	}
	dup := [][]byte{[]byte("a"), []byte("a")}
	if _, err := Build(dup, []uint64{1, 2}, DefaultConfig()); err == nil {
		t.Fatal("duplicate keys should fail")
	}
	unsorted := [][]byte{[]byte("b"), []byte("a")}
	if _, err := Build(unsorted, []uint64{1, 2}, DefaultConfig()); err == nil {
		t.Fatal("unsorted keys should fail")
	}
	if _, err := Build([][]byte{[]byte("a")}, nil, DefaultConfig()); err == nil {
		t.Fatal("missing values should fail")
	}
}

// TestParallelBuildSortError checks that the build's sortedness check finds a
// duplicate, a swap and a key out of order at the tail among many keys.
func TestParallelBuildSortError(t *testing.T) {
	ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(20000, 3)))
	values := make([]uint64, len(ks))
	for _, corrupt := range []func([][]byte){
		func(ks [][]byte) { ks[12000] = ks[11999] },
		func(ks [][]byte) { ks[500], ks[501] = ks[501], ks[500] },
		func(ks [][]byte) { ks[len(ks)-1] = []byte{0, 0, 0, 0, 0} },
	} {
		bad := append([][]byte(nil), ks...)
		corrupt(bad)
		if _, err := Build(bad, values, DefaultConfig()); err == nil {
			t.Fatal("build accepted unsorted keys")
		}
	}
}

func TestSingleKey(t *testing.T) {
	for _, key := range [][]byte{[]byte("x"), []byte("hello"), {}, {0xFF, 0xFF}} {
		trie, err := Build([][]byte{key}, []uint64{42}, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := trie.Get(key); !ok || v != 42 {
			t.Fatalf("single key %x not found", key)
		}
		it := trie.NewIterator()
		it.First()
		if !it.Valid() || !bytes.Equal(it.Key(), key) {
			t.Fatalf("iterator broken for single key %x", key)
		}
	}
}

func TestEmptyKeyAmongOthers(t *testing.T) {
	ks := [][]byte{{}, []byte("a"), []byte("ab")}
	trie := buildExact(t, ks, Config{DenseLevels: -1})
	if v, ok := trie.Get([]byte{}); !ok || v != 0 {
		t.Fatalf("empty key lookup failed: %v %v", v, ok)
	}
	it := trie.NewIterator()
	it.First()
	if !it.Valid() || len(it.Key()) != 0 {
		t.Fatalf("first key should be empty, got %q", it.Key())
	}
}

func TestDenseHeightMonotonicMemory(t *testing.T) {
	// Fig 3.7 sanity: more dense levels => no slower point queries on ints,
	// and the structure remains correct at every cutoff.
	ks := sortedByteKeys(keys.EncodeUint64s(keys.RandomUint64(5000, 77)))
	for cut := 0; cut <= 8; cut++ {
		trie := buildExact(t, ks, Config{DenseLevels: cut})
		if trie.DenseHeight() > trie.Height() {
			t.Fatalf("dense height %d exceeds height %d", trie.DenseHeight(), trie.Height())
		}
		for i := 0; i < len(ks); i += 13 {
			if v, ok := trie.Get(ks[i]); !ok || v != uint64(i) {
				t.Fatalf("cut=%d: Get(%x) wrong", cut, ks[i])
			}
		}
	}
}

func TestTenBitsPerNodeSparse(t *testing.T) {
	// §3.5: LOUDS-Sparse uses 10 bits per node-entry plus rank/select
	// overhead. Check the all-sparse encoding stays within ~12 bits/entry
	// excluding values.
	ks := sortedByteKeys(keys.EncodeUint64s(keys.RandomUint64(20000, 5)))
	values := make([]uint64, len(ks))
	trie, err := Build(ks, values, Config{DenseLevels: 0, StoreValues: false})
	if err != nil {
		t.Fatal(err)
	}
	entries := len(trie.sLabels)
	bitsPerEntry := float64(trie.MemoryUsage()*8) / float64(entries)
	if bitsPerEntry > 12.5 {
		t.Fatalf("LOUDS-Sparse at %.2f bits/entry, want <= 12.5", bitsPerEntry)
	}
}

func TestFindByte(t *testing.T) {
	labels := make([]byte, 100)
	for i := range labels {
		labels[i] = byte(i * 2)
	}
	for i := range labels {
		if got := findByte(labels, 0, len(labels), byte(i*2)); got != i {
			t.Fatalf("findByte(%d) = %d, want %d", i*2, got, i)
		}
	}
	if got := findByte(labels, 0, len(labels), 1); got != 1 {
		t.Fatalf("findByte(absent 1) = %d, want 1 (the first label above it)", got)
	}
	if got := findByte(labels, 10, 20, byte(5*2)); got != 10 {
		t.Fatalf("findByte below the window = %d, want its start", got)
	}
	if got := findByte(labels, 10, 20, byte(15*2)); got != 15 {
		t.Fatalf("findByte in window = %d", got)
	}
	// Every byte value against every window: the first label >= b, or the
	// window's end, whatever lies past it.
	for start := 0; start < len(labels); start += 7 {
		for end := start; end <= len(labels); end += 5 {
			for b := 0; b < 256; b++ {
				want := start
				for want < end && labels[want] < byte(b) {
					want++
				}
				if got := findByte(labels, start, end, byte(b)); got != want {
					t.Fatalf("findByte([%d,%d), %d) = %d, want %d", start, end, b, got, want)
				}
			}
		}
	}
}

func BenchmarkGetRandInt(b *testing.B) {
	ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(200000, 1)))
	values := make([]uint64, len(ks))
	trie, _ := Build(ks, values, DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trie.Get(ks[i%len(ks)])
	}
}

func BenchmarkLowerBoundEmail(b *testing.B) {
	ks := keys.Dedup(keys.Emails(100000, 1))
	values := make([]uint64, len(ks))
	trie, _ := Build(ks, values, DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trie.LowerBound(ks[i%len(ks)])
	}
}

func TestMemorySmallerThanPointerTrie(t *testing.T) {
	// FST's raison d'être: far less space than 8-byte-pointer structures.
	ks := sortedByteKeys(keys.EncodeUint64s(keys.RandomUint64(50000, 9)))
	values := make([]uint64, len(ks))
	trie, err := Build(ks, values, Config{DenseLevels: -1, StoreValues: false})
	if err != nil {
		t.Fatal(err)
	}
	bitsPerKey := float64(trie.MemoryUsage()*8) / float64(len(ks))
	// SuRF-Base empirically uses ~10-20 bits per key on random ints (§4.1.1
	// reports 10 for truncated; complete tries more, but well under 100).
	if bitsPerKey > 120 {
		t.Fatalf("complete trie at %.1f bits/key; expected well under 120", bitsPerKey)
	}
	t.Logf("complete FST on 50k random ints: %.1f bits/key", bitsPerKey)
}
