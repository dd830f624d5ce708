package btree

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"mets/internal/bits"
	"mets/internal/hope"
	"mets/internal/index"
	"mets/internal/keycodec"
	"mets/internal/keys"
)

// multiCount is how many values the oracle gives the i-th distinct key of a
// CompactMulti.
func multiCount(i int) int { return i%3 + 1 }

// uniqueEntries pairs the i-th key with vals[i].
func uniqueEntries(ks [][]byte, vals []uint64) []index.Entry {
	entries := make([]index.Entry, len(ks))
	for i, k := range ks {
		entries[i] = index.Entry{Key: k, Value: vals[i]}
	}
	return entries
}

// valueDists are the tuple-ID distributions the value codec is pinned on:
// IDs in key order (a bulk load's, and the gated benchmark's), shuffled
// 48-bit addresses, and uniform random 64-bit values.
var valueDists = []struct {
	name string
	of   func(n int) []uint64
}{
	{"key order", func(n int) []uint64 {
		vs := make([]uint64, n)
		for i := range vs {
			vs[i] = uint64(i)
		}
		return vs
	}},
	{"shuffled 48-bit", func(n int) []uint64 { return randomValues(n, 16) }},
	{"random 64-bit", func(n int) []uint64 { return randomValues(n, 0) }},
}

// randomValues returns n random values of 64-drop bits.
func randomValues(n int, drop uint) []uint64 {
	rng := rand.New(rand.NewSource(int64(n) + int64(drop)))
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = rng.Uint64() >> drop
	}
	return vs
}

// valuesFrom derives n values from src (fuzz input, or a case name): each
// leaf group spans a width an input byte picks — 0, 1, a few bits, one that
// straddles words, 63 or 64 — above a random base, so the oracle decodes
// every form and width the value codec has.
func valuesFrom(n int, src []byte) []uint64 {
	h := fnv.New64a()
	h.Write(src)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	widths := []uint{5, 0, 1, 33, 63, 64}
	vs := make([]uint64, n)
	var base uint64
	var w uint
	for i := range vs {
		if g := i / fanout; i%fanout == 0 {
			base, w = rng.Uint64(), widths[0]
			if len(src) > 0 {
				w = widths[int(src[g%len(src)])%len(widths)]
			}
		}
		vs[i] = base + rng.Uint64()>>(64-w)
	}
	return vs
}

func multiEntries(ks [][]byte) []index.Entry {
	var entries []index.Entry
	for i, k := range ks {
		for r := 0; r < multiCount(i); r++ {
			entries = append(entries, index.Entry{Key: k, Value: uint64(i)<<8 | uint64(r)})
		}
	}
	return entries
}

// probesFor derives the probe keys the edge table asks for from the stored
// keys themselves: every key, its proper prefixes (a probe shorter than or
// ending inside a group prefix), its immediate successors, a copy diverging
// in the middle in both directions, and the extremes below and above any key.
func probesFor(ks [][]byte) [][]byte {
	probes := [][]byte{nil, {}, {0x00}, bytes.Repeat([]byte{0xff}, 9)}
	step := len(ks)/1500 + 1
	for i := 0; i < len(ks); i += step {
		k := ks[i]
		probes = append(probes, k, append(append([]byte(nil), k...), 0x00), append(append([]byte(nil), k...), 0xff))
		for _, cut := range []int{len(k) - 1, len(k) / 2, 1} {
			if cut >= 0 && cut < len(k) {
				probes = append(probes, k[:cut])
			}
		}
		if len(k) > 0 {
			for _, d := range []byte{1, 0xff} {
				q := append([]byte(nil), k...)
				q[len(q)/2] += d
				probes = append(probes, q)
			}
		}
	}
	return probes
}

// checkCompactOracle builds a Compact over the sorted unique keys ks, the
// i-th one holding vals[i], and a CompactMulti over them, and holds Get,
// lower-bound Scan(start) and the full Scan(nil) of both against the sorted
// slice.
func checkCompactOracle(t testing.TB, ks [][]byte, vals []uint64, probes [][]byte) (*Compact, *CompactMulti) {
	t.Helper()
	c, err := NewCompact(uniqueEntries(ks, vals))
	if err != nil {
		t.Fatalf("NewCompact: %v", err)
	}
	cm, err := NewCompactMulti(multiEntries(ks))
	if err != nil {
		t.Fatalf("NewCompactMulti: %v", err)
	}
	if c.Len() != len(ks) || cm.keys.numKeys() != len(ks) {
		t.Fatalf("Len = %d, NumKeys = %d, want %d", c.Len(), cm.keys.numKeys(), len(ks))
	}
	const look = 3 // entries checked after each lower bound
	for _, q := range probes {
		want := sort.Search(len(ks), func(i int) bool { return bytes.Compare(ks[i], q) >= 0 })
		present := want < len(ks) && bytes.Equal(ks[want], q)
		if v, ok := c.Get(q); ok != present || ok && v != vals[want] {
			t.Fatalf("Compact.Get(%x) = %d,%v; want index %d,%v", q, v, ok, want, present)
		}
		vs := cm.GetAll(q)
		if present && (len(vs) != multiCount(want) || vs[0] != uint64(want)<<8) || !present && vs != nil {
			t.Fatalf("CompactMulti.GetAll(%x) = %v; present %v at %d", q, vs, present, want)
		}
		i := want
		c.Scan(q, func(k []byte, v uint64) bool {
			if i >= len(ks) || !bytes.Equal(k, ks[i]) || v != vals[i] {
				t.Fatalf("Compact.Scan(%x) entry %d = %x,%d; want index %d", q, i-want, k, v, i)
			}
			i++
			return i < want+look
		})
		if wantEnd := min(want+look, len(ks)); i != wantEnd {
			t.Fatalf("Compact.Scan(%x) stopped at %d, want %d", q, i, wantEnd)
		}
		i, r := want, 0
		cm.Scan(q, func(k []byte, v uint64) bool {
			if i >= len(ks) || !bytes.Equal(k, ks[i]) || v != uint64(i)<<8|uint64(r) {
				t.Fatalf("CompactMulti.Scan(%x) = %x,%x; want index %d value %d", q, k, v, i, r)
			}
			if r++; r == multiCount(i) {
				i, r = i+1, 0
			}
			return i < want+look
		})
		if wantEnd := min(want+look, len(ks)); i != wantEnd {
			t.Fatalf("CompactMulti.Scan(%x) stopped at %d, want %d", q, i, wantEnd)
		}
	}
	i := 0
	n := c.Scan(nil, func(k []byte, v uint64) bool {
		if i >= len(ks) || !bytes.Equal(k, ks[i]) || v != vals[i] {
			t.Fatalf("Compact.Scan(nil)[%d] = %x,%d", i, k, v)
		}
		i++
		return true
	})
	if n != len(ks) || i != len(ks) {
		t.Fatalf("Compact.Scan(nil) visited %d (returned %d), want %d", i, n, len(ks))
	}
	pairs := cm.Scan(nil, func([]byte, uint64) bool { return true })
	if pairs != cm.Len() {
		t.Fatalf("CompactMulti.Scan(nil) visited %d pairs, want %d", pairs, cm.Len())
	}
	return c, cm
}

// TestCompactEdgeCases is the table of key sets the prefix-truncated layout
// could get wrong.
func TestCompactEdgeCases(t *testing.T) {
	seq := func(n int, f func(i int) []byte) [][]byte {
		ks := make([][]byte, n)
		for i := range ks {
			ks[i] = f(i)
		}
		return keys.Dedup(ks)
	}
	longPrefix := bytes.Repeat([]byte("p"), 300)
	cases := map[string][][]byte{
		"empty key present":  keys.Dedup([][]byte{{}, []byte("a"), []byte("b")}),
		"only the empty key": {{}},
		// 40 keys each a prefix of the next: one group and the boundary at 32.
		"prefix chain": seq(40, func(i int) []byte { return bytes.Repeat([]byte("a"), i) }),
		// A head zero-pads: "a", "a\x00" and "a\x00\x00" tie on it.
		"embedded and trailing zeros": keys.Dedup([][]byte{
			[]byte("a"), []byte("a\x00"), []byte("a\x00\x00"), []byte("a\x00\x00\x00"), []byte("a\x00\x00\x00\x00"),
			[]byte("a\x00b"), []byte("a\x01"), []byte("\x00"), []byte("\x00\x00"), []byte("b\x00\x00\x00\x00\x00c"),
		}),
		"0xff runs": seq(70, func(i int) []byte { return bytes.Repeat([]byte{0xff}, i+1) }),
		"group prefix longer than 255 bytes": seq(70, func(i int) []byte {
			return append(append([]byte(nil), longPrefix...), fmt.Sprintf("%03d", i)...)
		}),
		// Heads tie across whole nodes and only bytes far behind them differ.
		"ties beyond the head": seq(1100, func(i int) []byte { return []byte(fmt.Sprintf("tie-%06d", i)) }),
	}
	for _, n := range []int{0, 1, fanout - 1, fanout, fanout + 1, fanout*fanout + 1} {
		cases[fmt.Sprintf("n=%d ints", n)] = keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(n, int64(n))))
		cases[fmt.Sprintf("n=%d emails", n)] = keys.Dedup(keys.Emails(n, int64(n)))
	}
	for name, ks := range cases {
		t.Run(name, func(t *testing.T) {
			c, _ := checkCompactOracle(t, ks, valuesFrom(len(ks), []byte(name)), probesFor(ks))
			if c.keys.off32 != nil {
				t.Fatal("no group exceeds 64 KiB, yet the wide offset form was chosen")
			}
		})
	}

	// One group of 32 x 4 KiB keys — 128 KiB, past what 16-bit offsets reach —
	// between groups of short keys.
	t.Run("wide offsets", func(t *testing.T) {
		var ks [][]byte
		for i := 0; i < 3*fanout; i++ {
			k := []byte(fmt.Sprintf("k%03d", i))
			if i/fanout == 1 {
				k = append(k, bytes.Repeat([]byte{byte(i)}, 4096)...)
			}
			ks = append(ks, k)
		}
		ks = keys.Dedup(ks)
		c, cm := checkCompactOracle(t, ks, valuesFrom(len(ks), []byte("wide")), probesFor(ks))
		if c.keys.off16 != nil || cm.keys.off16 != nil {
			t.Fatal("a 128 KiB group must select 32-bit offsets")
		}
	})
}

// TestCompactLargeSets runs the oracle over the datasets the benchmarks use,
// deep enough for two separator levels, with every value distribution.
func TestCompactLargeSets(t *testing.T) {
	for name, ks := range map[string][][]byte{
		"emails": keys.Dedup(keys.Emails(20000, 31)),
		"urls":   keys.Dedup(keys.URLs(5000, 32)),
		"ints":   keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(20000, 33))),
	} {
		t.Run(name, func(t *testing.T) {
			for _, d := range valueDists {
				t.Run(d.name, func(t *testing.T) { checkCompactOracle(t, ks, d.of(len(ks)), probesFor(ks)) })
			}
			t.Run("mixed widths", func(t *testing.T) {
				checkCompactOracle(t, ks, valuesFrom(len(ks), []byte(name)), probesFor(ks))
			})
		})
	}
}

// TestCompactBuildDeterministic checks that the chunk-parallel build emits
// the same structure — value arrays included — for any worker count.
func TestCompactBuildDeterministic(t *testing.T) {
	ks := keys.Dedup(keys.Emails(100000, 5))
	var entries []index.Entry
	for _, d := range valueDists {
		entries = uniqueEntries(ks, d.of(len(ks)))
		serial, err := newCompact(entries, -1)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{0, 2, 7} {
			got, err := newCompact(entries, w)
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			if !reflect.DeepEqual(got.values, serial.values) {
				t.Fatalf("%s, workers=%d: value arrays differ from the serial build", d.name, w)
			}
			if !reflect.DeepEqual(got, serial) {
				t.Fatalf("%s, workers=%d: structure differs from the serial build", d.name, w)
			}
		}
	}
	for _, corrupt := range []int{1, 49999, len(entries) - 1} {
		bad := append([]index.Entry(nil), entries...)
		bad[corrupt] = bad[corrupt-1] // duplicate key
		if _, err := NewCompact(bad); err == nil {
			t.Fatalf("build accepted a duplicate at %d", corrupt)
		}
	}
}

// FuzzCompactOps is the differential fuzz of both compact trees against the
// sorted-slice oracle. The input is carved into parts (one length byte, then
// the bytes); the key set is every part and every concatenation of two, so a
// small input yields up to ~1,700 keys sharing prefixes at every depth —
// enough for two separator levels. What is left of the input probes, beside
// the probes derived from the keys, and picks each leaf group's value width.
func FuzzCompactOps(f *testing.F) {
	f.Add([]byte("seed-corpus-entry"))
	f.Add([]byte{0, 1, 'a', 2, 'a', 0, 3, 'a', 0, 0, 1, 0xff, 2, 0xff, 0xff, 9, 'p', 'r', 'e', 'f', 'i', 'x'})
	f.Add(bytes.Repeat([]byte{0xff}, 60))
	f.Add(bytes.Repeat([]byte{3, 'a', 'b'}, 30))
	f.Fuzz(func(t *testing.T, data []byte) {
		var parts [][]byte
		for len(data) > 0 && len(parts) < 40 {
			n := min(int(data[0])%12, len(data)-1)
			parts = append(parts, data[1:1+n])
			data = data[1+n:]
		}
		ks := append([][]byte(nil), parts...)
		for _, a := range parts {
			for _, b := range parts {
				ks = append(ks, append(append([]byte(nil), a...), b...))
			}
		}
		ks = keys.Dedup(ks)
		checkCompactOracle(t, ks, valuesFrom(len(ks), data), append(probesFor(ks), data))
	})
}

// heapAlloc is the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// hopeEncoded trains the gated benchmark's codec (HOPE 3-Grams, 2^14-entry
// dictionary, every 100th key sampled) on the sorted keys and encodes them.
func hopeEncoded(t testing.TB, ks [][]byte) [][]byte {
	t.Helper()
	var sample [][]byte
	for i := 0; i < len(ks); i += 100 {
		sample = append(sample, ks[i])
	}
	codec, err := keycodec.TrainHOPE(sample, hope.ThreeGrams, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	enc := make([][]byte, len(ks))
	for i, k := range ks {
		enc[i] = codec.Encode(k)
	}
	return enc
}

// TestCompactMemoryUsageMatchesHeap is the reported-versus-actual audit the
// bits/key figures rest on: MemoryUsage must be within 3% of what a build
// leaves on the heap, and never more than 1% below it — for every value
// distribution, so both the packed values and the plain-slot fallback are
// audited.
func TestCompactMemoryUsageMatchesHeap(t *testing.T) {
	check := func(name string, build func() (interface{ MemoryUsage() int64 }, error)) {
		before := heapAlloc()
		st, err := build()
		if err != nil {
			t.Fatal(err)
		}
		actual := float64(heapAlloc()) - float64(before)
		reported := float64(st.MemoryUsage())
		runtime.KeepAlive(st)
		if ratio := reported / actual; ratio < 0.99 || ratio > 1.03 {
			t.Errorf("%s: MemoryUsage reports %.0f B, heap grew %.0f B (ratio %.4f, want 0.99..1.03)", name, reported, actual, ratio)
		} else {
			t.Logf("%s: MemoryUsage %.0f B, heap %.0f B (ratio %.4f)", name, reported, actual, ratio)
		}
	}
	datasets := map[string][][]byte{
		"hope-emails": hopeEncoded(t, keys.Dedup(keys.Emails(200000, 1))),
		"random-u64":  keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(200000, 1))),
	}
	for name, ks := range datasets {
		for _, d := range valueDists {
			unique := uniqueEntries(ks, d.of(len(ks)))
			check(name+"/Compact/"+d.name, func() (interface{ MemoryUsage() int64 }, error) { return NewCompact(unique) })
			// The input must not die — and shrink the heap — between the two readings.
			runtime.KeepAlive(unique)
		}
		multi := multiEntries(ks)
		check(name+"/CompactMulti", func() (interface{ MemoryUsage() int64 }, error) { return NewCompactMulti(multi) })
		runtime.KeepAlive(multi)
	}
	runtime.KeepAlive(datasets)
}

// slotCompact is the layout Compact had before its values were
// frame-of-reference coded: one 64-bit slot per key.
type slotCompact struct {
	keys   packedKeys
	values []uint64
}

// TestCompactBitsPerKeyBudget pins the static stage's memory on deterministic
// 100k-key builds, so a later change cannot silently give it back. With IDs
// in key order the values cost a few bits; the 64-bit slots they replaced
// cost 153 / 167 / 217 / 171, and the 8-byte-mirror key layout before that
// 236 / 320 / 518 / 227. Shuffled 48-bit addresses must cost no more than
// 64-bit slots, and uniform random 64-bit values exactly what the slots did.
func TestCompactBitsPerKeyBudget(t *testing.T) {
	emails := keys.Dedup(keys.Emails(100000, 1))
	for _, tc := range []struct {
		name   string
		ks     [][]byte
		budget float64 // with IDs in key order
	}{
		{"hope-emails", hopeEncoded(t, emails), 105},
		{"raw-emails", emails, 122},
		{"urls", keys.Dedup(keys.URLs(100000, 1)), 176},
		{"random-u64", keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(100000, 1))), 126},
	} {
		for _, d := range valueDists {
			c, err := NewCompact(uniqueEntries(tc.ks, d.of(len(tc.ks))))
			if err != nil {
				t.Fatal(err)
			}
			n := c.Len()
			slots := bits.AllocSize(int(unsafe.Sizeof(slotCompact{}))) + c.keys.memoryUsage() + bits.AllocSize(8*n)
			got := c.MemoryUsage()
			perKey := func(b int64) float64 { return float64(b) * 8 / float64(n) }
			t.Logf("%s, %s: %.1f bits/key (64-bit slots: %.1f)", tc.name, d.name, perKey(got), perKey(slots))
			switch d.name {
			case "key order":
				if perKey(got) > tc.budget {
					t.Errorf("%s: %.1f bits/key exceeds the budget of %.0f", tc.name, perKey(got), tc.budget)
				}
			case "shuffled 48-bit":
				if got > slots {
					t.Errorf("%s, %s: %d B, more than the %d B of 64-bit slots", tc.name, d.name, got, slots)
				}
			case "random 64-bit":
				if got != slots {
					t.Errorf("%s, %s: %d B, want exactly the %d B of 64-bit slots", tc.name, d.name, got, slots)
				}
			}
		}
	}
}
