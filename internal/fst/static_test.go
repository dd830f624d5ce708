package fst

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"mets/internal/bits"
	"mets/internal/hope"
	"mets/internal/index"
	"mets/internal/keycodec"
	"mets/internal/keys"
)

// staticValues returns n values in runs of 32 whose spreads take widths from
// 0 to 64 bits, chosen by src, so the frame-of-reference arrays see every
// width and both of their forms.
func staticValues(n int, src []byte) []uint64 {
	h := fnv.New64a()
	h.Write(src)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	vs := make([]uint64, n)
	var base uint64
	var w uint
	for i := range vs {
		if i%32 == 0 {
			base, w = rng.Uint64(), uint(rng.Intn(65))
			if len(src) > 0 {
				w = uint(src[i/32%len(src)]) % 65
			}
		}
		vs[i] = base + rng.Uint64()>>(64-w)&(1<<w-1)
		if w == 64 {
			vs[i] = rng.Uint64()
		}
	}
	return vs
}

// keyOrderValues returns n values that never decrease, as tuple IDs loaded
// in key order are, so every level of the trie rises and its run takes the
// Elias–Fano form. With shape 0 they are the IDs 0..n-1, which strictly rise
// and are coded as x_i − i. Otherwise they start at 0 and step up by 0
// (equal neighbours, which keep a run coded as given), 1, 2^20 or 2^62,
// picked by the bytes of src in turn and saturating, and the last is
// MaxUint64, so runs reach the top of the range.
func keyOrderValues(n int, shape byte, src []byte) []uint64 {
	vs := make([]uint64, n)
	steps := []uint64{0, 1, 1 << 20, 1 << 62}
	var v uint64
	for i := range vs {
		switch {
		case shape == 0:
			v = uint64(i)
		case i > 0 && len(src) > 0:
			v += min(steps[src[i%len(src)]%4], ^uint64(0)-v)
		}
		vs[i] = v
	}
	if shape != 0 && n > 0 {
		vs[n-1] = ^uint64(0)
	}
	return vs
}

// staticProbes returns the lower bounds a scan is checked from: nil, the
// empty key, 0x00 and a key past every stored one, and per stored key the key
// itself, its extensions by 0x00 and 0xFF, its proper prefixes and copies
// diverging in the middle in both directions.
func staticProbes(ks [][]byte) [][]byte {
	probes := [][]byte{nil, {}, {0x00}, bytes.Repeat([]byte{0xff}, 70)}
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

// checkStaticOracle builds the stage over the sorted unique keys ks, the i-th
// holding vals[i], and holds it to the sorted slice (checkStage).
func checkStaticOracle(t testing.TB, ks [][]byte, vals []uint64, probes [][]byte) {
	t.Helper()
	entries := make([]index.Entry, len(ks))
	for i, k := range ks {
		entries[i] = index.Entry{Key: k, Value: vals[i]}
	}
	checkStage(t, buildStatic(t, entries), ks, vals, probes)
}

// buildStatic builds the stage as NewStatic does.
func buildStatic(t testing.TB, entries []index.Entry) *Static {
	t.Helper()
	s, err := NewStatic(entries)
	if err != nil {
		t.Fatalf("NewStatic: %v", err)
	}
	return s
}

// buildTrie builds the stage as the complete trie, also where NewStatic
// would take the column.
func buildTrie(t testing.TB, entries []index.Entry) *Static {
	t.Helper()
	s, err := newTrie(entries)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkStage holds the stage s over the sorted unique keys ks, the i-th
// holding vals[i], to the sorted slice: its layout and value coding, Len,
// Get, a lower-bound Scan stopped after a few entries and the full
// Scan(nil). The scanned key is checked inside the callback, while it is
// lent.
func checkStage(t testing.TB, s *Static, ks [][]byte, vals []uint64, probes [][]byte) {
	t.Helper()
	if s.Len() != len(ks) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(ks))
	}
	column := len(ks) > 0 && len(ks[0]) > 0 && len(ks[0]) <= 8
	for _, k := range ks {
		column = column && len(k) == len(ks[0])
	}
	if (s.col != nil) != column || (s.t.height != 0) != (!column && len(ks) > 0) {
		t.Fatalf("key column %v beside a trie of height %d; want the column exactly when every key has one length of 1 to 8 bytes (%v), else a trie",
			s.col != nil, s.t.height, column)
	}
	if c := s.col; c != nil {
		checkColumnCoding(t, c, ks, vals)
	} else {
		checkValueCoding(t, &s.t, vals)
	}
	const look = 3 // entries checked after each lower bound
	for _, q := range probes {
		want := sort.Search(len(ks), func(i int) bool { return bytes.Compare(ks[i], q) >= 0 })
		present := want < len(ks) && bytes.Equal(ks[want], q)
		if v, ok := s.Get(q); ok != present || ok && v != vals[want] {
			t.Fatalf("Get(%x) = %d,%v; want index %d,%v", q, v, ok, want, present)
		}
		i := want
		n := s.Scan(q, func(k []byte, v uint64) bool {
			if i >= len(ks) || !bytes.Equal(k, ks[i]) || v != vals[i] {
				t.Fatalf("Scan(%x) entry %d = %x,%d; want index %d", q, i-want, k, v, i)
			}
			i++
			return i < want+look
		})
		if wantEnd := min(want+look, len(ks)); i != wantEnd || n != wantEnd-want {
			t.Fatalf("Scan(%x) stopped at %d after %d entries, want %d", q, i, n, wantEnd)
		}
	}
	i := 0
	if n := s.Scan(nil, func(k []byte, v uint64) bool {
		if i >= len(ks) || !bytes.Equal(k, ks[i]) || v != vals[i] {
			t.Fatalf("Scan(nil) entry %d = %x,%d", i, k, v)
		}
		i++
		return true
	}); n != len(ks) || i != len(ks) {
		t.Fatalf("Scan(nil) visited %d entries, want %d", n, len(ks))
	}
}

// checkColumnCoding holds a column over ks, whose i-th key holds vals[i], to
// its definition: the keys as big-endian integers coded as bits.NewFOR of
// them, and the values in key order coded as a run (wantRun).
func checkColumnCoding(t testing.TB, c *column, ks [][]byte, vals []uint64) {
	t.Helper()
	ints := make([]uint64, len(ks))
	for i, k := range ks {
		for _, b := range k {
			ints[i] = ints[i]<<8 | uint64(b)
		}
	}
	if c.keyLen != len(ks[0]) || !reflect.DeepEqual(c.keys, bits.NewFOR(ints)) {
		t.Fatalf("column keys are not coded as bits.NewFOR of the %d-byte keys read as integers", len(ks[0]))
	}
	checkRun(t, "column values", c.values, vals)
}

// checkRun holds r to the coding of the run vs: bits.NewFOR of vs as given,
// or, exactly when vs strictly rises, of each value less its index.
func checkRun(t testing.TB, name string, r valueRun, vs []uint64) {
	t.Helper()
	want, step := slices.Clone(vs), uint64(1)
	for i := 1; i < len(vs); i++ {
		if vs[i] <= vs[i-1] {
			step = 0
		}
	}
	for i := range want {
		want[i] -= uint64(i) * step
	}
	if r.step != step || len(vs) == 0 && r.f.Len() != 0 || len(vs) > 0 && !reflect.DeepEqual(r.f, bits.NewFOR(want)) {
		t.Fatalf("%s (%d, strictly rising %v) are not coded as bits.NewFOR of the values, less their index exactly when they strictly rise", name, len(vs), step == 1)
	}
}

// checkValueCoding holds a trie's values, whose i-th leaf in key order holds
// vals[i], to their definition: one run per level, of the level's values in
// slot order (checkRun).
func checkValueCoding(t testing.TB, tr *Trie, vals []uint64) {
	t.Helper()
	n := tr.numDenseLeaves + tr.numSparseLeaves
	if n == 0 || !tr.cfg.StoreValues {
		return
	}
	if len(tr.values) != tr.height {
		t.Fatalf("%d value runs for %d levels", len(tr.values), tr.height)
	}
	slotValue, slotLevel := make([]uint64, n), make([]int, n)
	i := 0
	it := tr.NewIterator()
	for it.First(); it.Valid(); it.Next() {
		slotValue[it.slot()], slotLevel[it.slot()] = vals[i], it.depth-1
		i++
	}
	levels := make([][]uint64, tr.height)
	for s, l := range slotLevel {
		levels[l] = append(levels[l], slotValue[s])
	}
	for l, vs := range levels {
		checkRun(t, fmt.Sprintf("level %d values", l), tr.values[l], vs)
	}
}

// TestStaticAgainstOracle runs the oracle over the trie tests' key sets and
// the builder goldens' short keys, with values of every width and with IDs
// in key order.
func TestStaticAgainstOracle(t *testing.T) {
	sets := datasets(t)
	sets["short"] = shortKeys()
	sets["urls"] = keys.Dedup(keys.URLs(3000, 4))
	sets["empty-key-only"] = [][]byte{{}}
	sets["one-key"] = [][]byte{[]byte("solo")}
	// Keys of one length up to 8 bytes: the key column.
	u64s := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(5000, 45)))
	sets["random-u64"] = u64s
	var all1, dense2 [][]byte
	for b := 0; b < 256; b++ {
		all1 = append(all1, []byte{byte(b)})
		for _, a := range []byte{0x00, 0x01, 0x7f, 0xff} {
			dense2 = append(dense2, []byte{a, byte(b)})
		}
	}
	sets["k1-all-bytes"] = all1
	sets["k2-dense"] = keys.Dedup(dense2)
	sets["one-8-byte-key"] = [][]byte{keys.Uint64(0x00ff00ff00ff00ff)}
	// Clustered 8-byte keys, which the column holds in more room than the
	// trie would, and 16-byte keys, which take the complete trie.
	sets["u64-runs"] = layoutSets()[7].ks[:5000]
	sets["ts-sensor"] = layoutSets()[8].ks[:5000]
	// One key of another length keeps the set complete.
	sets["u64-and-a-9-byte-key"] = keys.Dedup(append(append([][]byte(nil), u64s...), append(keys.Uint64(1<<60), 7)))
	for name, ks := range sets {
		t.Run(name, func(t *testing.T) {
			checkStaticOracle(t, ks, staticValues(len(ks), []byte(name)), staticProbes(ks))
			checkStaticOracle(t, ks, keyOrderValues(len(ks), 0, nil), staticProbes(ks))
		})
	}
	// No entries at all: an empty stage.
	s, err := NewStatic(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(nil); ok || s.Len() != 0 || s.Scan(nil, func([]byte, uint64) bool { return true }) != 0 {
		t.Fatal("empty stage is not empty")
	}
}

// TestStaticRejectsBadInput holds each layout to the trie builder's check:
// keys out of order or repeated fail the build.
func TestStaticRejectsBadInput(t *testing.T) {
	for _, ks := range [][][]byte{
		{keys.Uint64(2), keys.Uint64(1)}, // the key column
		{keys.Uint64(1), keys.Uint64(1)},
		{keys.Uint128(0, 2), keys.Uint128(0, 1)}, // the complete trie: one length above 8 bytes
		{[]byte("b"), []byte("ab")},              // the complete trie: lengths differ
	} {
		if _, err := NewStatic(entriesOf(ks, false)); err == nil {
			t.Errorf("NewStatic accepted keys %x", ks)
		}
	}
}

// FuzzStaticOps builds the stage over a fuzz-derived key set — its parts and
// every concatenation of two of them, so the empty key, prefix chains and
// 0xFF labels come up — with values of widths 0 to 64, and holds it to the
// sorted slice.
//
// A first byte from 0xe0 to 0xef gives the keys values in key order
// (keyOrderValues, its low four bits the shape, the rest of the input the
// steps) and the rest of the input is read as it would be without it, so
// every run never falls and takes the Elias–Fano form; shapes other than 0
// repeat values and end at MaxUint64.
func FuzzStaticOps(f *testing.F) {
	f.Add([]byte("seed-corpus-entry"))
	f.Add([]byte{0, 1, 'a', 2, 'a', 0, 3, 'a', 0, 0, 1, 0xff, 2, 0xff, 0xff, 9, 'p', 'r', 'e', 'f', 'i', 'x'})
	f.Add(bytes.Repeat([]byte{0xff}, 60))
	f.Add(bytes.Repeat([]byte{3, 'a', 'b'}, 30))
	f.Add([]byte{1, 'x'})
	// A first byte from 0xf0 to 0xfe picks the fixed-width mode: the rest is
	// cut into keys of K = 1 to 8, 9 or 16 bytes (0xf0 to 0xf9, then again
	// from 0xfa): the key column for K <= 8, the complete trie above.
	f.Add([]byte{0xf0, 0x00, 0xff, 0x7f, 0x80, 0x01, 0xfe, 0x00})
	f.Add([]byte{0xf1, 0, 0, 0, 1, 0, 0xff, 0xff, 0, 0xff, 0xff, 1, 2, 1, 3, 0xff, 0xfe})
	f.Add([]byte{0xf7, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0xff,
		0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe, 9, 9})
	f.Add([]byte{0xf2, 1, 2, 3, 1, 2, 4, 0xff, 0xff, 0xff, 0, 0, 0, 7, 7})
	f.Add([]byte{0xf8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3, 4, 5, 6, 7, 8, 0xff, 0xff, 0xff})
	f.Add(append(append([]byte{0xf9}, bytes.Repeat([]byte{0xff}, 32)...), bytes.Repeat([]byte{0, 0xff, 7}, 11)...))
	// Clustered 8-byte keys: ten runs of 40 consecutive integers from
	// scattered starts, which the trie would hold in less room than the
	// column does.
	clustered, start := []byte{0xf7}, uint64(0x9e3779b97f4a7c15)
	for range 10 {
		start = start*6364136223846793005 + 1442695040888963407
		for i := range uint64(40) {
			clustered = binary.BigEndian.AppendUint64(clustered, start+i)
		}
	}
	f.Add(clustered)
	// Values in key order: IDs, then steps that repeat values and reach
	// 2^64 - 1, in the complete layout, and the same two over 8-byte keys,
	// in the column.
	f.Add([]byte("\xe0seed-corpus-entry"))
	f.Add([]byte{0xe1, 0, 1, 'a', 2, 'a', 0, 3, 'a', 0, 0, 1, 0xff, 2, 0xff, 0xff, 9, 'p', 'r', 'e', 'f', 'i', 'x'})
	f.Add([]byte{0xe3, 3, 'a', 'b', 3, 'a', 'c', 1, 'a', 2, 'b', 'z', 3, 'b', 'z', 'z'})
	f.Add([]byte{0xe0, 0xf7, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0xff,
		0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe, 9, 9})
	f.Add([]byte{0xe2, 0xf7, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 0, 3, 0, 0, 0, 0, 0, 0, 2, 3, 0xff,
		0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 7, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		values := staticValues
		if len(data) > 0 && data[0]&0xf0 == 0xe0 {
			shape, src := data[0]&0x0f, data[1:]
			values = func(n int, _ []byte) []uint64 { return keyOrderValues(n, shape, src) }
			data = src
		}
		if len(data) > 0 && data[0] >= 0xf0 && data[0] < 0xff {
			k := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16}[(data[0]-0xf0)%10]
			var ks, probes [][]byte
			for i := 1; i+k <= len(data); i += k {
				ks = append(ks, data[i:i+k])
				// Starts of other lengths: shorter, longer and the empty one.
				probes = append(probes, data[i:i+k-1], data[i:min(i+k+1, len(data))], data[i:])
			}
			probes = append(probes, bytes.Repeat([]byte{0xff}, k), bytes.Repeat([]byte{0xff}, k+1))
			ks = keys.Dedup(ks)
			checkStaticOracle(t, ks, values(len(ks), data), append(append(staticProbes(ks), probes...), data))
			return
		}
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
		checkStaticOracle(t, ks, values(len(ks), data), append(staticProbes(ks), data))
	})
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

// entriesOf pairs sorted keys with tuple IDs in key order or, with random,
// uniform random 64-bit values.
func entriesOf(ks [][]byte, random bool) []index.Entry {
	rng := rand.New(rand.NewSource(3))
	es := make([]index.Entry, len(ks))
	for i, k := range ks {
		es[i] = index.Entry{Key: k, Value: uint64(i)}
		if random {
			es[i].Value = rng.Uint64()
		}
	}
	return es
}

// heapAlloc is the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestStaticMemoryUsageMatchesHeap is the reported-versus-actual audit the
// stage's bits/key rest on: MemoryUsage must be within 1% of what a build
// leaves on the heap, in each layout, with packed values and with the
// plain-slot fallback.
func TestStaticMemoryUsageMatchesHeap(t *testing.T) {
	datasets := map[string][][]byte{
		"hope-emails": hopeEncoded(t, keys.Dedup(keys.Emails(200000, 1))),
		"random-u64":  keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(200000, 1))), // the key column
		"ts-sensor":   layoutSets()[8].ks,                                           // 16-byte keys: the complete trie
	}
	for name, ks := range datasets {
		for _, random := range []bool{false, true} {
			entries := entriesOf(ks, random)
			before := heapAlloc()
			s, err := NewStatic(entries)
			if err != nil {
				t.Fatal(err)
			}
			actual := float64(heapAlloc()) - float64(before)
			reported := float64(s.MemoryUsage())
			runtime.KeepAlive(s)
			// The input must not die — and shrink the heap — between the readings.
			runtime.KeepAlive(entries)
			if ratio := reported / actual; ratio < 0.99 || ratio > 1.01 {
				t.Errorf("%s (random values %v): MemoryUsage reports %.0f B, heap grew %.0f B (ratio %.4f, want 0.99..1.01)", name, random, reported, actual, ratio)
			} else {
				t.Logf("%s (random values %v): MemoryUsage %.0f B, heap %.0f B (ratio %.4f)", name, random, reported, actual, ratio)
			}
		}
	}
	runtime.KeepAlive(datasets)
}

// TestStaticBitsPerKeyBudget pins the stage's memory on deterministic
// 100k-key builds, so a later change cannot silently give it back. With IDs
// in key order every level of a trie strictly rises, so each level's run is
// coded as x_i − i in the Elias–Fano form, ~3.7 bits a value; the random
// 8-byte keys take the key column, whose values are one such run. The
// compact B+tree's budgets on the same sets are 105 / 122 / 176 / 126.
// Uniform random 64-bit values cost exactly 64-bit slots, every level's in
// one allocation of 8n bytes.
func TestStaticBitsPerKeyBudget(t *testing.T) {
	emails := keys.Dedup(keys.Emails(100000, 1))
	for _, tc := range []struct {
		name   string
		ks     [][]byte
		budget float64 // with IDs in key order
		column bool
	}{
		{"hope-emails", hopeEncoded(t, emails), 44.3, false},
		{"raw-emails", emails, 53.7, false},
		{"urls", keys.Dedup(keys.URLs(100000, 1)), 97.5, false},
		{"random-u64", keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(100000, 1))), 51.5, true},
	} {
		for _, random := range []bool{false, true} {
			entries := entriesOf(tc.ks, random)
			s, err := NewStatic(entries)
			if err != nil {
				t.Fatal(err)
			}
			perKey := float64(s.MemoryUsage()) * 8 / float64(s.Len())
			t.Logf("%s, random values %v: %.1f bits/key", tc.name, random, perKey)
			if !random && perKey > tc.budget {
				t.Errorf("%s: %.1f bits/key exceeds the budget of %.1f", tc.name, perKey, tc.budget)
			}
			if (s.col != nil) != tc.column {
				t.Fatalf("%s: key column %v, want %v", tc.name, s.col != nil, tc.column)
			}
			vals := make([]uint64, len(entries))
			for i, e := range entries {
				vals[i] = e.Value
			}
			var values int64
			if c := s.col; c != nil {
				checkColumnCoding(t, c, tc.ks, vals)
				values = c.values.f.MemoryUsage()
			} else {
				tr := &s.t
				for l, r := range tr.values {
					if !random && r.step != 1 {
						t.Errorf("%s: level %d's IDs in key order are not coded as x_i - i", tc.name, l)
					}
				}
				checkValueCoding(t, tr, vals)
				values = tr.valueBytes
			}
			if slots := bits.AllocSize(8 * len(vals)); random && values != slots {
				t.Errorf("%s, random values: %d B of values, want exactly the %d B of one allocation of 64-bit slots", tc.name, values, slots)
			}
		}
	}
}

// TestStaticValueRuns builds four keys on two levels — "a" and "c" on the
// first, "b0" and "b1" on the second — in either region, with values that
// strictly rise, tie, fall, and sit near 2^64, where x_i − i of a run that
// does not strictly rise would wrap. Each level's run must be coded as its
// definition says (checkValueCoding), with x_i − i exactly where the level
// strictly rises, and every value must read back through Get and a walk.
func TestStaticValueRuns(t *testing.T) {
	const top = ^uint64(0)
	ks := [][]byte{[]byte("a"), []byte("b0"), []byte("b1"), []byte("c")}
	for _, dense := range []int{0, 2} {
		for _, tc := range []struct {
			name  string
			vals  []uint64 // a, b0, b1, c
			steps [2]uint64
		}{
			{"IDs", []uint64{0, 1, 2, 3}, [2]uint64{1, 1}},
			{"tied", []uint64{5, 7, 7, 5}, [2]uint64{0, 0}},
			{"falling", []uint64{9, 4, 3, 1}, [2]uint64{0, 0}},
			{"near 2^64", []uint64{top - 3, top - 2, top - 1, top}, [2]uint64{1, 1}},
			{"would wrap", []uint64{top, 0, top, 0}, [2]uint64{0, 1}},
			{"ties at 0", []uint64{1, 0, 0, 2}, [2]uint64{1, 0}},
		} {
			tr, err := Build(ks, tc.vals, Config{StoreValues: true, DenseLevels: dense})
			if err != nil {
				t.Fatal(err)
			}
			if tr.Height() != 2 || tr.values[0].step != tc.steps[0] || tr.values[1].step != tc.steps[1] {
				t.Fatalf("dense levels %d, %s: height %d, steps %d and %d, want 2, %d and %d", dense, tc.name,
					tr.Height(), tr.values[0].step, tr.values[1].step, tc.steps[0], tc.steps[1])
			}
			checkValueCoding(t, tr, tc.vals)
			for i, k := range ks {
				if v, ok := tr.Get(k); !ok || v != tc.vals[i] {
					t.Fatalf("dense levels %d, %s: Get(%q) = %#x,%v, want %#x", dense, tc.name, k, v, ok, tc.vals[i])
				}
			}
			it, i := tr.NewIterator(), 0
			for it.First(); it.Valid(); it.Next() {
				if v := it.Value(); v != tc.vals[i] {
					t.Fatalf("dense levels %d, %s: walk reads %#x for %q, want %#x", dense, tc.name, v, ks[i], tc.vals[i])
				}
				i++
			}
		}
	}
}

// TestStaticCompleteLayoutCostsNothing holds the stage over keys of
// different lengths (lib-read's HOPE-encoded emails) and over the two sets
// of 16-byte keys to the complete trie fst.Build makes under the same
// tuning: not a byte more, and a struct in no larger a size class than a
// trie and an entry count.
func TestStaticCompleteLayoutCostsNothing(t *testing.T) {
	sets := map[string][][]byte{"hope-emails": hopeEncoded(t, keys.Dedup(keys.Emails(100000, 1)))}
	for _, tc := range layoutSets()[8:] {
		sets[tc.name] = tc.ks
	}
	for name, ks := range sets {
		entries := entriesOf(ks, false)
		s, err := NewStatic(entries)
		if err != nil {
			t.Fatal(err)
		}
		values := make([]uint64, len(entries))
		for i, e := range entries {
			values[i] = e.Value
		}
		trie, err := Build(ks, values, staticConfig)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := s.MemoryUsage(), (&Static{t: *trie}).MemoryUsage(); got != want {
			t.Fatalf("%s: MemoryUsage = %d B, want the complete trie's %d B", name, got, want)
		}
	}
	type trieAndCount struct {
		t Trie
		n int
	}
	if got, limit := bits.AllocSize(int(unsafe.Sizeof(Static{}))), bits.AllocSize(int(unsafe.Sizeof(trieAndCount{}))); got > limit {
		t.Fatalf("the stage struct takes %d B, more than the %d B of a trie and a count", got, limit)
	}
}

// layoutSets returns the key sets the layouts are weighed on, each about
// one of eight shards: random 8-byte keys from the top eighth of the range
// at served-read's and served-durable's shard sizes; random 4- and 6-byte
// keys; every third integer; gaps drawn from an exponential distribution;
// 100 random 6-byte prefixes with random 2-byte suffixes; 125 runs of 200
// consecutive integers; and sensor events keyed timestamp‖sensor and
// sensor‖timestamp (16 bytes, which take the complete trie). clustered marks
// the two sets of 8-byte keys whose shared prefixes the trie would hold in
// less room than the column does.
func layoutSets() []struct {
	name      string
	ks        [][]byte
	clustered bool
} {
	rng := rand.New(rand.NewSource(47))
	ints := func(n int, width uint, gen func(i int) uint64) [][]byte {
		ks := make([][]byte, n)
		for i := range ks {
			k := keys.Uint64(gen(i))
			ks[i] = k[8-width/8:]
		}
		return keys.Dedup(ks)
	}
	var gap uint64
	prefixes := make([]uint64, 100)
	for i := range prefixes {
		prefixes[i] = rng.Uint64() << 16
	}
	var runStart uint64
	events := keys.SensorEvents(100, 1_000_000, 625_000_000, 1)
	tsSensor, sensorTS := make([][]byte, len(events)), make([][]byte, len(events))
	for i, e := range events {
		tsSensor[i], sensorTS[i] = e.Key(), keys.Uint128(e.SensorID, e.Timestamp)
	}
	return []struct {
		name      string
		ks        [][]byte
		clustered bool
	}{
		{"random-u64-62.5k", ints(62_500, 64, func(int) uint64 { return rng.Uint64() >> 3 }), false},
		{"random-u64-25k", ints(25_000, 64, func(int) uint64 { return rng.Uint64() >> 3 }), false},
		{"random-u32", ints(62_500, 32, func(int) uint64 { return rng.Uint64() >> 35 }), false},
		{"random-6B", ints(62_500, 48, func(int) uint64 { return rng.Uint64() >> 19 }), false},
		{"seq-u64x3", ints(62_500, 64, func(i int) uint64 { return 3 * uint64(i) }), false},
		{"exp-gaps", ints(62_500, 64, func(int) uint64 {
			gap += uint64(rng.ExpFloat64() * (1 << 45))
			return gap
		}), false},
		{"100-prefixes-x-u16", ints(62_500, 64, func(i int) uint64 { return prefixes[i%100] | uint64(rng.Intn(1<<16)) }), true},
		{"125-runs-of-200", ints(25_000, 64, func(i int) uint64 {
			if i%200 == 0 {
				runStart = rng.Uint64() >> 3
			}
			return runStart + uint64(i%200)
		}), true},
		{"ts-sensor", keys.Dedup(tsSensor), false},
		{"sensor-ts", keys.Dedup(sensorTS), false},
	}
}

// TestStaticLayoutChoice holds the stage on layoutSets, with IDs in key
// order, to the layout the key length gives: the column for keys of at most
// 8 bytes, the complete trie for longer ones. Against the complete trie, the
// column must take less room on every set of 8-byte or shorter keys but the
// clustered ones, on which the test logs what the column costs more.
func TestStaticLayoutChoice(t *testing.T) {
	for _, tc := range layoutSets() {
		entries := entriesOf(tc.ks, false)
		s := buildStatic(t, entries)
		perKey := func(s *Static) float64 { return float64(s.MemoryUsage()) * 8 / float64(len(entries)) }
		k := len(tc.ks[0])
		if k > 8 {
			if s.col != nil {
				t.Errorf("%s: %d-byte keys are in the key column", tc.name, k)
			}
			t.Logf("%s: %d keys of %d bytes, complete trie %.2f bits/key", tc.name, len(entries), k, perKey(s))
			continue
		}
		if s.col == nil {
			t.Fatalf("%s: %d-byte keys are not in the key column", tc.name, k)
		}
		trie := buildTrie(t, entries)
		if !tc.clustered && s.MemoryUsage() >= trie.MemoryUsage() {
			t.Errorf("%s: the column takes %d B, the complete trie %d B", tc.name, s.MemoryUsage(), trie.MemoryUsage())
		}
		t.Logf("%s: %d keys of %d bytes, column %.2f bits/key (keys %.2f, values %.2f), complete trie %.2f",
			tc.name, len(entries), k, perKey(s), float64(s.col.keys.MemoryUsage())*8/float64(len(entries)),
			float64(s.col.values.f.MemoryUsage())*8/float64(len(entries)), perKey(trie))
	}
}
