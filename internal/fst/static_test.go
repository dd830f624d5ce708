package fst

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"testing"

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
// holding vals[i], and holds Len, Get, a lower-bound Scan stopped after a few
// entries and the full Scan(nil) to the sorted slice. The scanned key is
// checked inside the callback, while it is lent.
func checkStaticOracle(t testing.TB, ks [][]byte, vals []uint64, probes [][]byte) {
	t.Helper()
	entries := make([]index.Entry, len(ks))
	for i, k := range ks {
		entries[i] = index.Entry{Key: k, Value: vals[i]}
	}
	s, err := NewStatic(entries)
	if err != nil {
		t.Fatalf("NewStatic: %v", err)
	}
	if s.Len() != len(ks) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(ks))
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

// TestStaticAgainstOracle runs the oracle over the trie tests' key sets and
// the builder goldens' short keys, with values of every width.
func TestStaticAgainstOracle(t *testing.T) {
	sets := datasets(t)
	sets["short"] = shortKeys()
	sets["urls"] = keys.Dedup(keys.URLs(3000, 4))
	sets["empty-key-only"] = [][]byte{{}}
	sets["one-key"] = [][]byte{[]byte("solo")}
	for name, ks := range sets {
		t.Run(name, func(t *testing.T) {
			checkStaticOracle(t, ks, staticValues(len(ks), []byte(name)), staticProbes(ks))
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

// FuzzStaticOps builds the stage over a fuzz-derived key set — its parts and
// every concatenation of two of them, so the empty key, prefix chains and
// 0xFF labels come up — with values of widths 0 to 64, and holds it to the
// sorted slice.
func FuzzStaticOps(f *testing.F) {
	f.Add([]byte("seed-corpus-entry"))
	f.Add([]byte{0, 1, 'a', 2, 'a', 0, 3, 'a', 0, 0, 1, 0xff, 2, 0xff, 0xff, 9, 'p', 'r', 'e', 'f', 'i', 'x'})
	f.Add(bytes.Repeat([]byte{0xff}, 60))
	f.Add(bytes.Repeat([]byte{3, 'a', 'b'}, 30))
	f.Add([]byte{1, 'x'})
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
		checkStaticOracle(t, ks, staticValues(len(ks), data), append(staticProbes(ks), data))
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
// leaves on the heap, with packed values and with the plain-slot fallback.
func TestStaticMemoryUsageMatchesHeap(t *testing.T) {
	datasets := map[string][][]byte{
		"hope-emails": hopeEncoded(t, keys.Dedup(keys.Emails(200000, 1))),
		"random-u64":  keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(200000, 1))),
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
// in key order the values cost ~11 bits; the compact B+tree's budgets on the
// same sets are 105 / 122 / 176 / 126. Uniform random 64-bit values must cost
// exactly 64-bit slots.
func TestStaticBitsPerKeyBudget(t *testing.T) {
	emails := keys.Dedup(keys.Emails(100000, 1))
	for _, tc := range []struct {
		name   string
		ks     [][]byte
		budget float64 // with IDs in key order
	}{
		{"hope-emails", hopeEncoded(t, emails), 58},
		{"raw-emails", emails, 69},
		{"urls", keys.Dedup(keys.URLs(100000, 1)), 119},
		{"random-u64", keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(100000, 1))), 92},
	} {
		for _, random := range []bool{false, true} {
			s, err := NewStatic(entriesOf(tc.ks, random))
			if err != nil {
				t.Fatal(err)
			}
			perKey := float64(s.MemoryUsage()) * 8 / float64(s.Len())
			t.Logf("%s, random values %v: %.1f bits/key", tc.name, random, perKey)
			if !random && perKey > tc.budget {
				t.Errorf("%s: %.1f bits/key exceeds the budget of %.0f", tc.name, perKey, tc.budget)
			}
			tr := &s.t
			slots := bits.AllocSize(8*tr.numDenseLeaves) + bits.AllocSize(8*tr.numSparseLeaves)
			if values := tr.dValues.MemoryUsage() + tr.sValues.MemoryUsage(); random && values != slots {
				t.Errorf("%s, random values: %d B of values, want exactly the %d B of 64-bit slots", tc.name, values, slots)
			}
		}
	}
}
