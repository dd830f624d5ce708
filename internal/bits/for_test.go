package bits

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
)

// checkFOR encodes values and holds every Get, and Iter from starts inside
// and across blocks, to the input. It also checks
// the form the build chose: packed only when that has fewer words, plain
// exactly when it is the input slice itself.
func checkFOR(t testing.TB, values []uint64) FOR {
	t.Helper()
	want := append([]uint64(nil), values...)
	f := NewFOR(values)
	if f.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", f.Len(), len(want))
	}
	for i, v := range want {
		if got := f.Get(i); got != v {
			t.Fatalf("n=%d packed=%v: Get(%d) = %#x, want %#x", len(want), packed(f), i, got, v)
		}
	}
	for _, from := range []int{0, 1, forBlock - 1, forBlock + 1, len(want) / 2} {
		it := f.Iter(from)
		for i := from; i < len(want); i++ {
			if got := it.Next(); got != want[i] {
				t.Fatalf("n=%d packed=%v: Iter(%d) value %d = %#x, want %#x", len(want), packed(f), from, i, got, want[i])
			}
		}
	}
	if packed(f) && len(f.data) >= len(want) {
		t.Fatalf("packed form of %d words chosen for %d values", len(f.data), len(want))
	}
	if !packed(f) && len(want) > 0 && &f.data[0] != &values[0] {
		t.Fatal("plain form copied its input")
	}
	// The builder, handed the values in any order, lays out the same words.
	order := rand.New(rand.NewSource(int64(len(want)))).Perm(len(want))
	b := NewFORBuilder(len(want))
	for _, i := range order {
		b.Frame(i, want[i])
	}
	for _, i := range order {
		b.Put(i, want[i])
	}
	if g := b.FOR(); g.n != f.n || !slices.Equal(g.data, f.data) {
		t.Fatalf("n=%d packed=%v: FORBuilder in shuffled order differs from NewFOR", len(want), packed(f))
	}
	return f
}

// packed reports whether the build chose the frame-of-reference form.
func packed(f FOR) bool { return len(f.data) != f.n }

// shaped returns n values whose block b spans exactly widths[b%len(widths)]
// bits above a random base: the block holds its base and base+2^w-1, so the
// width the build derives is the one asked for.
func shaped(n int, widths []uint, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	vs := make([]uint64, n)
	for lo := 0; lo < n; lo += forBlock {
		w := widths[lo/forBlock%len(widths)]
		mask := uint64(1)<<w - 1
		base := rng.Uint64() >> min(w, 63) // room above the base for the spread
		hi := min(lo+forBlock, n)
		for i := lo; i < hi; i++ {
			vs[i] = base + rng.Uint64()&mask
		}
		vs[lo+rng.Intn(hi-lo)] = base
		vs[lo+rng.Intn(hi-lo)] = base + mask
	}
	return vs
}

// TestFORWidths sweeps every delta width the decoder distinguishes — 0, 1,
// widths whose deltas straddle a word boundary, 63 and 64 — over lengths
// around multiples of the block, so full blocks, a short last block and a
// lone value are all decoded. A wide block sits between width-0 blocks,
// which keeps the packed form smaller than plain slots.
func TestFORWidths(t *testing.T) {
	for _, w := range []uint{0, 1, 2, 5, 7, 31, 32, 33, 48, 63, 64} {
		for _, n := range []int{0, 1, 2, 31, 32, 33, 63, 64, 65, 95, 96, 97, 1000} {
			f := checkFOR(t, shaped(n, []uint{w, 0}, int64(w)*1000+int64(n)))
			if n >= 3*forBlock && !packed(f) {
				t.Errorf("w=%d n=%d: width-%d blocks beside width-0 ones stayed plain", w, n, w)
			}
		}
	}
}

// TestFORChoosesTheSmallerForm pins the input-driven choice on the value
// distributions the B+tree sees: IDs in key order pack to a few bits, random
// 48-bit addresses to 48 plus the frame, random 64-bit values stay plain.
func TestFORChoosesTheSmallerForm(t *testing.T) {
	const n = 10000
	rng := rand.New(rand.NewSource(1))
	order, addrs, random := make([]uint64, n), make([]uint64, n), make([]uint64, n)
	for i := range order {
		order[i] = uint64(i) + 1
		addrs[i] = rng.Uint64() >> 16
		random[i] = rng.Uint64()
	}
	for _, tc := range []struct {
		name    string
		values  []uint64
		maxBits float64 // per value, frame included
	}{
		{"key order", order, 8.5},
		{"48-bit addresses", addrs, 51.5},
		{"random 64-bit", random, 64},
	} {
		f := checkFOR(t, tc.values)
		bits := float64(len(f.data)) * 64 / n
		t.Logf("%s: %.2f bits/value (packed %v)", tc.name, bits, packed(f))
		if bits > tc.maxBits {
			t.Errorf("%s: %.2f bits/value, want <= %.1f", tc.name, bits, tc.maxBits)
		}
		if packed(f) == (tc.name == "random 64-bit") {
			t.Errorf("%s: packed = %v", tc.name, packed(f))
		}
	}
}

// forValues derives a value array from fuzz input. An even first byte reads
// the rest as raw little-endian uint64s (the last one zero-padded): arbitrary
// slices. An odd one builds a shaped array: its length is a multiple of the
// block give or take one, and each block's width is picked by an input byte
// from 0, 1, 63, 64 and widths that straddle words.
func forValues(data []byte) []uint64 {
	if len(data) == 0 {
		return nil
	}
	mode, rest := data[0], data[1:]
	if mode%2 == 0 {
		vs := make([]uint64, (len(rest)+7)/8)
		for i := range vs {
			var w [8]byte
			copy(w[:], rest[i*8:])
			vs[i] = binary.LittleEndian.Uint64(w[:])
		}
		return vs
	}
	choices := []uint{0, 1, 63, 64, 33, 17, 48, 5}
	widths := []uint{0}
	if len(rest) > 0 {
		widths = widths[:0]
		for _, b := range rest {
			widths = append(widths, choices[b%8])
		}
	}
	h := fnv.New64a()
	h.Write(data)
	n := max(int(mode>>1)%9*forBlock+int(mode>>5)%3-1, 0)
	return shaped(n, widths, int64(h.Sum64()))
}

// FuzzFORRoundTrip encodes the arrays forValues derives and decodes every
// value back.
func FuzzFORRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{0xff, 3, 2, 1, 0, 4, 5, 6, 7})
	f.Add([]byte{0x45, 0, 3, 0, 2})
	f.Add(append([]byte{0}, make([]byte, 8*70)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFOR(t, forValues(data))
	})
}

// TestAllocSizeMatchesRuntime holds the size-class table to the runtime: a
// slice grown from nothing gets the capacity its allocation rounds up to.
func TestAllocSizeMatchesRuntime(t *testing.T) {
	sizes := []int{0, 1, 7, 9, 100, 1000, 32767, 32768, 32769, 40000, 1 << 20, 1<<20 + 1}
	for _, c := range sizeClasses {
		sizes = append(sizes, c-1, c, c+1)
	}
	for _, n := range sizes {
		got := cap(append([]byte(nil), make([]byte, n)...))
		if want := AllocSize(n); int64(got) != want {
			t.Errorf("AllocSize(%d) = %d, runtime rounds to %d", n, want, got)
		}
	}
}

// BenchmarkFORGet decodes values at scattered positions of a 1M-value array:
// IDs in key order (packed, 5-bit deltas: 1 MiB) and random 64-bit values
// (the plain form: 8 MiB).
func BenchmarkFORGet(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(1))
	order, random := make([]uint64, n), make([]uint64, n)
	for i := range order {
		order[i], random[i] = uint64(i)+1, rng.Uint64()
	}
	for _, tc := range []struct {
		name   string
		values []uint64
	}{{"key order", order}, {"random 64-bit", random}} {
		f := NewFOR(tc.values)
		b.Run(tc.name, func(b *testing.B) {
			var sum uint64
			for i := 0; i < b.N; i++ {
				sum += f.Get(int(uint32(i) * 2654435761 % n))
			}
			sink = sum
		})
	}
}

var sink uint64

// BenchmarkNewFOR encodes 1M IDs in key order, the static stage's bulk-load
// and merge case.
func BenchmarkNewFOR(b *testing.B) {
	const n = 1 << 20
	src := make([]uint64, n)
	for i := range src {
		src[i] = uint64(i) + 1
	}
	values := make([]uint64, n)
	b.SetBytes(8 * n)
	for i := 0; i < b.N; i++ {
		copy(values, src)
		NewFOR(values)
	}
}
