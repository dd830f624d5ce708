package bits

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"
)

// checkFOR encodes values and holds every Get, and Iter from starts inside
// and across blocks, to the input. It also checks the form the build chose:
// a coded form only when it has fewer words than plain slots, Elias–Fano
// only for values that never decrease and only when it has fewer words than
// the packed form, plain exactly when it is the input slice itself. Rising
// values are also decoded from the Elias–Fano form at the width the build
// would pick and at widths 63 and, when the span allows, 0.
func checkFOR(t testing.TB, values []uint64) FOR {
	t.Helper()
	want := append([]uint64(nil), values...)
	rising := slices.IsSorted(want)
	f := NewFOR(values)
	checkDecode(t, f, want, "NewFOR")
	if coded(f) && len(f.data) >= len(want) {
		t.Fatalf("coded form of %d words chosen for %d values", len(f.data), len(want))
	}
	if !coded(f) && len(want) > 0 && &f.data[0] != &values[0] {
		t.Fatal("plain form copied its input")
	}
	if isEF(f) {
		p := NewFORBuilder(len(want), false)
		for i, v := range want {
			p.Frame(i, v)
		}
		if !rising {
			t.Fatal("Elias–Fano form chosen for values that fall")
		}
		if p.coded() && len(p.FOR().data) <= len(f.data) {
			t.Fatalf("Elias–Fano form of %d words chosen over a packed one of %d", len(f.data), len(p.FOR().data))
		}
	}
	if rising {
		// Search on every form the values can take: the chosen one, plain
		// slots, and the packed form where it is smaller than plain.
		checkSearch(t, f, want, "NewFOR")
		checkSearch(t, FOR{data: want, n: len(want)}, want, "plain")
		p := NewFORBuilder(len(want), false)
		for i, v := range want {
			p.Frame(i, v)
		}
		for i, v := range want {
			p.Put(i, v)
		}
		checkSearch(t, p.FOR(), want, "unrising builder")
	}
	// The builder, handed the values in any order, lays out the same words.
	order := rand.New(rand.NewSource(int64(len(want)))).Perm(len(want))
	b := NewFORBuilder(len(want), rising)
	for _, i := range order {
		b.Frame(i, want[i])
	}
	for _, i := range order {
		b.Put(i, want[i])
	}
	if g := b.FOR(); g.n != f.n || !slices.Equal(g.data, f.data) {
		t.Fatalf("n=%d form=%s: FORBuilder in shuffled order differs from NewFOR", len(want), form(f))
	}
	if rising && len(want) > 0 {
		u := want[len(want)-1] - want[0]
		low, _ := efSize(len(want), u)
		lows := []uint{low, 63}
		if u < 1<<20 {
			lows = append(lows, 0)
		}
		for _, l := range lows {
			what := fmt.Sprintf("Elias–Fano at width %d", l)
			checkDecode(t, efForm(want, l), want, what)
			checkSearch(t, efForm(want, l), want, what)
		}
	}
	return f
}

// checkDecode holds every Get of f, and Iter from starts inside and across
// blocks and samples, to want.
func checkDecode(t testing.TB, f FOR, want []uint64, what string) {
	t.Helper()
	if f.Len() != len(want) {
		t.Fatalf("%s: Len = %d, want %d", what, f.Len(), len(want))
	}
	for i, v := range want {
		if got := f.Get(i); got != v {
			t.Fatalf("%s n=%d form=%s: Get(%d) = %#x, want %#x", what, len(want), form(f), i, got, v)
		}
	}
	for _, from := range []int{0, 1, forBlock - 1, forBlock + 1, efSample - 1, efSample, efSample + 1, len(want) / 2} {
		it := f.Iter(from)
		for i := from; i < len(want); i++ {
			if got := it.Next(); got != want[i] {
				t.Fatalf("%s n=%d form=%s: Iter(%d) value %d = %#x, want %#x", what, len(want), form(f), from, i, got, want[i])
			}
		}
	}
}

// checkSearch holds Search on f, whose values want never decrease, to
// sort.Search for probes below, at, between and above the values, 0 and
// MaxUint64: the index, and the value there or 0 past the end.
func checkSearch(t testing.TB, f FOR, want []uint64, what string) {
	t.Helper()
	probes := []uint64{0, 1, ^uint64(0) - 1, ^uint64(0)}
	for i, v := range want {
		probes = append(probes, v-1, v, v+1)
		if i > 0 {
			probes = append(probes, want[i-1]+(v-want[i-1])/2)
		}
	}
	for _, x := range probes {
		wantI, wantV := sort.Search(len(want), func(i int) bool { return want[i] >= x }), uint64(0)
		if wantI < len(want) {
			wantV = want[wantI]
		}
		if got, v := f.Search(x); got != wantI || v != wantV {
			t.Fatalf("%s n=%d form=%s: Search(%#x) = %d,%#x, want %d,%#x", what, len(want), form(f), x, got, v, wantI, wantV)
		}
	}
}

// efForm encodes rising values in the Elias–Fano form at low width low,
// whichever form the build would choose. An array of exactly n words would
// read as plain, so it gets a spare word.
func efForm(values []uint64, low uint) FOR {
	n := uint64(len(values))
	b := NewFORBuilder(len(values), true)
	b.laid, b.form, b.base, b.low = true, formEF, values[0], low
	highs := n + (values[n-1]-values[0])>>low
	words := uint64(efLowsStart(len(values))) + (n*uint64(low)+63)/64 + (highs+63)/64
	if words == n {
		words++
	}
	b.layEF(words)
	for i, v := range values {
		b.Put(i, v)
	}
	return b.f
}

// coded reports whether the build chose a coded form.
func coded(f FOR) bool { return len(f.data) != f.n }

// isEF reports whether the build chose the Elias–Fano form.
func isEF(f FOR) bool { return coded(f) && f.ef() }

// form names the form the build chose.
func form(f FOR) string {
	switch {
	case isEF(f):
		return "Elias–Fano"
	case coded(f):
		return "packed"
	}
	return "plain"
}

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
			if n >= 3*forBlock && !coded(f) {
				t.Errorf("w=%d n=%d: width-%d blocks beside width-0 ones stayed plain", w, n, w)
			}
		}
	}
}

// TestShare moves arrays of every form, empty ones among them, into one
// allocation: each must decode and search as before, lie in order in one
// array whose size Share reports, and end with its own length as capacity.
func TestShare(t *testing.T) {
	runs := [][]uint64{
		shaped(1000, []uint{0}, 1), // one random value per block: packed
		nil,
		shaped(97, []uint{64}, 2), // random 64-bit values: plain
		{},
	}
	ids := make([]uint64, 5000)
	for i := range ids {
		ids[i] = uint64(3 * i)
	}
	runs = append(runs, ids) // Elias–Fano
	fs, ptrs, words := make([]FOR, len(runs)), make([]*FOR, len(runs)), 0
	for i, vs := range runs {
		fs[i], ptrs[i] = NewFOR(slices.Clone(vs)), &fs[i]
		words += len(fs[i].data)
	}
	if !isEF(fs[4]) || !coded(fs[0]) || isEF(fs[0]) || coded(fs[2]) {
		t.Fatal("the runs do not take the three forms")
	}
	if got, want := Share(ptrs...), AllocSize(8*words); got != want {
		t.Fatalf("Share reports %d B, want the %d B of one array of %d words", got, want, words)
	}
	next := unsafe.Pointer(&fs[0].data[0])
	for i, vs := range runs {
		checkDecode(t, fs[i], vs, fmt.Sprintf("shared run %d", i))
		if slices.IsSorted(vs) {
			checkSearch(t, fs[i], vs, fmt.Sprintf("shared run %d", i))
		}
		if d := fs[i].data; len(d) > 0 {
			if unsafe.Pointer(&d[0]) != next || cap(d) != len(d) {
				t.Fatalf("run %d does not follow the one before it in the shared array, or reaches past its end", i)
			}
			next = unsafe.Add(next, 8*len(d))
		}
	}
}

// TestFORChoosesTheSmallerForm pins the input-driven choice on the value
// distributions the B+tree and the static trie see: IDs in key order take
// the Elias–Fano form at about 2 bits, sorted 48-bit addresses at about
// log2(2^48/n) + 2, values that rise a block at a time the packed form's
// width-0 blocks, random 48-bit addresses the packed form at 48 plus the
// frame, and random 64-bit values stay plain.
func TestFORChoosesTheSmallerForm(t *testing.T) {
	const n = 10000
	rng := rand.New(rand.NewSource(1))
	order, steps, addrs, random := make([]uint64, n), make([]uint64, n), make([]uint64, n), make([]uint64, n)
	for i := range order {
		order[i] = uint64(i) + 1
		steps[i] = uint64(i/forBlock) << 40
		addrs[i] = rng.Uint64() >> 16
		random[i] = rng.Uint64()
	}
	sorted := slices.Clone(addrs)
	slices.Sort(sorted)
	for _, tc := range []struct {
		name    string
		values  []uint64
		form    string
		maxBits float64 // per value, frame, header and samples included
	}{
		{"key order", order, "Elias–Fano", 2.5},
		{"sorted 48-bit addresses", sorted, "Elias–Fano", 37.5},
		{"rising a block at a time", steps, "packed", 3.5},
		{"48-bit addresses", addrs, "packed", 51.5},
		{"random 64-bit", random, "plain", 64},
	} {
		f := checkFOR(t, tc.values)
		bits := float64(len(f.data)) * 64 / n
		t.Logf("%s: %.2f bits/value (%s)", tc.name, bits, form(f))
		if bits > tc.maxBits {
			t.Errorf("%s: %.2f bits/value, want <= %.1f", tc.name, bits, tc.maxBits)
		}
		if form(f) != tc.form {
			t.Errorf("%s: form %s, want %s", tc.name, form(f), tc.form)
		}
	}
}

// forValues derives a value array from fuzz input. A first byte that is 0
// mod 4 reads the rest as raw little-endian uint64s (the last one
// zero-padded): arbitrary slices. One that is 2 mod 4 builds values that
// never decrease (risingValues). An odd one builds a shaped array: its length
// is a multiple of the block give or take one, and each block's width is
// picked by an input byte from 0, 1, 63, 64 and widths that straddle words.
func forValues(data []byte) []uint64 {
	if len(data) == 0 {
		return nil
	}
	mode, rest := data[0], data[1:]
	switch mode % 4 {
	case 0:
		vs := make([]uint64, (len(rest)+7)/8)
		for i := range vs {
			var w [8]byte
			copy(w[:], rest[i*8:])
			vs[i] = binary.LittleEndian.Uint64(w[:])
		}
		return vs
	case 2:
		return risingValues(mode, rest)
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

// risingValues builds values that never decrease: their count is picked from
// 1, 2, 31, 32, 33 and 257 by the first byte of rest, and each step up from
// the value before by the next bytes in turn: 0 (a duplicate, so runs of
// equal values), 1, a few bits, 32 bits or 63 bits, saturating at
// MaxUint64. The values start at 0 when mode has 0x10 set, else high in the
// range, and the last is MaxUint64 when mode has 0x20 set. So the universe
// ranges from 0 — low width 0 — to the whole 64 bits over two values — low
// width 63.
func risingValues(mode byte, rest []byte) []uint64 {
	counts := []int{1, 2, 31, 32, 33, 257}
	steps := []uint64{0, 0, 1, 5, 300, 1 << 32, 1 << 63, 3}
	n, stepBytes := counts[0], []byte{2}
	if len(rest) > 0 {
		n = counts[int(rest[0])%len(counts)]
		if len(rest) > 1 {
			stepBytes = rest[1:]
		}
	}
	v := uint64(mode) << 56
	if mode&0x10 != 0 {
		v = 0
	}
	vs := make([]uint64, n)
	for i := range vs {
		if i > 0 {
			step := steps[stepBytes[(i-1)%len(stepBytes)]%8]
			v += min(step, ^uint64(0)-v)
		}
		vs[i] = v
	}
	if mode&0x20 != 0 {
		vs[n-1] = ^uint64(0)
	}
	return vs
}

// FuzzFORRoundTrip encodes the arrays forValues derives and decodes every
// value back.
func FuzzFORRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{0xff, 3, 2, 1, 0, 4, 5, 6, 7})
	f.Add([]byte{0x45, 0, 3, 0, 2})
	f.Add(append([]byte{0}, make([]byte, 8*70)...))
	// Rising values: one value; 0 then MaxUint64 (low width 63); 257
	// consecutive values from 0 (low width 0); 33 with duplicates and runs
	// ending at MaxUint64; 32 and 31 with wide and narrow steps.
	f.Add([]byte{0x02})
	f.Add([]byte{0x32, 1, 0})
	f.Add([]byte{0x12, 5, 2})
	f.Add([]byte{0x22, 4, 0, 1, 0, 0, 2, 3})
	f.Add([]byte{0x16, 3, 4, 5, 2})
	f.Add([]byte{0x0e, 2, 6, 0, 3})
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

// BenchmarkFORGet decodes values at scattered positions of a 1M-value array
// in each form: IDs in key order (Elias–Fano, 2 bits each: 256 KiB), the
// same IDs shuffled within each block of 32 (packed, 5-bit deltas: 1 MiB),
// and random 64-bit values (plain: 8 MiB).
func BenchmarkFORGet(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(1))
	order, blocks, random := make([]uint64, n), make([]uint64, n), make([]uint64, n)
	for i := range order {
		order[i], random[i] = uint64(i)+1, rng.Uint64()
	}
	copy(blocks, order)
	for lo := 0; lo < n; lo += forBlock {
		blk := blocks[lo : lo+forBlock]
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	}
	for _, tc := range []struct {
		name, form string
		values     []uint64
	}{{"key order", "Elias–Fano", order}, {"shuffled in blocks", "packed", blocks}, {"random 64-bit", "plain", random}} {
		f := NewFOR(tc.values)
		if form(f) != tc.form {
			b.Fatalf("%s: form %s, want %s", tc.name, form(f), tc.form)
		}
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

// TestFORSearchSkewed runs Search over rising values whose high parts crowd
// into few select samples, so the guess from the high bits' zeros lands far
// from the answer: cubic growth, and runs of consecutive values far apart.
func TestFORSearchSkewed(t *testing.T) {
	const n = 5000
	cubic, runs := make([]uint64, n), make([]uint64, n)
	for i := range cubic {
		cubic[i] = uint64(i) * uint64(i) * uint64(i)
		runs[i] = uint64(i/1000)<<50 + uint64(i%1000)
	}
	// checkFOR also searches the Elias–Fano form at the width the build
	// weighs, whichever form it picks.
	for _, values := range [][]uint64{cubic, runs} {
		checkFOR(t, values)
	}
}

// TestFORSearchAllocs holds Search to no allocation in each form.
func TestFORSearchAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sorted, steps := make([]uint64, 10000), make([]uint64, 10000)
	for i := range sorted {
		sorted[i], steps[i] = rng.Uint64()>>16, uint64(i/forBlock)<<40
	}
	slices.Sort(sorted)
	for _, values := range [][]uint64{sorted, steps, {1, 5, 9}} {
		f := NewFOR(values)
		x := uint64(0)
		if a := testing.AllocsPerRun(100, func() {
			x += 1 << 30
			i, v := f.Search(x)
			sink += uint64(i) + v
		}); a != 0 {
			t.Errorf("Search, form %s: %.1f allocs/op, want 0", form(f), a)
		}
	}
}

// BenchmarkFORSearch searches scattered values of a 1M-value rising array in
// the Elias–Fano form: sorted random 48-bit addresses, about 30 bits each.
func BenchmarkFORSearch(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(1))
	values := make([]uint64, n)
	for i := range values {
		values[i] = rng.Uint64() >> 16
	}
	slices.Sort(values)
	f := NewFOR(slices.Clone(values))
	if form(f) != "Elias–Fano" {
		b.Fatalf("form %s, want Elias–Fano", form(f))
	}
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		j, _ := f.Search(values[uint32(i)*2654435761%n])
		sum += uint64(j)
	}
	sink = sum
}

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
