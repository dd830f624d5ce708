package bits

import (
	mathbits "math/bits"
	"slices"
	"sort"
)

// forBlock is how many values share one frame of reference: a leaf group of
// the packed B+tree.
const forBlock = 32

// efSample is how many values of the Elias–Fano form share one select
// sample.
const efSample = 256

// FOR is a read-only array of uint64 values in the smallest of three forms,
// which the input chooses; nothing is configured:
//
//   - plain: the values themselves, one 64-bit slot each;
//   - packed (frame of reference): values are cut into blocks of 32; a block
//     stores its minimum (the base) once and each value as a delta from it,
//     bit-packed at the width the block's spread (max − min) needs. Values
//     that are neighbours in some order — tuple IDs loaded in key order —
//     cost a few bits each instead of 64;
//   - Elias–Fano, for values that never decrease: value i minus the first
//     value is split into its low `low` bits, stored packed, and its high
//     part h, stored as a set bit at position h+i of a unary bit array. n
//     values spread over a universe U cost about 2 + log2(U/n) bits each,
//     however far apart the neighbours are, where a packed block pays for
//     its widest delta and its 96-bit frame.
//
// A coded form is kept only when it has fewer words than the plain one, and
// Elias–Fano only when it also has fewer than the packed one.
//
// The packed form lives in one word array:
//   - a table of blocks+1 record starts, two uint32 to a word, each in 32-bit
//     units from the start of the array. A record is 2 units of base plus
//     `width` units of deltas (32 deltas × width bits), so a block's width is
//     the distance to the next start minus 2 and is not stored;
//   - per block, its record: the 64-bit base, then its deltas (a short last
//     block reserves a full block's room);
//   - zero padding, so a read that starts anywhere up to the end of the last
//     record — a width-0 block's delta starts there — may load two words.
//
// The Elias–Fano form lives in one word array too:
//   - a header word: 0 in its low half, which tells it from the packed form
//     (whose first start is never 0), and in its high half the word the high
//     bits start at << 6 | the low width;
//   - the first value, the base;
//   - one select sample per 256 values, two uint32 to a word: sample j is
//     where value 256j's high bit is, counted from the first high bit;
//   - the low bits, n × low, from a word boundary;
//   - the high bits, from a word boundary.
type FOR struct {
	// data is one of the coded forms, or the values themselves: a coded form
	// is kept only when it has fewer words, so the array is plain exactly
	// when it holds n words.
	data []uint64
	n    int
}

// NewFOR encodes values. The slice is taken over: when no coded form is
// smaller it becomes the plain form, so the caller must not modify it.
func NewFOR(values []uint64) FOR {
	b := NewFORBuilder(len(values), slices.IsSorted(values))
	for i, v := range values {
		b.Frame(i, v)
	}
	if !b.coded() {
		return FOR{data: values, n: len(values)}
	}
	for i, v := range values {
		b.Put(i, v)
	}
	return b.f
}

// FORBuilder encodes n values that arrive in any order. Each value is handed
// over twice: first to Frame, then, once every value has been framed, to
// Put. A structure whose values reach their slots out of order — the static
// trie's leaves arrive in key order, its slots are in level order — builds
// its FOR without first gathering the values in a 64-bit array.
type FORBuilder struct {
	f FOR
	// rising is the caller's word that the values never decrease in index
	// order, which admits the Elias–Fano form.
	rising bool
	// Per block: its minimum (the base), and its maximum until the layout,
	// which replaces it with where its deltas start << 8 | their width.
	lo, hi []uint64
	laid   bool // the form is chosen and, when coded, the array laid out
	form   forForm
	// The Elias–Fano form: the first value, the low width, and the words the
	// low and the high bits start at.
	base        uint64
	low, lw, hw uint
}

type forForm uint8

const (
	formPlain forForm = iota
	formPacked
	formEF
)

// NewFORBuilder returns a builder for n values. rising says the values never
// decrease in index order; the builder takes the caller's word for it and
// weighs the Elias–Fano form only then.
func NewFORBuilder(n int, rising bool) *FORBuilder {
	blocks := (n + forBlock - 1) / forBlock
	b := &FORBuilder{f: FOR{n: n}, rising: rising, lo: make([]uint64, blocks), hi: make([]uint64, blocks)}
	for k := range b.lo {
		b.lo[k] = ^uint64(0)
	}
	return b
}

// Frame takes value i into its block's frame.
func (b *FORBuilder) Frame(i int, v uint64) {
	k := i / forBlock
	b.lo[k], b.hi[k] = min(b.lo[k], v), max(b.hi[k], v)
}

// coded reports whether a coded form was chosen, choosing on its first call.
func (b *FORBuilder) coded() bool {
	if !b.laid {
		b.layout()
	}
	return b.form != formPlain
}

// layout chooses the form from the frames and lays out the coded array: the
// packed form's start table and every block's base, or the Elias–Fano
// header.
func (b *FORBuilder) layout() {
	b.laid = true
	blocks := len(b.lo)
	if blocks == 0 {
		return
	}
	efWords := uint64(1<<64 - 1)
	if b.rising {
		b.base = b.lo[0]
		b.low, efWords = efSize(b.f.n, b.hi[blocks-1]-b.base)
	}
	units := uint64(blocks + 1) // the start table
	for k := range b.hi {
		b.hi[k] = uint64(mathbits.Len64(b.hi[k] - b.lo[k]))
		units += 2 + b.hi[k]
	}
	words := units/2 + 2
	if units > 1<<32-1 {
		words = 1<<64 - 1
	}
	switch {
	case min(words, efWords) >= uint64(b.f.n): // plain: no coded form is smaller
	case words <= efWords:
		b.form = formPacked
		b.layPacked(words)
	default:
		b.form = formEF
		b.layEF(efWords)
	}
}

// layPacked allocates the packed array and writes its start table and every
// block's base.
func (b *FORBuilder) layPacked(words uint64) {
	f, blocks := &b.f, len(b.lo)
	f.data = make([]uint64, words)
	s := uint64(blocks + 1)
	for k, w := range b.hi {
		f.data[k>>1] |= s << (k & 1 * 32)
		f.or(uint(s)*32, b.lo[k])
		b.hi[k] = (s*32+64)<<8 | w
		s += 2 + w
	}
	f.data[blocks>>1] |= s << (blocks & 1 * 32)
}

// efSize returns the low width that makes the Elias–Fano form of n values
// spread over u+1 smallest — of equal sizes, the widest, whose high bits are
// the fewest to scan — and its size in words; the size is the largest uint64
// when no width fits the header's and the samples' fields.
func efSize(n int, u uint64) (low uint, words uint64) {
	words = 1<<64 - 1
	lw := uint64(efLowsStart(n))
	for l := uint(0); l < 64; l++ {
		highs := uint64(n) + min(u>>l, 1<<32)
		hw := lw + (uint64(n)*uint64(l)+63)/64
		if highs > 1<<32 || hw >= 1<<26 {
			continue
		}
		if w := hw + (highs+63)/64; w <= words {
			low, words = l, w
		}
	}
	return low, words
}

// efLowsStart returns the word the low bits of n values start at: past the
// header, the base and the samples.
func efLowsStart(n int) uint {
	samples := uint(n+efSample-1) / efSample
	return 2 + (samples+1)/2
}

// layEF allocates the Elias–Fano array and writes its header.
func (b *FORBuilder) layEF(words uint64) {
	f := &b.f
	f.data = make([]uint64, words)
	b.lw = efLowsStart(f.n)
	b.hw = b.lw + (uint(f.n)*b.low+63)/64
	f.data[0] = uint64(b.hw<<6|b.low) << 32
	f.data[1] = b.base
}

// Put stores value i; every value must have been framed.
func (b *FORBuilder) Put(i int, v uint64) {
	f := &b.f
	b.coded()
	switch b.form {
	case formPlain:
		if f.data == nil {
			f.data = make([]uint64, f.n)
		}
		f.data[i] = v
	case formPacked:
		k := i / forBlock
		h := b.hi[k]
		f.or(uint(h>>8)+uint(i%forBlock)*uint(h&0xFF), v-b.lo[k])
	case formEF:
		d := v - b.base
		if b.low != 0 {
			f.or(b.lw*64+uint(i)*b.low, d&(1<<b.low-1))
		}
		p := uint(d>>b.low) + uint(i)
		f.data[b.hw+p>>6] |= 1 << (p & 63)
		if j := uint(i); j%efSample == 0 {
			j /= efSample
			f.data[2+j>>1] |= uint64(p) << (j & 1 * 32)
		}
	}
}

// FOR returns the encoded array once every value has been put.
func (b *FORBuilder) FOR() FOR {
	b.coded()
	return b.f
}

// or sets the bits of v from bit position p on; they must be clear. A field
// may end in the next word, which the padding guarantees is there.
func (f *FOR) or(p uint, v uint64) {
	k, off := p>>6, p&63
	f.data[k] |= v << off
	if off != 0 {
		f.data[k+1] |= v >> (64 - off)
	}
}

// read returns the 64 bits from bit position p on. It always loads two words:
// at a word boundary the second one shifts out (a shift by 64 yields 0).
func (f *FOR) read(p uint) uint64 {
	k, off := p>>6, p&63
	return f.data[k]>>off | f.data[k+1]<<(64-off)
}

// start returns where block b's record begins, in 32-bit units.
func (f *FOR) start(b uint) uint {
	return uint(uint32(f.data[b>>1] >> (b & 1 * 32)))
}

// ef reports whether a coded array is the Elias–Fano form.
func (f *FOR) ef() bool { return uint32(f.data[0]) == 0 }

// efLayout returns the Elias–Fano form's low width and the words its low and
// high bits start at.
func (f *FOR) efLayout() (low, lw, hw uint) {
	h := uint(f.data[0] >> 32)
	return h & 63, efLowsStart(f.n), h >> 6
}

// efSelect returns the bit position, in the array, of the high bit value i
// set: the nearest sample's position, then a popcount scan word by word and a
// select in the last word.
func (f *FOR) efSelect(i int, hw uint) uint {
	p := f.efSample(i/efSample) + hw*64
	w := p >> 6
	word := f.data[w] &^ (1<<(p&63) - 1)
	r := i%efSample + 1 // the sampled bit is the first
	for c := mathbits.OnesCount64(word); c < r; c = mathbits.OnesCount64(word) {
		r -= c
		w++
		word = f.data[w]
	}
	return w*64 + uint(selectInWord(word, r))
}

// Len returns the number of values.
func (f *FOR) Len() int { return f.n }

// Get returns value i, which must be below Len.
func (f *FOR) Get(i int) uint64 {
	if len(f.data) == f.n {
		return f.data[i]
	}
	if f.ef() {
		low, lw, hw := f.efLayout()
		v := f.data[1] + uint64(f.efSelect(i, hw)-hw*64-uint(i))<<low
		if low != 0 {
			v += f.read(lw*64+uint(i)*low) & (1<<low - 1)
		}
		return v
	}
	b := uint(i) / forBlock
	s := f.start(b)
	w := f.start(b+1) - s - 2
	p := s * 32
	return f.read(p) + f.read(p+64+uint(i)%forBlock*w)&(1<<w-1)
}

// Search returns the first index whose value is at least x, and that value;
// Len and 0 when there is none. The values must never decrease. It
// allocates nothing.
func (f *FOR) Search(x uint64) (int, uint64) {
	var i int
	switch {
	case len(f.data) == f.n:
		i = sort.Search(f.n, func(i int) bool { return f.data[i] >= x })
	case f.ef():
		return f.efSearch(x)
	default:
		i = f.packedSearch(x)
	}
	if i == f.n {
		return i, 0
	}
	return i, f.Get(i)
}

// packedSearch is Search's index in the packed form: the first block whose
// base, its first value, is at least x starts where the answer is or ends
// the block it lies in.
func (f *FOR) packedSearch(x uint64) int {
	b := sort.Search((f.n+forBlock-1)/forBlock, func(b int) bool { return f.read(f.start(uint(b))*32) >= x })
	if b == 0 {
		return 0
	}
	lo := (b - 1) * forBlock
	s := f.start(uint(b - 1))
	w := f.start(uint(b)) - s - 2
	base, p := f.read(s*32), s*32+64
	return lo + sort.Search(min(forBlock, f.n-lo), func(j int) bool { return base+f.read(p+uint(j)*w)&(1<<w-1) >= x })
}

// efSearch is Search in the Elias–Fano form. The values whose high part is
// below x's, hx, are the set bits before the hx-th zero of the high bits: a
// search of the select samples by their high parts (efLastBelow) finds where
// to start counting zeros, a popcount scan word by word finds that zero, and
// the set bits after it, up to the next zero, are the values whose high part
// is hx, told apart by their low bits; one of them that is found is decoded
// in place.
func (f *FOR) efSearch(x uint64) (int, uint64) {
	base := f.data[1]
	if x <= base {
		return 0, base
	}
	low, lw, hw := f.efLayout()
	d := x - base
	hx, lx := d>>low, d&(1<<low-1)
	j := f.efLastBelow(hx, hw)
	i, p, zeros := 0, hw*64, hx
	if j >= 0 {
		s := f.efSample(j)
		i, p = j*efSample, hw*64+s
		zeros -= uint64(s - uint(i))
	}
	if zeros > 0 {
		w := p >> 6
		word := ^f.data[w] &^ (1<<(p&63) - 1)
		for c := uint64(mathbits.OnesCount64(word)); c < zeros; c = uint64(mathbits.OnesCount64(word)) {
			zeros -= c
			if w++; w == uint(len(f.data)) {
				return f.n, 0
			}
			word = ^f.data[w]
		}
		// The hx-th zero: every set bit before it is a value below x.
		z := w*64 + uint(selectInWord(word, int(zeros)))
		p = z + 1
		i = int(uint64(z-hw*64) + 1 - hx)
	}
	// The values whose high part is hx, then the first one past them.
	for ; i < f.n; i, p = i+1, p+1 {
		var l uint64
		if low != 0 {
			l = f.read(lw*64+uint(i)*low) & (1<<low - 1)
		}
		if f.data[p>>6]>>(p&63)&1 == 0 {
			return i, f.Get(i)
		}
		if l >= lx {
			return i, base + hx<<low + l
		}
	}
	return f.n, 0
}

// efLastBelow returns the last select sample whose value's high part is
// below hx, or -1. The high parts spread about evenly over the samples when
// the values do, so the search starts from where hx falls in the high bits'
// zeros — of which there are at most their bits less n — and gallops from
// there.
func (f *FOR) efLastBelow(hx uint64, hw uint) int {
	samples := (f.n + efSample - 1) / efSample
	below := func(j int) bool { return uint64(f.efSample(j)-uint(j)*efSample) < hx }
	g := samples - 1
	if zeros := uint64(len(f.data)-int(hw))*64 - uint64(f.n); hx < zeros {
		hi, lo := mathbits.Mul64(hx, uint64(f.n))
		q, _ := mathbits.Div64(hi, lo, zeros)
		g = min(int(q/efSample), g)
	}
	// Gallop from the guess, doubling the step, until the answer is
	// bracketed as lo < hi with below(lo) and !below(hi) — taking below(-1)
	// and !below(samples) — and halve the bracket once a step leaves it.
	lo, hi := -1, samples
	for step := 1; hi-lo > 1; step <<= 1 {
		if below(g) {
			lo, g = g, g+step
		} else {
			hi, g = g, g-step
		}
		if g <= lo || g >= hi {
			g = int(uint(lo+hi) >> 1)
		}
	}
	return lo
}

// efSample returns select sample j: where value 256j's high bit is, counted
// from the first high bit.
func (f *FOR) efSample(j int) uint {
	return uint(uint32(f.data[2+j>>1] >> (j & 1 * 32)))
}

// Iter returns an iterator over the values from i on.
func (f *FOR) Iter(i int) FORIter { return FORIter{f: f, i: i, end: i} }

// FORIter decodes values in order: a block's frame is loaded once, then each
// value is one read, one mask and one add. In the Elias–Fano form the one
// frame is the whole array, and a value's high part is the next set bit of
// the high bits, found by a trailing-zero count.
type FORIter struct {
	f          *FOR
	i, end     int // the next value; where the loaded frame stops applying
	base, mask uint64
	p, w       uint // the next delta's (low bits') position; the frame's (low) width
	// Elias–Fano only: the first high bit's position (0 in the other forms),
	// the word of the high bits being walked, and its set bits not decoded.
	hbit, hw uint
	word     uint64
}

// Next returns the next value; there must be one.
func (it *FORIter) Next() uint64 {
	if it.i == it.end {
		it.load()
	}
	v := it.base
	if it.hbit != 0 {
		for it.word == 0 {
			it.hw++
			it.word = it.f.data[it.hw]
		}
		p := it.hw*64 + uint(mathbits.TrailingZeros64(it.word))
		it.word &= it.word - 1
		v += uint64(p-it.hbit-uint(it.i)) << it.w
	}
	it.i++
	if it.mask != 0 {
		v += it.f.read(it.p) & it.mask
		it.p += it.w
	}
	return v
}

// load loads the frame value it.i is in. The plain form has no frames: each
// value is its own, a base with no delta.
func (it *FORIter) load() {
	f, i := it.f, it.i
	if len(f.data) == f.n {
		it.base, it.mask, it.end = f.data[i], 0, i+1
		return
	}
	if f.ef() {
		low, lw, hw := f.efLayout()
		p := f.efSelect(i, hw)
		it.base, it.mask, it.w, it.end = f.data[1], 1<<low-1, low, f.n
		it.p, it.hbit, it.hw = lw*64+uint(i)*low, hw*64, p>>6
		it.word = f.data[it.hw] &^ (1<<(p&63) - 1)
		return
	}
	b := uint(i) / forBlock
	s := f.start(b)
	it.w = f.start(b+1) - s - 2
	it.base, it.mask = f.read(s*32), 1<<it.w-1
	it.p = s*32 + 64 + uint(i)%forBlock*it.w
	it.end = int(b+1) * forBlock
}

// MemoryUsage returns the bytes the allocator handed out for the array; the
// holder charges the struct itself.
func (f *FOR) MemoryUsage() int64 { return SliceAlloc(f.data) }
