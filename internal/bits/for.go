package bits

import mathbits "math/bits"

// forBlock is how many values share one frame of reference: a leaf group of
// the packed B+tree.
const forBlock = 32

// FOR is a read-only frame-of-reference array of uint64 values. Values are
// cut into blocks of 32; a block stores its minimum (the base) once and each
// value as a delta from it, bit-packed at the width the block's spread
// (max − min) needs. Values that are neighbours in some order — tuple IDs
// loaded in key order — cost a few bits each instead of 64. When the packed
// form would not be smaller than one 64-bit slot per value, the build keeps
// the values as they are: that choice is made from the input, not configured.
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
type FOR struct {
	// data is the packed form, or the values themselves: the packed form is
	// kept only when it has fewer words, so the array is plain exactly when
	// it holds n words.
	data []uint64
	n    int
}

// NewFOR encodes values. The slice is taken over: when the packed form is not
// smaller it becomes the plain form, so the caller must not modify it.
func NewFOR(values []uint64) FOR {
	b := NewFORBuilder(len(values))
	for i, v := range values {
		b.Frame(i, v)
	}
	if !b.packed() {
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
	// Per block: its minimum (the base), and its maximum until the layout,
	// which replaces it with where its deltas start << 8 | their width.
	lo, hi []uint64
	laid   bool // the form is chosen and, when packed, the array laid out
	plain  bool
}

// NewFORBuilder returns a builder for n values.
func NewFORBuilder(n int) *FORBuilder {
	blocks := (n + forBlock - 1) / forBlock
	b := &FORBuilder{f: FOR{n: n}, lo: make([]uint64, blocks), hi: make([]uint64, blocks)}
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

// packed reports whether the packed form was chosen, choosing on its first
// call.
func (b *FORBuilder) packed() bool {
	if !b.laid {
		b.layout()
	}
	return !b.plain
}

// layout chooses the form from the frames and lays out the packed array: the
// start table and every block's base.
func (b *FORBuilder) layout() {
	b.laid = true
	blocks := len(b.lo)
	units := uint64(blocks + 1) // the start table
	for k := range b.hi {
		b.hi[k] = uint64(mathbits.Len64(b.hi[k] - b.lo[k]))
		units += 2 + b.hi[k]
	}
	words := units/2 + 2
	if b.plain = words >= uint64(b.f.n) || units > 1<<32-1; b.plain {
		return
	}
	f := &b.f
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

// Put stores value i; every value must have been framed.
func (b *FORBuilder) Put(i int, v uint64) {
	f := &b.f
	if !b.packed() {
		if f.data == nil {
			f.data = make([]uint64, f.n)
		}
		f.data[i] = v
		return
	}
	k := i / forBlock
	h := b.hi[k]
	f.or(uint(h>>8)+uint(i%forBlock)*uint(h&0xFF), v-b.lo[k])
}

// FOR returns the encoded array once every value has been put.
func (b *FORBuilder) FOR() FOR {
	b.packed()
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

// Len returns the number of values.
func (f *FOR) Len() int { return f.n }

// Get returns value i, which must be below Len.
func (f *FOR) Get(i int) uint64 {
	if len(f.data) == f.n {
		return f.data[i]
	}
	b := uint(i) / forBlock
	s := f.start(b)
	w := f.start(b+1) - s - 2
	p := s * 32
	return f.read(p) + f.read(p+64+uint(i)%forBlock*w)&(1<<w-1)
}

// Iter returns an iterator over the values from i on.
func (f *FOR) Iter(i int) FORIter { return FORIter{f: f, i: i, end: i} }

// FORIter decodes values in order: a block's frame is loaded once, then each
// value is one read, one mask and one add.
type FORIter struct {
	f          *FOR
	i, end     int // the next value; where the loaded frame stops applying
	base, mask uint64
	p, w       uint // the next delta's bit position; the frame's width
}

// Next returns the next value; there must be one.
func (it *FORIter) Next() uint64 {
	if it.i == it.end {
		it.load()
	}
	it.i++
	v := it.base
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
