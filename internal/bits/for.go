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
	n := len(values)
	blocks := (n + forBlock - 1) / forBlock
	bases, widths := make([]uint64, blocks), make([]uint8, blocks)
	units := uint64(blocks + 1) // the start table
	for b := range bases {
		bases[b], widths[b] = frame(values[b*forBlock : min(b*forBlock+forBlock, n)])
		units += 2 + uint64(widths[b])
	}
	words := units/2 + 2
	if words >= uint64(n) || units > 1<<32-1 {
		return FOR{data: values, n: n}
	}
	f := FOR{data: make([]uint64, words), n: n}
	s := uint64(blocks + 1)
	for b, w := range widths {
		f.data[b>>1] |= s << (b & 1 * 32)
		s += 2 + uint64(w)
	}
	f.data[blocks>>1] |= s << (blocks & 1 * 32)
	// The records follow the table, so one sequential pass writes them all.
	out := bitWriter{data: f.data, k: (blocks + 1) / 2}
	if blocks&1 == 0 { // the table ends in the low half of a word
		out.acc, out.n = f.data[out.k], 32
	}
	for b, base := range bases {
		out.write(base, 64)
		w := uint(widths[b])
		for _, v := range values[b*forBlock : min(b*forBlock+forBlock, n)] {
			out.write(v-base, w)
		}
	}
	out.flush()
	return f
}

// frame returns a block's base (its minimum) and the bits its deltas need.
func frame(vs []uint64) (base uint64, width uint8) {
	lo, hi := vs[0], vs[0]
	for _, v := range vs[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, uint8(mathbits.Len64(hi - lo))
}

// bitWriter appends bit fields to data from word k on; acc holds the n bits
// of the word being filled.
type bitWriter struct {
	data []uint64
	k    int
	acc  uint64
	n    uint
}

// write appends the w low bits of v; v must have no higher bit set.
func (o *bitWriter) write(v uint64, w uint) {
	o.acc |= v << (o.n & 63)
	if o.n+w < 64 {
		o.n += w
		return
	}
	o.data[o.k] = o.acc
	o.k++
	o.acc = v >> (64 - o.n) // all of v went in when n is 0: a shift by 64 is 0
	o.n = o.n + w - 64
}

// flush stores the word being filled, if it holds any bits.
func (o *bitWriter) flush() {
	if o.n > 0 {
		o.data[o.k] = o.acc
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
