package hope

import "encoding/binary"

// dictionary encodes a key one longest-applicable entry at a time.
type dictionary interface {
	// encode writes the codes of key[pos:] to w and returns it (by value: a
	// pointer passed through the interface would move every writer to the
	// heap). When m is non-nil it also records every symbol boundary it
	// passes (batch encoding resumes from them).
	encode(w bitWriter, key []byte, pos int, m *marks) bitWriter
	numEntries() int
	memoryUsage() int64
	// contextBytes is the number of leading source bytes a lookup may
	// inspect; batch encoding only reuses prefix bits segmented at least
	// this far inside the shared prefix.
	contextBytes() int
}

// codeBytes is the in-memory size of a Code (and of a dictEntry).
const codeBytes = 16

// marks are the symbol boundaries of one encoded key.
type marks []mark

type mark struct {
	srcPos int32
	bitPos int32
}

func (m *marks) add(srcPos int, w *bitWriter) {
	if m != nil {
		*m = append(*m, mark{srcPos: int32(srcPos), bitPos: int32(w.bitLen())})
	}
}

// singleCharDict is the FIFC/FIVC single-character dictionary: 256
// fixed-length intervals.
type singleCharDict struct {
	codes [256]Code
}

func (d *singleCharDict) encode(w bitWriter, key []byte, pos int, m *marks) bitWriter {
	for ; pos < len(key); pos++ {
		w.writeCode(d.codes[key[pos]])
		m.add(pos+1, &w)
	}
	return w
}
func (d *singleCharDict) contextBytes() int  { return 1 }
func (d *singleCharDict) numEntries() int    { return 256 }
func (d *singleCharDict) memoryUsage() int64 { return 256 * codeBytes }

// doubleCharDict holds 65536 two-byte intervals; a trailing odd byte b is
// encoded with the (b, 0x00) entry (keys must therefore avoid 0x00, §6.2).
type doubleCharDict struct {
	codes []Code // 65536
}

func (d *doubleCharDict) encode(w bitWriter, key []byte, pos int, m *marks) bitWriter {
	for ; pos+2 <= len(key); pos += 2 {
		w.writeCode(d.codes[int(key[pos])<<8|int(key[pos+1])])
		m.add(pos+2, &w)
	}
	if pos < len(key) {
		w.writeCode(d.codes[int(key[pos])<<8])
		m.add(pos+1, &w)
	}
	return w
}
func (d *doubleCharDict) numEntries() int    { return 65536 }
func (d *doubleCharDict) contextBytes() int  { return 2 }
func (d *doubleCharDict) memoryUsage() int64 { return 65536 * codeBytes }

// maxBoundary is the longest interval boundary a dictionary can hold: the
// gram and ALM schemes select substrings of at most eight bytes, and
// successors and gap boundaries are never longer than what they derive from.
const maxBoundary = 8

// intervalDict is the general VIFC/VIVC dictionary. The interval lower
// bounds are packed left-aligned (big-endian, zero-padded) into one sorted
// integer array, so a lookup compares the key's next eight bytes, loaded as
// one integer, against a few adjacent array slots: a table over the first
// two bytes narrows the binary search to the boundaries that share them.
//
// Zero-padding keeps the order of boundaries and of 0x00-free keys: padded
// values differ at the first differing byte, and where one string is a
// proper prefix of the other the longer one has a nonzero byte against the
// shorter one's padding. Only a string that continues with 0x00 bytes can
// tie with its own prefix; find breaks that tie by length, which makes the
// search exact for every input.
type intervalDict struct {
	bounds  packedIndex
	entries []dictEntry // parallel to bounds.vals
	maxLo   int
}

// dictEntry is what a lookup needs of one interval, in one cache line slot.
type dictEntry struct {
	bits    uint64 // code word, left-aligned
	codeLen uint8
	symLen  uint8 // source bytes the interval consumes
	loLen   uint8 // length of the (unpadded) lower bound
}

// prefixBits is the width of the boundary prefix table: the first two key
// bytes.
const prefixBits = 16

// newIntervalDict packs intervals (sorted by lo, every lo and symbol at
// most maxBoundary bytes) with their codes.
func newIntervalDict(ivs []interval, codes []Code) *intervalDict {
	d := &intervalDict{entries: make([]dictEntry, len(ivs))}
	bounds := make([]uint64, len(ivs))
	for i, iv := range ivs {
		bounds[i] = headAt(iv.lo, 0)
		d.entries[i] = dictEntry{
			bits:    codes[i].Bits,
			codeLen: codes[i].Len,
			symLen:  uint8(len(iv.symbol)),
			loLen:   uint8(len(iv.lo)),
		}
		if len(iv.lo) > d.maxLo {
			d.maxLo = len(iv.lo)
		}
	}
	d.bounds = newPackedIndex(bounds, prefixBits)
	return d
}

// headAt returns key[pos:] the way boundaries are packed: its first eight
// bytes as a big-endian integer, zero-padded when fewer remain. One load
// serves every position of a key of eight bytes or more — near the end it is
// the key's last eight bytes shifted left.
func headAt(key []byte, pos int) uint64 {
	if pos+8 <= len(key) {
		return binary.BigEndian.Uint64(key[pos:])
	}
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key[len(key)-8:]) << (8 * uint(pos+8-len(key)))
	}
	var v uint64
	for i := pos; i < len(key); i++ {
		v |= uint64(key[i]) << (56 - 8*uint(i-pos))
	}
	return v
}

// lo returns interval i's lower bound.
func (d *intervalDict) lo(i int) []byte {
	return binary.BigEndian.AppendUint64(nil, d.bounds.vals[i])[:d.entries[i].loLen]
}

// find returns the interval containing the string whose packed head is head
// and whose length is n: the last boundary <= the string, or interval 0 for
// the empty string, which sorts below all of them.
func (d *intervalDict) find(head uint64, n int) int {
	i := d.bounds.floor(head)
	// A boundary equal to head under padding but longer than the string is
	// the string followed by 0x00 bytes, so it sorts above it.
	for i > 0 && d.bounds.vals[i] == head && int(d.entries[i].loLen) > n {
		i--
	}
	if i < 0 {
		i = 0
	}
	return i
}

func (d *intervalDict) encode(w bitWriter, key []byte, pos int, m *marks) bitWriter {
	for pos < len(key) {
		pos = d.emit(&w, d.find(headAt(key, pos), len(key)-pos), key, pos, m)
	}
	return w
}

// emit writes interval i's code for the symbol at key[pos:] and returns the
// position after it (the last symbol of a key may be cut short by its end).
func (d *intervalDict) emit(w *bitWriter, i int, key []byte, pos int, m *marks) int {
	e := &d.entries[i]
	w.writeCode(Code{Bits: e.bits, Len: e.codeLen})
	if pos += int(e.symLen); pos > len(key) {
		pos = len(key)
	}
	m.add(pos, w)
	return pos
}

func (d *intervalDict) numEntries() int   { return len(d.entries) }
func (d *intervalDict) contextBytes() int { return d.maxLo + 1 }
func (d *intervalDict) memoryUsage() int64 {
	return d.bounds.memoryUsage() + int64(len(d.entries))*codeBytes
}
