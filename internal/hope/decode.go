package hope

import "encoding/binary"

// Decoder inverts an Encoder. Search-tree queries never decode (§6.2: HOPE
// optimizes for encoding speed), but the decoder serves the scan-emit path of
// codec-backed indexes (internal/keycodec), the unique-decodability property
// tests, and debugging.
//
// The code words sit in one sorted array under a table indexed by the top
// decodeBits bits of the code window: a code of at most decodeBits bits owns
// its table slots alone and resolves with one comparison; longer codes search
// only the codes sharing that prefix.
type Decoder struct {
	codes packedIndex // code words, left-aligned, in dictionary order
	syms  []decSym    // parallel to codes.vals
}

type decSym struct {
	sym     uint64 // symbol bytes, packed like an interval boundary
	symLen  uint8
	codeLen uint8
}

// decodeBits is the width of the decoder's first-level table.
const decodeBits = 12

// NewDecoder builds a decoder for the encoder's dictionary.
func (e *Encoder) NewDecoder() *Decoder {
	n := e.dict.numEntries()
	d := &Decoder{syms: make([]decSym, 0, n)}
	codes := make([]uint64, 0, n)
	add := func(c Code, sym uint64, symLen uint8) {
		codes = append(codes, c.Bits)
		d.syms = append(d.syms, decSym{sym: sym, symLen: symLen, codeLen: c.Len})
	}
	dict := e.dict
	if t, ok := dict.(*bitmapTrieDict); ok {
		dict = t.fallback // the trie only accelerates the same intervals
	}
	switch dict := dict.(type) {
	case *singleCharDict:
		for b, c := range dict.codes {
			add(c, uint64(b)<<56, 1)
		}
	case *doubleCharDict:
		for p, c := range dict.codes {
			add(c, uint64(p)<<48, 2)
		}
	case *intervalDict:
		for i, e := range dict.entries {
			// The symbol is a prefix of the boundary; bytes past symLen are
			// never emitted.
			add(Code{Bits: e.bits, Len: e.codeLen}, dict.bounds.vals[i], e.symLen)
		}
	}
	d.codes = newPackedIndex(codes, decodeBits)
	return d
}

// MemoryUsage returns the size of the decode tables in bytes.
func (d *Decoder) MemoryUsage() int64 {
	return d.codes.memoryUsage() + int64(len(d.syms))*codeBytes
}

// Decode reconstructs the source string from an encoded bit string of the
// given exact bit length. Passing len(enc)*8 also works: no codeword is
// all-zero (see reserveZeroCode), so the byte-boundary padding zeros match
// nothing and decoding stops by itself.
func (d *Decoder) Decode(enc []byte, nbits int) []byte {
	return d.DecodeAppend(nil, enc, nbits)
}

// DecodeAppend appends the decoded source string to dst and returns the
// extended slice. It allocates nothing when dst has capacity — the alloc-free
// counterpart of Encoder.EncodeAppend for the scan-emit hot path.
func (d *Decoder) DecodeAppend(dst, enc []byte, nbits int) []byte {
	var sym [8]byte
	for pos := 0; pos < nbits; {
		window := readWindow(enc, pos)
		i := d.codes.floor(window)
		if i < 0 {
			return dst // padding or corrupt input
		}
		s := &d.syms[i]
		// The largest code <= window decodes only if it is a prefix of it.
		if (window^d.codes.vals[i])>>(64-uint(s.codeLen)) != 0 {
			return dst
		}
		binary.BigEndian.PutUint64(sym[:], s.sym)
		dst = append(dst, sym[:s.symLen]...)
		pos += int(s.codeLen)
	}
	return dst
}

// readWindow reads the 64 bits starting at bit position pos, left-aligned in
// a uint64 (missing bits are zero).
func readWindow(enc []byte, pos int) uint64 {
	bi, off := pos>>3, uint(pos&7)
	v := headAt(enc, bi) << off
	if bi+8 < len(enc) {
		v |= uint64(enc[bi+8]) >> (8 - off)
	}
	return v
}
