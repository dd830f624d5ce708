package hope

import (
	"encoding/binary"

	"mets/internal/keys"
)

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
	switch dict := e.dict.(type) {
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

// DecodeAppend appends the decoded source string to dst and returns the
// extended slice. It allocates nothing when dst has capacity — the alloc-free
// counterpart of Encoder.EncodeAppend for the scan-emit hot path.
func (d *Decoder) DecodeAppend(dst, enc []byte, nbits int) []byte {
	return d.decode(dst, enc, 0, nbits, nil)
}

// decode appends what enc decodes to from bit pos on; when ends is non-nil
// it also records where every code it passes stops.
func (d *Decoder) decode(dst, enc []byte, pos, nbits int, ends *[]codeEnd) []byte {
	var sym [8]byte
	for pos < nbits {
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
		if ends != nil {
			*ends = append(*ends, codeEnd{bit: int32(pos), out: int32(len(dst))})
		}
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

// RunDecoder decodes a run of encoded keys, resuming each one where it stops
// sharing bits with the one before — the decode twin of Encoder.EncodeBatch.
// It keeps the previous encoded key, its decoded bytes and where each of its
// codes ended. Codes are prefix-free, so a code that ends inside the bits two
// keys share decodes identically in both: the next key starts from the last
// such end instead of from bit 0. That is correct for any input order; it
// saves work only when neighbours share a prefix, as the keys a range scan
// emits do (sorted emails share about two thirds of their bits). Not safe for
// concurrent use; a Decoder hands out any number of them.
type RunDecoder struct {
	d    *Decoder
	enc  []byte    // previous encoded key
	out  []byte    // its decoded bytes
	ends []codeEnd // ends[i]: where its (i+1)-th code stopped
	// First backing arrays of the three slices above, so a run over short
	// keys costs the one allocation of this struct.
	encBuf  [64]byte
	outBuf  [96]byte
	endsBuf [48]codeEnd
}

// codeEnd is the state of a decode just after one code: the bit position
// reached in the encoded key and the bytes decoded so far.
type codeEnd struct{ bit, out int32 }

// NewRun returns a run decoder with no previous key.
func (d *Decoder) NewRun() *RunDecoder {
	r := &RunDecoder{d: d}
	r.enc, r.out, r.ends = r.encBuf[:0], r.outBuf[:0], r.endsBuf[:0]
	return r
}

// Next decodes enc, a whole encoded key as Encoder.Encode returns it, and
// returns the source string: what Decoder.DecodeAppend(nil, enc, len(enc)*8)
// returns, in a buffer the decoder owns — valid until the next call and not
// to be modified.
func (r *RunDecoder) Next(enc []byte) []byte {
	shared := keys.CommonPrefixBits(r.enc, enc)
	keep := len(r.ends)
	for keep > 0 && int(r.ends[keep-1].bit) > shared {
		keep--
	}
	pos, n := 0, 0
	if keep > 0 {
		pos, n = int(r.ends[keep-1].bit), int(r.ends[keep-1].out)
	}
	r.ends = r.ends[:keep]
	r.enc = append(r.enc[:shared/8], enc[shared/8:]...)
	r.out = r.d.decode(r.out[:n], enc, pos, len(enc)*8, &r.ends)
	return r.out
}
