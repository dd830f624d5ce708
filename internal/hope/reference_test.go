package hope

import (
	"fmt"

	"mets/internal/keys"
)

// The encoder and decoder this package had before the packed kernels, kept
// as the oracle of the differential tests: a binary search over [][]byte
// boundaries through an interface, a bit writer that emits at most one byte
// per turn, and a decoder that binary-searches every code per symbol. It is
// built from an encoder's MarshalBinary bytes alone (the format the golden
// digests pin), so it shares no code with the kernels it checks.

type refDict interface {
	lookup(src []byte) (Code, int)
}

type refSingleChar struct{ codes [256]Code }

func (d *refSingleChar) lookup(src []byte) (Code, int) { return d.codes[src[0]], 1 }

type refDoubleChar struct{ codes []Code }

func (d *refDoubleChar) lookup(src []byte) (Code, int) {
	if len(src) >= 2 {
		return d.codes[int(src[0])<<8|int(src[1])], 2
	}
	return d.codes[int(src[0])<<8], 1
}

type refIntervalDict struct {
	los     [][]byte
	symLens []uint16
	codes   []Code
}

func (d *refIntervalDict) lookup(src []byte) (Code, int) {
	lo, hi := 0, len(d.los)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys.Compare(d.los[mid], src) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i := lo - 1
	if i < 0 {
		i = 0 // only the empty string sorts below the first interval
	}
	n := int(d.symLens[i])
	if n > len(src) {
		n = len(src)
	}
	return d.codes[i], n
}

type refBitWriter struct {
	buf   []byte
	nbits int
}

func (w *refBitWriter) writeCode(c Code) {
	bits := c.Bits
	n := int(c.Len)
	for n > 0 {
		byteIdx := w.nbits >> 3
		if byteIdx == len(w.buf) {
			w.buf = append(w.buf, 0)
		}
		free := 8 - (w.nbits & 7)
		take := n
		if take > free {
			take = free
		}
		chunk := byte(bits >> (64 - uint(take)))
		w.buf[byteIdx] |= chunk << uint(free-take)
		bits <<= uint(take)
		w.nbits += take
		n -= take
	}
}

// refCodec is the reference encoder plus the decoder over the same entries.
type refCodec struct {
	dict    refDict
	codes   []Code   // sorted ascending (dictionary order)
	symbols [][]byte // parallel
}

// newRefCodec parses the payload MarshalBinary writes.
func newRefCodec(e *Encoder) (*refCodec, error) {
	data, err := e.MarshalBinary()
	if err != nil {
		return nil, err
	}
	r := &byteReader{b: data[len(marshalMagic):]}
	r.u32() // version
	r.u32() // scheme
	c := &refCodec{}
	switch kind := r.u8(); kind {
	case dictKindSingle:
		d := &refSingleChar{}
		for b := range d.codes {
			d.codes[b] = r.code()
			c.codes = append(c.codes, d.codes[b])
			c.symbols = append(c.symbols, []byte{byte(b)})
		}
		c.dict = d
	case dictKindDouble:
		d := &refDoubleChar{codes: make([]Code, 65536)}
		for p := range d.codes {
			d.codes[p] = r.code()
			c.codes = append(c.codes, d.codes[p])
			c.symbols = append(c.symbols, []byte{byte(p >> 8), byte(p)})
		}
		c.dict = d
	case dictKindInterval:
		d := &refIntervalDict{}
		for n := int(r.u32()); n > 0; n-- {
			d.los = append(d.los, r.bytesCopy())
			d.symLens = append(d.symLens, r.u16())
			d.codes = append(d.codes, r.code())
		}
		for i := range d.los {
			c.codes = append(c.codes, d.codes[i])
			c.symbols = append(c.symbols, d.los[i][:d.symLens[i]])
		}
		c.dict = d
	default:
		return nil, fmt.Errorf("unknown dictionary kind %d", kind)
	}
	if r.err != nil || len(r.b) != 0 {
		return nil, fmt.Errorf("reference parse: err %v, %d bytes left", r.err, len(r.b))
	}
	return c, nil
}

// encodeBits is the old Encoder.EncodeBits.
func (c *refCodec) encodeBits(key []byte) ([]byte, int) {
	w := refBitWriter{buf: make([]byte, 0, len(key))}
	src := key
	for len(src) > 0 {
		code, n := c.dict.lookup(src)
		w.writeCode(code)
		src = src[n:]
	}
	return w.buf, w.nbits
}

// decodeAppend is the old Decoder.DecodeAppend.
func (c *refCodec) decodeAppend(dst, enc []byte, nbits int) []byte {
	pos := 0
	for pos < nbits {
		window := refReadWindow(enc, pos)
		// Largest code whose left-aligned bits are <= window.
		lo, hi := 0, len(c.codes)
		for lo < hi {
			mid := (lo + hi) / 2
			if c.codes[mid].Bits <= window {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		i := lo - 1
		if i < 0 {
			return dst // padding or corrupt input
		}
		code := c.codes[i]
		// Verify the code is a prefix of the window.
		if code.Len > 0 && (window>>(64-uint(code.Len))) != (code.Bits>>(64-uint(code.Len))) {
			return dst
		}
		dst = append(dst, c.symbols[i]...)
		pos += int(code.Len)
	}
	return dst
}

// refReadWindow reads the 64 bits starting at bit position pos, left-aligned
// in a uint64 (missing bits are zero).
func refReadWindow(enc []byte, pos int) uint64 {
	bi := pos >> 3
	off := uint(pos & 7)
	var v uint64
	shift := 56
	for k := bi; k < len(enc) && shift >= 0; k++ {
		v |= uint64(enc[k]) << uint(shift)
		shift -= 8
	}
	v <<= off
	if off != 0 && bi+8 < len(enc) {
		v |= uint64(enc[bi+8]) >> (8 - off)
	}
	return v
}
