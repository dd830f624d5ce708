package hope

import (
	"encoding/binary"
	"fmt"

	"mets/internal/keys"
)

// Serialized encoder layout (all integers little-endian):
//
//	magic "HOPE" | u32 version | u32 scheme | u8 dict kind | dict payload
//
// Dict payloads: single-char and double-char are their full fixed code
// tables; interval dictionaries store (lo, symLen, code) triples. The
// encoding is complete — an unmarshaled encoder produces bit-identical
// encodings — which is what lets SSTable filters and SuRF/FST payloads embed
// the dictionary and survive process restarts (§6 integration).
const marshalMagic = "HOPE"

const marshalVersion = 1

const (
	dictKindSingle byte = iota
	dictKindDouble
	dictKindInterval
)

type byteWriter struct{ b []byte }

func (w *byteWriter) u8(v byte)    { w.b = append(w.b, v) }
func (w *byteWriter) u16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *byteWriter) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *byteWriter) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *byteWriter) code(c Code)  { w.u64(c.Bits); w.u8(c.Len) }
func (w *byteWriter) bytes(p []byte) {
	w.u32(uint32(len(p)))
	w.b = append(w.b, p...)
}

type byteReader struct {
	b   []byte
	err error
}

func (r *byteReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("hope: truncated encoder payload")
	}
}

func (r *byteReader) take(n int) []byte {
	if r.err != nil || len(r.b) < n {
		r.fail()
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *byteReader) u8() byte {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *byteReader) u16() uint16 {
	p := r.take(2)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}

func (r *byteReader) u32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (r *byteReader) u64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// code reads one code word, rejecting what no code assignment produces and
// the kernels cannot take: a length outside 1..64 (a zero-length code never
// advances the decoder) or set bits below the code's own.
func (r *byteReader) code() Code {
	c := Code{Bits: r.u64(), Len: r.u8()}
	if r.err == nil && (c.Len == 0 || c.Len > 64 || c.Bits<<c.Len != 0) {
		r.err = fmt.Errorf("hope: malformed code word %#x/%d", c.Bits, c.Len)
	}
	return c
}

func (r *byteReader) bytesCopy() []byte {
	n := int(r.u32())
	p := r.take(n)
	if p == nil {
		return nil
	}
	return append([]byte(nil), p...)
}

// MarshalBinary serializes the encoder's scheme and full dictionary
// (boundaries plus canonical code table).
func (e *Encoder) MarshalBinary() ([]byte, error) {
	w := &byteWriter{b: make([]byte, 0, 1024)}
	w.b = append(w.b, marshalMagic...)
	w.u32(marshalVersion)
	w.u32(uint32(e.scheme))
	switch dict := e.dict.(type) {
	case *singleCharDict:
		w.u8(dictKindSingle)
		for _, c := range dict.codes {
			w.code(c)
		}
	case *doubleCharDict:
		w.u8(dictKindDouble)
		for _, c := range dict.codes {
			w.code(c)
		}
	case *intervalDict:
		w.u8(dictKindInterval)
		marshalIntervalDict(w, dict)
	default:
		return nil, fmt.Errorf("hope: cannot marshal dictionary %T", e.dict)
	}
	return w.b, nil
}

func marshalIntervalDict(w *byteWriter, d *intervalDict) {
	w.u32(uint32(len(d.entries)))
	for i, e := range d.entries {
		w.bytes(d.lo(i))
		w.u16(uint16(e.symLen))
		w.code(Code{Bits: e.bits, Len: e.codeLen})
	}
}

func unmarshalIntervalDict(r *byteReader) (*intervalDict, error) {
	n := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	// Every interval takes at least 4+2+9 payload bytes; bounding n by what
	// is left keeps a corrupt count from sizing the allocation.
	if n > len(r.b)/15 {
		r.fail()
		return nil, r.err
	}
	ivs := make([]interval, n)
	codes := make([]Code, n)
	for i := range ivs {
		lo := r.bytesCopy()
		symLen := int(r.u16())
		codes[i] = r.code()
		if r.err != nil {
			return nil, r.err
		}
		if len(lo) > maxBoundary {
			return nil, fmt.Errorf("hope: interval %d boundary is %d bytes, above the %d a dictionary can hold", i, len(lo), maxBoundary)
		}
		if symLen == 0 || symLen > len(lo) {
			return nil, fmt.Errorf("hope: interval %d symbol length %d outside 1..%d (its boundary length)", i, symLen, len(lo))
		}
		if i > 0 && keys.Compare(ivs[i-1].lo, lo) >= 0 {
			return nil, fmt.Errorf("hope: interval %d boundary %q does not sort after %q", i, lo, ivs[i-1].lo)
		}
		ivs[i] = interval{lo: lo, symbol: lo[:symLen]}
	}
	return newIntervalDict(ivs, codes), nil
}

// UnmarshalEncoder reconstructs an encoder serialized by MarshalBinary. The
// result encodes bit-identically to the original.
func UnmarshalEncoder(data []byte) (*Encoder, error) {
	if len(data) < len(marshalMagic) || string(data[:len(marshalMagic)]) != marshalMagic {
		return nil, fmt.Errorf("hope: bad encoder magic")
	}
	r := &byteReader{b: data[len(marshalMagic):]}
	if v := r.u32(); v != marshalVersion {
		return nil, fmt.Errorf("hope: unsupported encoder version %d", v)
	}
	e := &Encoder{scheme: Scheme(r.u32())}
	kind := r.u8()
	if r.err != nil {
		return nil, r.err
	}
	switch kind {
	case dictKindSingle:
		d := &singleCharDict{}
		for i := range d.codes {
			d.codes[i] = r.code()
		}
		e.dict = d
	case dictKindDouble:
		d := &doubleCharDict{codes: make([]Code, 65536)}
		for i := range d.codes {
			d.codes[i] = r.code()
		}
		e.dict = d
	case dictKindInterval:
		d, err := unmarshalIntervalDict(r)
		if err != nil {
			return nil, err
		}
		e.dict = d
	default:
		return nil, fmt.Errorf("hope: unknown dictionary kind %d", kind)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("hope: %d trailing bytes after encoder payload", len(r.b))
	}
	return e, nil
}
