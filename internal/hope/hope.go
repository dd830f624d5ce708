// Package hope implements the High-speed Order-Preserving Encoder of
// Chapter 6: a dictionary-based string compressor for search-tree keys.
// Encoding is complete (any key encodes) and order-preserving (byte-wise
// comparison of encoded keys matches the source order), so compressed keys
// can be inserted into any of this repository's trees and still support
// range queries.
//
// Six schemes are provided, following Table 6.1:
//
//	Single-Char   FIVC  256 one-byte intervals, optimal alphabetic codes
//	Double-Char   FIVC  65536 two-byte intervals, alphabetic codes
//	ALM           VIFC  variable-length intervals, fixed-length codes
//	3-Grams       VIVC  3-byte gram intervals, alphabetic codes
//	4-Grams       VIVC  4-byte gram intervals, alphabetic codes
//	ALM-Improved  VIVC  variable-length intervals, alphabetic codes
//
// The N-gram and ALM schemes require keys free of 0x00 bytes (as in the
// reference implementation); integer keys should use Single-Char.
package hope

import (
	"fmt"
	"time"

	"mets/internal/keys"
)

// Scheme selects a compression scheme.
type Scheme int

const (
	SingleChar Scheme = iota
	DoubleChar
	ALM
	ThreeGrams
	FourGrams
	ALMImproved
)

// Schemes lists every scheme in evaluation order.
var Schemes = []Scheme{SingleChar, DoubleChar, ALM, ThreeGrams, FourGrams, ALMImproved}

// String returns the scheme's paper name.
func (s Scheme) String() string {
	switch s {
	case SingleChar:
		return "Single-Char"
	case DoubleChar:
		return "Double-Char"
	case ALM:
		return "ALM"
	case ThreeGrams:
		return "3-Grams"
	case FourGrams:
		return "4-Grams"
	case ALMImproved:
		return "ALM-Improved"
	}
	return "?"
}

// Encoder encodes keys using a trained dictionary.
type Encoder struct {
	scheme Scheme
	dict   dictionary

	// BuildStats records the two build phases for Fig 6.12.
	BuildStats struct {
		SymbolSelect time.Duration // symbol counting + interval construction
		CodeAssign   time.Duration // code assignment (alphabetic / fixed)
		DictBuild    time.Duration // final dictionary structure
	}
}

// Train builds an encoder of the given scheme from a key sample.
// dictLimit caps the number of dictionary entries (power of two between 2^8
// and 2^16 in the thesis; ignored by Single/Double-Char whose sizes are
// fixed).
func Train(sample [][]byte, scheme Scheme, dictLimit int) (*Encoder, error) {
	if len(sample) == 0 {
		return nil, fmt.Errorf("hope: empty sample")
	}
	if dictLimit <= 0 {
		dictLimit = 1 << 16
	}
	e := &Encoder{scheme: scheme}
	switch scheme {
	case SingleChar:
		t0 := time.Now()
		var weights [256]uint64
		for _, k := range sample {
			for _, b := range k {
				weights[b]++
			}
		}
		e.BuildStats.SymbolSelect = time.Since(t0)
		t0 = time.Now()
		codes := assignAlphabeticCodes(weights[:])
		e.BuildStats.CodeAssign = time.Since(t0)
		t0 = time.Now()
		d := &singleCharDict{}
		copy(d.codes[:], codes)
		e.dict = d
		e.BuildStats.DictBuild = time.Since(t0)
	case DoubleChar:
		t0 := time.Now()
		weights := make([]uint64, 65536)
		for _, k := range sample {
			i := 0
			for ; i+2 <= len(k); i += 2 {
				weights[int(k[i])<<8|int(k[i+1])]++
			}
			if i < len(k) {
				weights[int(k[i])<<8]++
			}
		}
		e.BuildStats.SymbolSelect = time.Since(t0)
		t0 = time.Now()
		codes := assignAlphabeticCodes(weights)
		e.BuildStats.CodeAssign = time.Since(t0)
		t0 = time.Now()
		e.dict = &doubleCharDict{codes: codes}
		e.BuildStats.DictBuild = time.Since(t0)
	case ThreeGrams, FourGrams, ALM, ALMImproved:
		t0 := time.Now()
		var grams [][]byte
		switch scheme {
		case ThreeGrams:
			grams = collectGrams(sample, 3, dictLimit/2)
		case FourGrams:
			grams = collectGrams(sample, 4, dictLimit/2)
		default:
			grams = collectSubstrings(sample, 8, dictLimit/2)
		}
		ivs := buildIntervals(grams)
		// Weight intervals by simulating encoding over the sample.
		weights := make([]uint64, len(ivs))
		probe := newIntervalDict(ivs, make([]Code, len(ivs)))
		for _, k := range sample {
			for pos := 0; pos < len(k); {
				i := probe.find(headAt(k, pos), len(k)-pos)
				weights[i]++
				pos += int(probe.entries[i].symLen)
			}
		}
		e.BuildStats.SymbolSelect = time.Since(t0)
		t0 = time.Now()
		var codes []Code
		if scheme == ALM {
			codes = assignFixedCodes(len(ivs))
		} else {
			codes = assignAlphabeticCodes(weights)
		}
		e.BuildStats.CodeAssign = time.Since(t0)
		t0 = time.Now()
		e.dict = newIntervalDict(ivs, codes)
		e.BuildStats.DictBuild = time.Since(t0)
	default:
		return nil, fmt.Errorf("hope: unknown scheme %d", scheme)
	}
	return e, nil
}

// Scheme returns the encoder's scheme.
func (e *Encoder) Scheme() Scheme { return e.scheme }

// NumEntries returns the dictionary size.
func (e *Encoder) NumEntries() int { return e.dict.numEntries() }

// MemoryUsage returns the dictionary size in bytes.
func (e *Encoder) MemoryUsage() int64 { return e.dict.memoryUsage() }

// Encode compresses key into an order-preserving byte string (bit codes
// padded with zeros to a byte boundary).
func (e *Encoder) Encode(key []byte) []byte {
	b, _ := e.EncodeBits(key)
	return b
}

// EncodeAppend appends the encoding of key to dst and returns the extended
// slice. dst must end on a byte boundary (it always does: encodings are
// zero-padded to whole bytes). No allocation happens when dst has capacity,
// which makes this the scan-emit hot path for codec-backed indexes.
func (e *Encoder) EncodeAppend(dst, key []byte) []byte {
	w := bitWriter{buf: dst}
	w = e.dict.encode(w, key, 0, nil)
	return w.finish()
}

// EncodeBits compresses key, additionally returning the exact bit length.
func (e *Encoder) EncodeBits(key []byte) ([]byte, int) {
	w := bitWriter{buf: make([]byte, 0, len(key))}
	w = e.dict.encode(w, key, 0, nil)
	nbits := w.bitLen()
	return w.finish(), nbits
}

// EncodeBatch compresses a sorted batch, reusing the encoded prefix of the
// previous key up to the last symbol boundary inside the shared prefix
// (the batch/pair-encoding optimization of §6.2.2).
func (e *Encoder) EncodeBatch(sorted [][]byte) [][]byte {
	out := make([][]byte, len(sorted))
	var prevKey, prevBuf []byte
	var prev, cur marks // symbol boundaries of the previous and current key
	for i, key := range sorted {
		lcp := keys.CommonPrefixLen(prevKey, key)
		// Find the last previous symbol boundary far enough inside the
		// common prefix that the dictionary cannot distinguish the two keys
		// from there.
		safe := lcp - e.dict.contextBytes()
		kept := 0
		for kept < len(prev) && int(prev[kept].srcPos) <= safe {
			kept++
		}
		cur = append(cur[:0], prev[:kept]...)
		resume, resumeBits := 0, 0
		if kept > 0 {
			resume, resumeBits = int(prev[kept-1].srcPos), int(prev[kept-1].bitPos)
		}
		w := resumeBitWriter(prevBuf, resumeBits, len(key))
		w = e.dict.encode(w, key, resume, &cur)
		out[i] = w.finish()
		prevKey, prevBuf = key, out[i]
		prev, cur = cur, prev
	}
	return out
}

// CompressionRate returns total source bytes divided by total encoded bytes
// over the given keys (the CPR metric of §6.1.2, measured byte-wise as the
// trees store whole bytes).
func (e *Encoder) CompressionRate(ks [][]byte) float64 {
	var src, enc int64
	for _, k := range ks {
		src += int64(len(k))
		enc += int64(len(e.Encode(k)))
	}
	if enc == 0 {
		return 0
	}
	return float64(src) / float64(enc)
}
