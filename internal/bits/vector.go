// Package bits provides bit vectors with constant-time rank and select
// support, following the lightweight lookup-table designs of Fast Succinct
// Tries (Zhang, "Memory-Efficient Search Trees for Database Management
// Systems", §3.6): a single-level rank LUT with a configurable basic-block
// size and a sampled select LUT. Beside them are a static structure's value
// array (FOR), in whichever of three forms is smallest for its input —
// plain slots, frame-of-reference deltas, or Elias–Fano for values that
// never decrease, whose select reuses the broadword select-in-word — and the
// allocator rounding memory accounting charges (AllocSize).
package bits

import (
	mathbits "math/bits"
	"sync/atomic"
)

// Vector is a growable bit vector. The zero value is an empty vector ready
// to use. Bits are numbered from zero.
type Vector struct {
	words []uint64
	n     int
}

// NewVector returns a vector pre-sized to hold n bits, all zero.
func NewVector(n int) *Vector {
	return &Vector{words: make([]uint64, (n+63)/64), n: n}
}

// FromWords wraps an existing word slice as an n-bit vector (used when
// deserializing); the slice is not copied.
func FromWords(words []uint64, n int) *Vector {
	return &Vector{words: words, n: n}
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Words exposes the underlying word slice (read-only use).
func (v *Vector) Words() []uint64 { return v.words }

// Get reports whether bit i is set.
func (v *Vector) Get(i int) bool {
	return v.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i to one. The bit must be within Len.
func (v *Vector) Set(i int) {
	v.words[i>>6] |= 1 << (uint(i) & 63)
}

// GetAtomic reports whether bit i is set, with an atomic word load so it may
// race with SetAtomic on the same word (the Bloom filter in front of an
// epoch-read dynamic stage probes while the writer inserts).
func (v *Vector) GetAtomic(i int) bool {
	return atomic.LoadUint64(&v.words[i>>6])&(1<<(uint(i)&63)) != 0
}

// SetAtomic sets bit i to one with an atomic read-modify-write, safe against
// concurrent GetAtomic readers. Concurrent SetAtomic callers are also safe
// with respect to each other, though the filter's writers are expected to be
// externally serialized.
func (v *Vector) SetAtomic(i int) {
	addr := &v.words[i>>6]
	mask := uint64(1) << (uint(i) & 63)
	for {
		old := atomic.LoadUint64(addr)
		if old&mask != 0 || atomic.CompareAndSwapUint64(addr, old, old|mask) {
			return
		}
	}
}

// NextSet returns the smallest position p with from <= p < limit whose bit
// is set, or -1 if there is none. limit is clamped to Len.
func (v *Vector) NextSet(from, limit int) int {
	if limit > v.n {
		limit = v.n
	}
	if from < 0 {
		from = 0
	}
	if from >= limit {
		return -1
	}
	w := from >> 6
	word := v.words[w] &^ (1<<(uint(from)&63) - 1)
	for {
		if word != 0 {
			p := w*64 + mathbits.TrailingZeros64(word)
			if p >= limit {
				return -1
			}
			return p
		}
		w++
		if w*64 >= limit {
			return -1
		}
		word = v.words[w]
	}
}

// MemoryUsage returns the number of bytes used by the vector payload.
func (v *Vector) MemoryUsage() int64 {
	return int64(len(v.words)*8) + 16
}

// maskUpTo returns a mask with bits 0..b inclusive set.
func maskUpTo(b uint) uint64 {
	if b >= 63 {
		return ^uint64(0)
	}
	return (uint64(1) << (b + 1)) - 1
}

// selectInByte[b][i] is the position of the (i+1)-th set bit in byte b.
var selectInByte [256][8]uint8

func init() {
	for b := 0; b < 256; b++ {
		n := 0
		for bit := 0; bit < 8; bit++ {
			if b&(1<<uint(bit)) != 0 {
				selectInByte[b][n] = uint8(bit)
				n++
			}
		}
	}
}

// selectInWord returns the position (0-based) of the i-th (1-based) set bit
// within word w, or 64 if w has fewer than i set bits. It is broadword: the
// byte popcounts are summed into running totals by one multiply, one masked
// subtract marks the bytes whose total is still below i, and the first byte
// not marked holds the bit.
func selectInWord(w uint64, i int) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	s := w - w>>1&0x5555555555555555
	s = s&0x3333333333333333 + s>>2&0x3333333333333333
	s = (s + s>>4) & 0x0F0F0F0F0F0F0F0F
	sums := s * ones // byte k: the set bits in bytes 0..k
	// A byte's high bit survives the subtract while its total is at most i-1
	// (both are below 128, so no byte borrows from the next).
	below := (uint64(i-1)*ones | highs) - sums
	k := uint(mathbits.TrailingZeros64(^below&highs)) >> 3
	if k == 8 {
		return 64
	}
	before := int(sums<<8>>(k*8)) & 0xFF
	return int(k*8) + int(selectInByte[w>>(k*8)&0xFF][i-before-1])
}
