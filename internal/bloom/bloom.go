// Package bloom implements a standard Bloom filter with k independent hash
// probes derived from a 64-bit mix function (double hashing), matching the
// filter RocksDB uses as adapted in the thesis (§4.3: a 64-bit variant so
// false-positive rates track theory at large n). A probe's 64-bit hash h is
// mapped to a bit of the m-bit vector by Lemire's multiply-shift range
// reduction, the high word of h·m, instead of h mod m: one multiplication
// in place of a 64-bit division, with the same near-uniform spread.
package bloom

import (
	"math"
	mathbits "math/bits"

	"mets/internal/bits"
)

// Filter is an approximate-membership filter with one-sided error: Contains
// never returns false for an added key.
type Filter struct {
	bv      *bits.Vector
	numBits uint64
	k       int
}

// New creates a filter sized for expectedKeys at bitsPerKey bits per key.
// The number of hash functions is the standard optimum ln2 * bits/key.
func New(expectedKeys int, bitsPerKey float64) *Filter {
	numBits := uint64(float64(expectedKeys) * bitsPerKey)
	if numBits < 64 {
		numBits = 64
	}
	k := int(bitsPerKey * math.Ln2)
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	return &Filter{bv: bits.NewVector(int(numBits)), numBits: numBits, k: k}
}

// Build constructs a filter over the given keys at bitsPerKey.
func Build(ks [][]byte, bitsPerKey float64) *Filter {
	f := New(len(ks), bitsPerKey)
	for _, k := range ks {
		f.Add(k)
	}
	return f
}

// Add inserts key into the filter.
func (f *Filter) Add(key []byte) {
	h1, h2 := hash128(key)
	for i := 0; i < f.k; i++ {
		f.bv.Set(f.bit(h1 + uint64(i)*h2))
	}
}

// Contains reports whether key may be in the filter. False means definitely
// absent.
func (f *Filter) Contains(key []byte) bool {
	h1, h2 := hash128(key)
	for i := 0; i < f.k; i++ {
		if !f.bv.Get(f.bit(h1 + uint64(i)*h2)) {
			return false
		}
	}
	return true
}

// AddAtomic inserts key with atomic bit stores, for filters probed by
// lock-free readers while a (single) writer keeps inserting.
func (f *Filter) AddAtomic(key []byte) {
	h1, h2 := hash128(key)
	for i := 0; i < f.k; i++ {
		f.bv.SetAtomic(f.bit(h1 + uint64(i)*h2))
	}
}

// ContainsAtomic is Contains over atomic bit loads, safe to run concurrently
// with AddAtomic. One-sided error is preserved: a key fully added before the
// probe began is always found; a key being added concurrently may or may not
// be, either of which is linearizable.
func (f *Filter) ContainsAtomic(key []byte) bool {
	h1, h2 := hash128(key)
	for i := 0; i < f.k; i++ {
		if !f.bv.GetAtomic(f.bit(h1 + uint64(i)*h2)) {
			return false
		}
	}
	return true
}

// bit maps probe hash h onto [0, numBits): the high word of h·numBits.
func (f *Filter) bit(h uint64) int {
	hi, _ := mathbits.Mul64(h, f.numBits)
	return int(hi)
}

// MemoryUsage returns the filter's size in bytes.
func (f *Filter) MemoryUsage() int64 { return f.bv.MemoryUsage() + 32 }

// Hash64 exposes the filter's 64-bit key hash for reuse (e.g. SuRF-Hash
// suffixes use the same mixer).
func Hash64(key []byte) uint64 {
	h1, _ := hash128(key)
	return h1
}

// hash128 computes two independent 64-bit hashes of key using a
// Murmur3-style block mixer.
func hash128(key []byte) (uint64, uint64) {
	const (
		c1 = 0x87c37b91114253d5
		c2 = 0x4cf5ad432745937f
	)
	var h1, h2 uint64 = 0x9368e53c2f6af274, 0x586dcd208f7cd3fd
	i := 0
	for ; i+16 <= len(key); i += 16 {
		k1 := le64(key[i:])
		k2 := le64(key[i+8:])
		k1 *= c1
		k1 = rotl(k1, 31)
		k1 *= c2
		h1 ^= k1
		h1 = rotl(h1, 27) + h2
		h1 = h1*5 + 0x52dce729
		k2 *= c2
		k2 = rotl(k2, 33)
		k2 *= c1
		h2 ^= k2
		h2 = rotl(h2, 31) + h1
		h2 = h2*5 + 0x38495ab5
	}
	var k1, k2 uint64
	tail := key[i:]
	for j, b := range tail {
		if j < 8 {
			k1 |= uint64(b) << (8 * uint(j))
		} else {
			k2 |= uint64(b) << (8 * uint(j-8))
		}
	}
	k2 *= c2
	k2 = rotl(k2, 33)
	k2 *= c1
	h2 ^= k2
	k1 *= c1
	k1 = rotl(k1, 31)
	k1 *= c2
	h1 ^= k1
	h1 ^= uint64(len(key))
	h2 ^= uint64(len(key))
	h1 += h2
	h2 += h1
	h1 = fmix(h1)
	h2 = fmix(h2)
	h1 += h2
	h2 += h1
	return h1, h2
}

func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func rotl(x uint64, r uint) uint64 { return x<<r | x>>(64-r) }

func fmix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
