package bits

import (
	"fmt"
	mathbits "math/bits"
	"unsafe"
)

// RankVector augments a bit vector with a single-level rank lookup table
// (one 32-bit precomputed rank per basic block). With blockSize = 64 at most
// one popcount is needed per query (the LOUDS-Dense configuration); with
// blockSize = 512 a block fits a cache line's worth of payload and the LUT
// adds only 6.25% space (the LOUDS-Sparse configuration).
//
// Capacity limit: because LUT entries are 32-bit, a RankVector supports at
// most 2^32 - 1 set bits (~4.3 billion — a multi-hundred-GB trie, far beyond
// a single static stage). NewRankVector panics past that rather than silently
// truncating ranks; see checkLUTCapacity.
type RankVector struct {
	Vector
	blockSize  int
	blockShift uint // log2(blockSize); block sizes are powers of two
	lut        []uint32
}

// NewRankVector builds rank support over v with the given basic block size
// (must be a positive multiple of 64). The vector is copied by reference; do
// not modify it afterwards.
func NewRankVector(v *Vector, blockSize int) *RankVector {
	if blockSize <= 0 || blockSize%64 != 0 || blockSize&(blockSize-1) != 0 {
		panic("bits: block size must be a power-of-two multiple of 64")
	}
	r := &RankVector{Vector: *v, blockSize: blockSize}
	for 1<<r.blockShift < blockSize {
		r.blockShift++
	}
	numBlocks := (v.n + blockSize - 1) / blockSize
	r.lut = make([]uint32, numBlocks+1)
	wordsPerBlock := blockSize / 64
	cum := uint64(0)
	for b := 0; b < numBlocks; b++ {
		checkLUTCapacity(cum)
		r.lut[b] = uint32(cum)
		start := b * wordsPerBlock
		end := start + wordsPerBlock
		if end > len(v.words) {
			end = len(v.words)
		}
		for _, w := range v.words[start:end] {
			cum += uint64(mathbits.OnesCount64(w))
		}
	}
	checkLUTCapacity(cum)
	r.lut[numBlocks] = uint32(cum)
	return r
}

// checkLUTCapacity panics when a cumulative rank no longer fits the 32-bit
// LUT entries. Without this guard a vector with >= 2^32 set bits would wrap
// the stored ranks and return silently-corrupt Rank1 results.
func checkLUTCapacity(ones uint64) {
	if ones > 1<<32-1 {
		panic(fmt.Sprintf("bits: rank vector holds %d set bits, exceeding the 2^32-1 supported by the 32-bit rank LUT", ones))
	}
}

// Rank1 returns the number of set bits in positions [0, i] inclusive.
func (r *RankVector) Rank1(i int) int {
	if i < 0 || r.n == 0 {
		return 0
	}
	if i >= r.n {
		i = r.n - 1
	}
	block := i >> r.blockShift
	c := int(r.lut[block])
	wordStart := block << (r.blockShift - 6)
	lastWord := i >> 6
	for w := wordStart; w < lastWord; w++ {
		c += mathbits.OnesCount64(r.words[w])
	}
	c += mathbits.OnesCount64(r.words[lastWord] & maskUpTo(uint(i)&63))
	return c
}

// Ones returns the total number of set bits.
func (r *RankVector) Ones() int { return int(r.lut[len(r.lut)-1]) }

// MemoryUsage returns the bytes used by the payload plus the rank LUT.
func (r *RankVector) MemoryUsage() int64 {
	return r.Vector.MemoryUsage() + int64(len(r.lut)*4) + 16
}

// HeapSize returns the bytes the allocator handed out for r: the struct and
// the two arrays it holds.
func (r *RankVector) HeapSize() int64 {
	return AllocSize(int(unsafe.Sizeof(*r))) + SliceAlloc(r.words) + SliceAlloc(r.lut)
}
