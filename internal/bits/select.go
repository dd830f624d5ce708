package bits

import (
	mathbits "math/bits"
	"unsafe"
)

// SelectVector augments a RankVector with sampled select support: the
// positions of every sampleRate-th set bit are precomputed (§3.6 of the
// thesis; the default sampling rate of 64 adds 1–2% space overall on
// S-LOUDS). A query finishes the nearest sample's rank block word by word,
// then skips whole blocks through the rank LUT and popcounts at most one
// more block, so a sparse vector — few set bits per block — costs no more
// than a dense one.
type SelectVector struct {
	RankVector
	sampleRate  int
	sampleShift uint     // log2(sampleRate); rates are powers of two
	samples     []uint32 // samples[j] = position of the (j*sampleRate + 1)-th set bit
}

// NewSelectVector builds combined rank and select support over v.
func NewSelectVector(v *Vector, blockSize, sampleRate int) *SelectVector {
	if sampleRate <= 0 || sampleRate&(sampleRate-1) != 0 {
		panic("bits: sample rate must be a positive power of two")
	}
	s := &SelectVector{RankVector: *NewRankVector(v, blockSize), sampleRate: sampleRate}
	for 1<<s.sampleShift < sampleRate {
		s.sampleShift++
	}
	s.samples = make([]uint32, 0, (s.Ones()+sampleRate-1)/sampleRate)
	ones, next := 0, 0 // set bits before word wi; the 0-based rank of the next sample
	for wi, w := range s.words {
		c := mathbits.OnesCount64(w)
		for ; next < ones+c; next += sampleRate {
			s.samples = append(s.samples, uint32(wi*64+selectInWord(w, next-ones+1)))
		}
		ones += c
	}
	return s
}

// Select1 returns the position of the i-th (1-based) set bit, or -1 if the
// vector has fewer than i set bits.
func (s *SelectVector) Select1(i int) int {
	if i <= 0 || i > s.Ones() {
		return -1
	}
	sampleIdx := (i - 1) >> s.sampleShift
	pos := int(s.samples[sampleIdx])
	remaining := i - sampleIdx<<s.sampleShift // how many set bits still to find from pos, inclusive
	if remaining == 1 {
		return pos
	}
	// Skip the sampled bit itself, then finish its rank block.
	w := pos >> 6
	word := s.words[w] &^ ((uint64(1) << (uint(pos)&63 + 1)) - 1)
	remaining--
	blockWords := 1 << (s.blockShift - 6)
	for next := (w | (blockWords - 1)) + 1; ; {
		c := mathbits.OnesCount64(word)
		if c >= remaining {
			return w*64 + selectInWord(word, remaining)
		}
		remaining -= c
		if w++; w == next {
			break
		}
		word = s.words[w]
	}
	// lut[b+1] < i: the i-th set bit lies past block b.
	b := w >> (s.blockShift - 6)
	for int(s.lut[b+1]) < i {
		b++
	}
	remaining = i - int(s.lut[b])
	for w = b * blockWords; ; w++ {
		c := mathbits.OnesCount64(s.words[w])
		if c >= remaining {
			return w*64 + selectInWord(s.words[w], remaining)
		}
		remaining -= c
	}
}

// MemoryUsage returns bytes used by payload, rank LUT, and select samples.
func (s *SelectVector) MemoryUsage() int64 {
	return s.RankVector.MemoryUsage() + int64(len(s.samples)*4) + 16
}

// HeapSize returns the bytes the allocator handed out for s: the struct and
// the three arrays it holds.
func (s *SelectVector) HeapSize() int64 {
	return AllocSize(int(unsafe.Sizeof(*s))) + SliceAlloc(s.words) + SliceAlloc(s.lut) + SliceAlloc(s.samples)
}
