package hope

// packedIndex is a sorted array of left-aligned 64-bit values under a table
// indexed by their top bits. Both kernels search one: the encoder's interval
// boundaries under their first two bytes, the decoder's code words under
// their first decodeBits bits.
type packedIndex struct {
	vals []uint64
	// jump[p] counts the values whose top bits are below p, so the values
	// sharing the top bits p are vals[jump[p]:jump[p+1]].
	jump  []uint32
	shift uint
}

// newPackedIndex indexes vals (ascending) by their top bits bits.
func newPackedIndex(vals []uint64, bits uint) packedIndex {
	t := packedIndex{vals: vals, jump: make([]uint32, 1<<bits+1), shift: 64 - bits}
	for _, v := range vals {
		t.jump[v>>t.shift+1]++
	}
	for p := 1; p < len(t.jump); p++ {
		t.jump[p] += t.jump[p-1]
	}
	return t
}

// floor returns the index of the largest value <= x, or -1 when every value
// is larger. Only the values sharing x's top bits are searched: those before
// them are smaller, those after them larger.
func (t *packedIndex) floor(x uint64) int {
	p := x >> t.shift
	lo, hi := int(t.jump[p]), int(t.jump[p+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.vals[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

func (t *packedIndex) memoryUsage() int64 {
	return int64(len(t.vals))*8 + int64(len(t.jump))*4
}
