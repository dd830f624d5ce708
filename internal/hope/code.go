package hope

import (
	"encoding/binary"
	"math"
)

// Code is an order-preserving prefix code word: the top Len bits of Bits
// (MSB-aligned within a 64-bit word).
type Code struct {
	Bits uint64
	Len  uint8
}

// bitWriter appends code words to buf through a 64-bit accumulator: the
// pending bits sit left-aligned in acc and move to buf a run of whole bytes
// at a time, when the next code no longer fits.
type bitWriter struct {
	buf []byte
	acc uint64
	n   uint // pending bits in acc
}

// resumeBitWriter continues the bit string held in the first nbits bits of
// prefix, into a buffer sized for a key of keyLen source bytes.
func resumeBitWriter(prefix []byte, nbits, keyLen int) bitWriter {
	w := bitWriter{buf: append(make([]byte, 0, keyLen), prefix[:nbits>>3]...)}
	if r := uint(nbits & 7); r != 0 {
		w.acc = uint64(prefix[nbits>>3]&(0xFF<<(8-r))) << 56
		w.n = r
	}
	return w
}

// writeCode appends the top c.Len bits of c.Bits; the bits below them are
// zero (every code assignment and UnmarshalEncoder guarantee it).
func (w *bitWriter) writeCode(c Code) {
	l := uint(c.Len)
	if w.n+l > 64 {
		w.spill()
		if w.n+l > 64 {
			// Only a code longer than 56 bits can still overflow: fill the
			// accumulator with its head and spill all eight bytes.
			head := 64 - w.n
			w.acc |= c.Bits >> w.n
			w.n = 64
			w.spill()
			c.Bits <<= head
			l -= head
		}
	}
	w.acc |= c.Bits >> w.n
	w.n += l
}

// spill moves the whole bytes of the accumulator to buf, keeping the last
// partial byte pending.
func (w *bitWriter) spill() {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], w.acc)
	nb := w.n >> 3
	w.buf = append(w.buf, b[:nb]...)
	w.acc <<= nb * 8
	w.n &= 7
}

// bitLen is the exact length of the bit string written so far.
func (w *bitWriter) bitLen() int { return len(w.buf)*8 + int(w.n) }

// finish zero-pads the pending bits to a byte boundary and returns buf.
func (w *bitWriter) finish() []byte {
	w.n = (w.n + 7) &^ 7
	w.spill()
	return w.buf
}

// maxCodeLen bounds code lengths so codes fit in a uint64.
const maxCodeLen = 58

// reserveZeroCode replaces an all-zero codeword 0^l with 0^l·1 (length l+1).
// The replacement occupies the top half of the old codeword's interval, so it
// stays below every later code and keeps the code prefix-free; with no
// all-zero codeword, zero-padding an encoded bit string to a byte boundary
// preserves strict order (two distinct encodings can no longer collide on
// padding bits) and a decoder can recognize the padding as
// not-a-codeword and stop without knowing the exact bit length.
func reserveZeroCode(c Code) Code {
	if c.Bits != 0 {
		return c
	}
	return Code{Bits: 1 << (63 - uint(c.Len)), Len: c.Len + 1}
}

// assignFixedCodes returns the VIFC code assignment: every interval gets the
// same-length binary code of its rank (ALM, §6.1.3).
func assignFixedCodes(n int) []Code {
	bits := 1
	for 1<<uint(bits) < n {
		bits++
	}
	out := make([]Code, n)
	for i := range out {
		out[i] = Code{Bits: uint64(i) << (64 - uint(bits)), Len: uint8(bits)}
	}
	out[0] = reserveZeroCode(out[0])
	return out
}

// assignAlphabeticCodes returns optimal or near-optimal order-preserving
// prefix codes for the given interval weights: an exact
// optimal-alphabetic-tree dynamic program for small dictionaries, and
// weight-balanced recursive splitting (within two bits of entropy) above
// that. This stands in for the Hu–Tucker construction of §6.2 (documented
// substitution in DESIGN.md).
func assignAlphabeticCodes(weights []uint64) []Code {
	n := len(weights)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []Code{reserveZeroCode(Code{Bits: 0, Len: 1})}
	}
	lengths := make([]uint8, n)
	if n <= 512 {
		exactAlphabeticLengths(weights, lengths)
	} else {
		w := make([]uint64, n)
		var total uint64
		for i, x := range weights {
			w[i] = x + 1 // smoothing keeps depth bounded and codes short
			total += w[i]
		}
		balancedSplit(w, 0, n, 0, lengths)
	}
	return canonicalAlphabetic(lengths)
}

// balancedSplit assigns depth d+1 to the two halves split at the point that
// best balances total weight.
func balancedSplit(w []uint64, lo, hi, depth int, lengths []uint8) {
	if hi-lo == 1 {
		if depth == 0 {
			depth = 1
		}
		if depth > maxCodeLen {
			depth = maxCodeLen
		}
		lengths[lo] = uint8(depth)
		return
	}
	var total uint64
	for i := lo; i < hi; i++ {
		total += w[i]
	}
	// Find the split minimizing |left - right| (left gets at least one).
	var acc uint64
	best, bestDiff := lo+1, uint64(math.MaxUint64)
	for i := lo; i < hi-1; i++ {
		acc += w[i]
		var diff uint64
		if 2*acc > total {
			diff = 2*acc - total
		} else {
			diff = total - 2*acc
		}
		if diff < bestDiff {
			bestDiff = diff
			best = i + 1
		}
	}
	// Guard against degenerate depth: force a middle split when the
	// recursion gets too deep.
	if depth >= maxCodeLen-2 {
		best = (lo + hi) / 2
	}
	balancedSplit(w, lo, best, depth+1, lengths)
	balancedSplit(w, best, hi, depth+1, lengths)
}

// exactAlphabeticLengths computes optimal alphabetic code lengths by the
// O(n^2) interval dynamic program with Knuth's monotonicity bound.
func exactAlphabeticLengths(weights []uint64, lengths []uint8) {
	n := len(weights)
	prefix := make([]uint64, n+1)
	for i, w := range weights {
		prefix[i+1] = prefix[i] + w + 1
	}
	cost := make([][]uint64, n)
	root := make([][]int32, n)
	for i := range cost {
		cost[i] = make([]uint64, n)
		root[i] = make([]int32, n)
		root[i][i] = int32(i)
	}
	for span := 1; span < n; span++ {
		for i := 0; i+span < n; i++ {
			j := i + span
			lo, hi := int(root[i][j-1]), int(root[i+1][j])
			if hi >= j {
				hi = j - 1
			}
			bestCost := uint64(math.MaxUint64)
			bestK := lo
			for k := lo; k <= hi; k++ {
				c := cost[i][k] + cost[k+1][j]
				if c < bestCost {
					bestCost = c
					bestK = k
				}
			}
			cost[i][j] = bestCost + (prefix[j+1] - prefix[i])
			root[i][j] = int32(bestK)
		}
	}
	var assign func(i, j, depth int)
	assign = func(i, j, depth int) {
		if i == j {
			if depth == 0 {
				depth = 1
			}
			if depth > maxCodeLen {
				depth = maxCodeLen
			}
			lengths[i] = uint8(depth)
			return
		}
		k := int(root[i][j])
		assign(i, k, depth+1)
		assign(k+1, j, depth+1)
	}
	assign(0, n-1, 0)
}

// canonicalAlphabetic turns a feasible in-order length profile into actual
// codes: walk the implied binary tree left to right, assigning each leaf the
// next codeword at its depth. The Kraft sum of an alphabetic tree's leaf
// depths is exactly 1, so the construction always succeeds; if the length
// profile is infeasible in order (possible after depth clamping), lengths
// are locally deepened.
func canonicalAlphabetic(lengths []uint8) []Code {
	n := len(lengths)
	out := make([]Code, n)
	var next uint64 // left-aligned next available codeword boundary (64-bit)
	for i := 0; i < n; i++ {
		l := int(lengths[i])
		// Round next up to a multiple of 2^(64-l): if the low bits are not
		// zero the slot is misaligned, meaning the in-order profile needs a
		// longer code here; deepen until aligned or at max length.
		for l < maxCodeLen {
			if next<<uint(l) == 0 { // low 64-l bits all zero
				break
			}
			l++
		}
		step := uint64(1) << uint(64-l)
		// A slot still misaligned at maxCodeLen keeps only its top l bits:
		// the bit writer relies on a code's low bits being zero.
		out[i] = reserveZeroCode(Code{Bits: next &^ (step - 1), Len: uint8(l)})
		next += step
		if next == 0 && i < n-1 {
			// Ran out of code space (can only follow from clamping);
			// deepen the remaining entries off the last codeword.
			for j := i + 1; j < n; j++ {
				out[j] = out[i]
			}
			break
		}
	}
	return out
}
