package btree

import (
	"encoding/binary"
	"sort"

	"mets/internal/keys"
)

// SWAR node search: instead of a branch-per-probe binary search over
// [][]byte keys, every node keeps its keys' first 8 bytes packed big-endian
// into a uint64 ("SIMD within a register": one word comparison covers 8
// byte comparisons at once). Packed prefixes (keys.Prefix8) order exactly
// like the keys they abbreviate, so a branchless count of prefixes
// below the query prefix finds the search boundary, and only the (usually
// empty) run of keys sharing the query's full 8-byte prefix needs byte-wise
// comparison. For fanout-sized nodes the straight-line compare+add loop
// beats binary search's unpredictable branches on modern cores.

// lt64 returns 1 when a < b (unsigned) and 0 otherwise with no branch: the
// expression computes the borrow out of a-b (Hacker's Delight §2-12).
func lt64(a, b uint64) uint64 {
	return ((^a & b) | ((^a | b) & (a - b))) >> 63
}

// countLess returns the number of prefixes < q. Nodes keep p sorted, so
// this is also the index of the first prefix >= q — but unlike a binary
// search the loop has no data-dependent branches: four independent
// accumulator chains turn the node probe into straight-line compare+add
// the CPU can run 4-wide.
func countLess(p []uint64, q uint64) int {
	var a, b, c, d uint64
	n := len(p) &^ 3
	for i := 0; i < n; i += 4 {
		a += lt64(p[i], q)
		b += lt64(p[i+1], q)
		c += lt64(p[i+2], q)
		d += lt64(p[i+3], q)
	}
	for i := n; i < len(p); i++ {
		a += lt64(p[i], q)
	}
	return int(a + b + c + d)
}

// swarLowerBound returns the first index with ks[i] >= key over a sorted
// node whose packed prefixes are pfx. qp must be keys.Prefix8(key): entries with
// a smaller prefix are certainly smaller, entries with a larger prefix
// certainly larger, and the equal-prefix run in between is resolved with a
// binary search on the full keys — datasets whose keys share their first 8
// bytes (URLs, emails) tie across the whole node, and walking the run
// linearly would put an O(fanout) string-compare scan back on the hot path
// the SWAR count just removed.
func swarLowerBound(pfx []uint64, ks [][]byte, key []byte, qp uint64) int {
	i := countLess(pfx, qp)
	if i < len(ks) && pfx[i] == qp {
		base := i
		i += sort.Search(len(ks)-base, func(d int) bool {
			j := base + d
			return pfx[j] != qp || keys.Compare(ks[j], key) >= 0
		})
	}
	return i
}

// swarUpperBound returns the number of keys <= key (the child slot to
// follow on an insert descent).
func swarUpperBound(pfx []uint64, ks [][]byte, key []byte, qp uint64) int {
	i := countLess(pfx, qp)
	if i < len(ks) && pfx[i] == qp {
		base := i
		i += sort.Search(len(ks)-base, func(d int) bool {
			j := base + d
			return pfx[j] != qp || keys.Compare(ks[j], key) > 0
		})
	}
	return i
}

// head4 is keys.Prefix8's 4-byte sibling for the compact trees (packed.go), whose
// heads are taken after a node's common prefix: the first 4 bytes of k packed
// big-endian, zero-padded on the right, ordering like the keys they
// abbreviate. A short key ties with its own zero-extensions ("a" and
// "a\x00"); the tie run is resolved on the full bytes.
func head4(k []byte) uint32 {
	if len(k) >= 4 {
		return binary.BigEndian.Uint32(k)
	}
	var h uint32
	for i, b := range k {
		h |= uint32(b) << (24 - 8*uint(i))
	}
	return h
}

// countLess32 is countLess over 4-byte heads: widened to 64 bits, the borrow
// of p-q lands in the sign bit.
func countLess32(p []uint32, q uint32) int {
	var a, b, c, d uint64
	n := len(p) &^ 3
	for i := 0; i < n; i += 4 {
		a += (uint64(p[i]) - uint64(q)) >> 63
		b += (uint64(p[i+1]) - uint64(q)) >> 63
		c += (uint64(p[i+2]) - uint64(q)) >> 63
		d += (uint64(p[i+3]) - uint64(q)) >> 63
	}
	for i := n; i < len(p); i++ {
		a += (uint64(p[i]) - uint64(q)) >> 63
	}
	return int(a + b + c + d)
}
