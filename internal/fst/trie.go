package fst

import (
	"encoding/binary"
	mathbits "math/bits"

	"mets/internal/bits"
)

// Trie is an immutable LOUDS-DS encoded trie (the Fast Succinct Trie).
type Trie struct {
	cfg    Config
	height int
	// Dense region (levels [0, denseHeight)).
	denseHeight     int
	denseNodeCount  int // nodes encoded with LOUDS-Dense
	denseChildCount int // hasChild bits set in the dense region
	dLabels         *bits.RankVector
	dHasChild       *bits.RankVector
	dIsPrefix       *bits.RankVector
	numDenseLeaves  int
	// Sparse region (levels [denseHeight, height)).
	sLabels         []byte
	sHasChild       *bits.RankVector
	sLouds          *bits.SelectVector
	numSparseLeaves int
	// Per-level layout bookkeeping for O(height) range counting: entry l is
	// the state at the start of level l, with one sentinel entry at the end.
	dLevelValueStart []int // dense leaf-count before each dense level
	sLevelPosStart   []int // sparse label position at start of each sparse level
	sLevelValueStart []int // sparse leaf-count before each sparse level
	// values is, per level, its leaves' values in slot order (nil without
	// StoreValues); every level's array lies in one allocation of
	// valueBytes bytes.
	values     []valueRun
	valueBytes int64
	// Key-codec annotation (SetKeyCodec): when the trie indexes
	// codec-encoded keys, the codec id and its serialized dictionary travel
	// with the trie through Marshal/Unmarshal so a loaded trie remains
	// queryable (the dictionary reconstructs the encoder; the id detects
	// cross-generation mixups cheaply). Empty for raw-key tries.
	codecID   string
	codecDict []byte
}

// terminator is the special label marking "the prefix leading to this node
// is itself a stored key" in LOUDS-Sparse ($ / 0xFF in Fig 3.2).
const terminator = 0xFF

// Height returns the number of trie levels.
func (t *Trie) Height() int { return t.height }

// DenseHeight returns the number of LOUDS-Dense encoded levels.
func (t *Trie) DenseHeight() int { return t.denseHeight }

// MemoryUsage returns the structure's size in bytes: all bitmaps with their
// rank/select support, the sparse label bytes, and the value arrays.
func (t *Trie) MemoryUsage() int64 {
	m := t.dLabels.MemoryUsage() + t.dHasChild.MemoryUsage() + t.dIsPrefix.MemoryUsage()
	m += int64(len(t.sLabels))
	m += t.sHasChild.MemoryUsage() + t.sLouds.MemoryUsage()
	m += t.valueBytes + bits.SliceAlloc(t.values)
	return m + 64
}

// --- Dense-region helpers. Ranks are inclusive of the queried position. ---

// denseBranchValueIdx returns the value slot of a terminating dense branch.
func (t *Trie) denseBranchValueIdx(pos int) int {
	node := pos / 256
	return t.dLabels.Rank1(pos) - t.dHasChild.Rank1(pos) + t.dIsPrefix.Rank1(node) - 1
}

// densePrefixValueIdx returns the value slot of node's prefix-key leaf.
func (t *Trie) densePrefixValueIdx(node int) int {
	return t.dLabels.Rank1(node*256-1) - t.dHasChild.Rank1(node*256-1) + t.dIsPrefix.Rank1(node) - 1
}

// denseChildNode returns the global node number of the child of the dense
// branch at pos (which must have its hasChild bit set).
func (t *Trie) denseChildNode(pos int) int {
	return t.dHasChild.Rank1(pos)
}

// --- Sparse-region helpers. ---

// sparseNodeStart returns the position of the idx-th (0-based) sparse node.
func (t *Trie) sparseNodeStart(idx int) int {
	return t.sLouds.Select1(idx + 1)
}

// sparseNodeEnd returns one past the last entry of the node starting at
// start: the next LOUDS bit. Nodes are tiny (>90% have < 8 entries, §3.6),
// so the bit is nearly always in the same word, which is looked at first.
func (t *Trie) sparseNodeEnd(start int) int {
	p := start + 1
	if ws := t.sLouds.Words(); p>>6 < len(ws) {
		if w := ws[p>>6] >> (p & 63); w != 0 {
			return p + mathbits.TrailingZeros64(w)
		}
	}
	if p = t.sLouds.NextSet(p, len(t.sLabels)); p >= 0 {
		return p
	}
	return len(t.sLabels)
}

// sparseValueIdx returns the value slot of the terminating sparse entry at
// pos.
func (t *Trie) sparseValueIdx(pos int) int {
	return pos - t.sHasChild.Rank1(pos)
}

// sparseChildIdx returns the sparse node index of the child of the sparse
// branch at pos (which must have its hasChild bit set).
func (t *Trie) sparseChildIdx(pos int) int {
	return t.sHasChild.Rank1(pos) + t.denseChildCount - t.denseNodeCount
}

// hasTerminator reports whether the sparse node [start, end) begins with a
// prefix-key terminator. A lone 0xFF label is a real label (§3.3).
func (t *Trie) hasTerminator(start, end int) bool {
	return end-start > 1 && t.sLabels[start] == terminator && !t.sHasChild.Get(start)
}

// labelSearch is the one sparse label search: it returns the position of the
// first label >= b in the node starting at start, past its terminator, and
// the node's end; p is end when every label is smaller. A node's labels
// after the terminator are sorted, so b is in the node exactly when p < end
// and sLabels[p] == b.
func (t *Trie) labelSearch(start int, b byte) (p, end int) {
	end = t.sparseNodeEnd(start)
	p = start
	if t.hasTerminator(start, end) {
		p++
	}
	if t.cfg.LinearLabelSearch {
		for p < end && t.sLabels[p] < b {
			p++
		}
		return p, end
	}
	return findByte(t.sLabels, p, end, b), end
}

// findByte is the word-at-a-time label search standing in for the SIMD
// search of §3.6: it returns the first position in [start, end) whose label
// is >= b, or end, comparing 8 labels per step and the last few one by one
// (a word that reached past the node would cost small nodes a load). Per
// byte, the high bit of (x|0x80) - (b&0x7f) compares the low seven bits
// without a borrow into the next byte, and the high bits decide where they
// differ. It beats a binary search at every node size up to 256 labels.
func findByte(labels []byte, start, end int, b byte) int {
	const low7, high = 0x7f7f7f7f7f7f7f7f, 0x8080808080808080
	bs := uint64(b) * 0x0101010101010101
	p := start
	for ; p+8 <= end; p += 8 {
		x := binary.LittleEndian.Uint64(labels[p:])
		lowGE := (x | high) - bs&low7
		if ge := (x&^bs | ^(x^bs)&lowGE) & high; ge != 0 {
			return p + mathbits.TrailingZeros64(ge)>>3
		}
	}
	for p < end && labels[p] < b {
		p++
	}
	return p
}

// valueAt returns the value of the leaf in slot on level (cfg.StoreValues
// must be on). Slots number the leaves in [0, leaf count): the dense
// region's first, then the sparse region's, each in level order.
func (t *Trie) valueAt(slot, level int) uint64 {
	return t.values[level].get(slot - t.levelSlot(level))
}

// levelSlot returns the slot of level's first leaf.
func (t *Trie) levelSlot(level int) int {
	if level < t.denseHeight {
		return t.dLevelValueStart[level]
	}
	return t.numDenseLeaves + t.sLevelValueStart[level-t.denseHeight]
}

// lookup walks the trie for key and returns the slot of the leaf it reached
// and the level it is on. ok reports whether a leaf was reached. pathLen is
// the number of key bytes the stored prefix covered: the level for a
// prefix-key leaf, one more for a label. exact reports whether the leaf
// consumed the key completely: in a complete (non-truncated) trie, exact
// means the key is stored; in a truncated trie a non-exact leaf means the
// stored prefix is a proper prefix of the key (the caller — SuRF — checks
// suffixes).
func (t *Trie) lookup(key []byte) (slot, level, pathLen int, exact, ok bool) {
	nodeNum := 0
	for level := 0; level < t.denseHeight; level++ {
		if level >= len(key) {
			if t.dIsPrefix.Get(nodeNum) {
				return t.densePrefixValueIdx(nodeNum), level, level, true, true
			}
			return 0, 0, 0, false, false
		}
		pos := nodeNum*256 + int(key[level])
		if !t.dLabels.Get(pos) {
			return 0, 0, 0, false, false
		}
		if !t.dHasChild.Get(pos) {
			return t.denseBranchValueIdx(pos), level, level + 1, level == len(key)-1, true
		}
		nodeNum = t.denseChildNode(pos)
	}
	if t.height == t.denseHeight {
		return 0, 0, 0, false, false
	}
	pos := t.sparseNodeStart(nodeNum - t.denseNodeCount)
	for level := t.denseHeight; ; level++ {
		if level >= len(key) {
			if t.hasTerminator(pos, t.sparseNodeEnd(pos)) {
				return t.numDenseLeaves + t.sparseValueIdx(pos), level, level, true, true
			}
			return 0, 0, 0, false, false
		}
		p, end := t.labelSearch(pos, key[level])
		if p == end || t.sLabels[p] != key[level] {
			return 0, 0, 0, false, false
		}
		if !t.sHasChild.Get(p) {
			return t.numDenseLeaves + t.sparseValueIdx(p), level, level + 1, level == len(key)-1, true
		}
		pos = t.sparseNodeStart(t.sparseChildIdx(p))
	}
}

// GetSlot walks the trie for key and returns the reached leaf's slot plus
// the covered path length; filters index per-leaf suffix material by it.
func (t *Trie) GetSlot(key []byte) (slot, pathLen int, exact, ok bool) {
	slot, _, pathLen, exact, ok = t.lookup(key)
	return slot, pathLen, exact, ok
}

// Get returns the value stored for key. On a truncated trie Get requires the
// stored prefix to cover the key exactly; use the surf package for filter
// semantics.
func (t *Trie) Get(key []byte) (uint64, bool) {
	slot, level, _, exact, ok := t.lookup(key)
	if !ok || !exact {
		return 0, false
	}
	return t.valueAt(slot, level), true
}
