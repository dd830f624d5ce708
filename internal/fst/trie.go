package fst

import (
	"mets/internal/bits"
	"mets/internal/par"
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
	dValues         []uint64
	dLeaves         []LeafRef
	numDenseLeaves  int
	// Sparse region (levels [denseHeight, height)).
	sLabels         []byte
	sHasChild       *bits.RankVector
	sLouds          *bits.SelectVector
	sValues         []uint64
	sLeaves         []LeafRef
	numSparseLeaves int
	// Per-level layout bookkeeping for O(height) range counting: entry l is
	// the state at the start of level l, with one sentinel entry at the end.
	dLevelValueStart []int // dense leaf-count before each dense level
	sLevelPosStart   []int // sparse label position at start of each sparse level
	sLevelValueStart []int // sparse leaf-count before each sparse level
	// Key-codec annotation (SetKeyCodec): when the trie indexes
	// codec-encoded keys, the codec id and its serialized dictionary travel
	// with the trie through Marshal/Unmarshal so a loaded trie remains
	// queryable (the dictionary reconstructs the encoder; the id detects
	// cross-generation mixups cheaply). Empty for raw-key tries.
	codecID   string
	codecDict []byte
}

// region tags which encoding a leaf lives in.
type region uint8

const (
	regionDense region = iota
	regionSparse
)

// encode turns the neutral level lists into the final LOUDS-DS structure.
// The dense and sparse regions touch disjoint Trie fields, so they are
// encoded concurrently, and the five rank/select constructions over the raw
// bit vectors likewise fan out (cfg.Workers permitting). The result is
// identical to a serial encode.
func encode(levels [][]bNode, ks [][]byte, values []uint64, cutoff int, cfg Config) *Trie {
	t := &Trie{cfg: cfg, height: len(levels), denseHeight: cutoff}

	denseBlock := cfg.RankDenseBlock
	if denseBlock == 0 {
		denseBlock = 64
	}
	sparseBlock := cfg.RankSparseBlock
	if sparseBlock == 0 {
		sparseBlock = 512
	}
	sample := cfg.SelectSample
	if sample == 0 {
		sample = 64
	}

	for l := 0; l < cutoff; l++ {
		t.denseNodeCount += len(levels[l])
	}
	dLabels := bits.NewVector(t.denseNodeCount * 256)
	dHasChild := bits.NewVector(t.denseNodeCount * 256)
	dIsPrefix := bits.NewVector(t.denseNodeCount)
	var sHasChild, sLouds bits.Vector

	encodeDense := func() {
		nodeNum := 0
		for l := 0; l < cutoff; l++ {
			t.dLevelValueStart = append(t.dLevelValueStart, len(t.dLeaves))
			for _, n := range levels[l] {
				base := nodeNum * 256
				if n.prefixKey {
					dIsPrefix.Set(nodeNum)
					t.appendDenseLeaf(n.pkLeaf, ks, values)
				}
				for i, b := range n.labels {
					dLabels.Set(base + int(b))
					if n.hasChild[i] {
						dHasChild.Set(base + int(b))
						t.denseChildCount++
					} else {
						t.appendDenseLeaf(n.leaves[i], ks, values)
					}
				}
				nodeNum++
			}
		}
		t.dLevelValueStart = append(t.dLevelValueStart, len(t.dLeaves))
	}
	encodeSparse := func() {
		for l := cutoff; l < len(levels); l++ {
			t.sLevelPosStart = append(t.sLevelPosStart, len(t.sLabels))
			t.sLevelValueStart = append(t.sLevelValueStart, len(t.sLeaves))
			for _, n := range levels[l] {
				first := true
				if n.prefixKey {
					t.sLabels = append(t.sLabels, terminator)
					sHasChild.Append(false)
					sLouds.Append(true)
					first = false
					t.appendSparseLeaf(n.pkLeaf, ks, values)
				}
				for i, b := range n.labels {
					t.sLabels = append(t.sLabels, b)
					sHasChild.Append(n.hasChild[i])
					sLouds.Append(first)
					first = false
					if !n.hasChild[i] {
						t.appendSparseLeaf(n.leaves[i], ks, values)
					}
				}
			}
		}
		t.sLevelPosStart = append(t.sLevelPosStart, len(t.sLabels))
		t.sLevelValueStart = append(t.sLevelValueStart, len(t.sLeaves))
	}

	workers := par.Workers(cfg.Workers)
	runAll := func(fns ...func()) {
		if workers > 1 {
			par.Run(fns...)
			return
		}
		for _, fn := range fns {
			fn()
		}
	}
	runAll(encodeDense, encodeSparse)
	t.numDenseLeaves = len(t.dLeaves)
	t.numSparseLeaves = len(t.sLeaves)
	runAll(
		func() { t.dLabels = bits.NewRankVector(dLabels, denseBlock) },
		func() { t.dHasChild = bits.NewRankVector(dHasChild, denseBlock) },
		func() { t.dIsPrefix = bits.NewRankVector(dIsPrefix, denseBlock) },
		func() { t.sHasChild = bits.NewRankVector(&sHasChild, sparseBlock) },
		func() { t.sLouds = bits.NewSelectVector(&sLouds, sparseBlock, sample) },
	)
	return t
}

// terminator is the special label marking "the prefix leading to this node
// is itself a stored key" in LOUDS-Sparse ($ / 0xFF in Fig 3.2).
const terminator = 0xFF

func (t *Trie) appendDenseLeaf(ref LeafRef, ks [][]byte, values []uint64) {
	t.dLeaves = append(t.dLeaves, ref)
	if t.cfg.StoreValues {
		t.dValues = append(t.dValues, values[ref.KeyIndex])
	}
}

func (t *Trie) appendSparseLeaf(ref LeafRef, ks [][]byte, values []uint64) {
	t.sLeaves = append(t.sLeaves, ref)
	if t.cfg.StoreValues {
		t.sValues = append(t.sValues, values[ref.KeyIndex])
	}
}

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
	m += int64(len(t.dValues)+len(t.sValues)) * 8
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
// start.
func (t *Trie) sparseNodeEnd(start int) int {
	// Nodes are tiny (>90% have < 8 entries, §3.6), so a word-wise forward
	// scan on the LOUDS bits beats a select.
	if p := t.sLouds.NextSet(start+1, len(t.sLabels)); p >= 0 {
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

// findLabel locates byte b within the sparse node [start, end), skipping the
// terminator entry. Returns -1 when absent.
func (t *Trie) findLabel(start, end int, b byte) int {
	if t.hasTerminator(start, end) {
		start++
	}
	if t.cfg.LinearLabelSearch {
		for p := start; p < end; p++ {
			if t.sLabels[p] == b {
				return p
			}
		}
		return -1
	}
	return findByte(t.sLabels, start, end, b)
}

// findByte is the word-at-a-time label search standing in for the SIMD
// search of §3.6: it compares 8 labels per step using the zero-byte trick.
func findByte(labels []byte, start, end int, b byte) int {
	p := start
	pattern := uint64(b) * 0x0101010101010101
	for ; p+8 <= end; p += 8 {
		w := uint64(labels[p]) | uint64(labels[p+1])<<8 | uint64(labels[p+2])<<16 |
			uint64(labels[p+3])<<24 | uint64(labels[p+4])<<32 | uint64(labels[p+5])<<40 |
			uint64(labels[p+6])<<48 | uint64(labels[p+7])<<56
		x := w ^ pattern
		if m := (x - 0x0101010101010101) & ^x & 0x8080808080808080; m != 0 {
			for i := 0; i < 8; i++ {
				if labels[p+i] == b {
					return p + i
				}
			}
		}
	}
	for ; p < end; p++ {
		if labels[p] == b {
			return p
		}
	}
	return -1
}

// leafLoc identifies a leaf slot.
type leafLoc struct {
	region   region
	valueIdx int
}

// Value returns the stored value at loc (cfg.StoreValues must be on).
func (t *Trie) valueAt(loc leafLoc) uint64 {
	if loc.region == regionDense {
		return t.dValues[loc.valueIdx]
	}
	return t.sValues[loc.valueIdx]
}

// leafRefAt returns the leaf back-reference at loc.
func (t *Trie) leafRefAt(loc leafLoc) LeafRef {
	if loc.region == regionDense {
		return t.dLeaves[loc.valueIdx]
	}
	return t.sLeaves[loc.valueIdx]
}

// lookup walks the trie for key. ok reports whether a leaf was reached.
// pathLen is the number of key bytes the stored prefix covered. exact
// reports whether the leaf consumed the key completely: in a complete
// (non-truncated) trie, exact means the key is stored; in a truncated trie a
// non-exact leaf means the stored prefix is a proper prefix of the key (the
// caller — SuRF — checks suffixes).
func (t *Trie) lookup(key []byte) (loc leafLoc, pathLen int, exact, ok bool) {
	nodeNum := 0
	for level := 0; level < t.denseHeight; level++ {
		if level >= len(key) {
			if t.dIsPrefix.Get(nodeNum) {
				return leafLoc{regionDense, t.densePrefixValueIdx(nodeNum)}, level, true, true
			}
			return leafLoc{}, 0, false, false
		}
		pos := nodeNum*256 + int(key[level])
		if !t.dLabels.Get(pos) {
			return leafLoc{}, 0, false, false
		}
		if !t.dHasChild.Get(pos) {
			return leafLoc{regionDense, t.denseBranchValueIdx(pos)}, level + 1, level == len(key)-1, true
		}
		nodeNum = t.denseChildNode(pos)
	}
	if t.height == t.denseHeight {
		return leafLoc{}, 0, false, false
	}
	sparseIdx := nodeNum - t.denseNodeCount
	pos := t.sparseNodeStart(sparseIdx)
	for level := t.denseHeight; ; level++ {
		end := t.sparseNodeEnd(pos)
		if level >= len(key) {
			if t.hasTerminator(pos, end) {
				return leafLoc{regionSparse, t.sparseValueIdx(pos)}, level, true, true
			}
			return leafLoc{}, 0, false, false
		}
		p := t.findLabel(pos, end, key[level])
		if p < 0 {
			return leafLoc{}, 0, false, false
		}
		if !t.sHasChild.Get(p) {
			return leafLoc{regionSparse, t.sparseValueIdx(p)}, level + 1, level == len(key)-1, true
		}
		pos = t.sparseNodeStart(t.sparseChildIdx(p))
	}
}

// slotOf maps a leaf location to its global slot in [0, leaf count): dense
// leaves first, then sparse leaves, each in level order.
func (t *Trie) slotOf(loc leafLoc) int {
	if loc.region == regionDense {
		return loc.valueIdx
	}
	return t.numDenseLeaves + loc.valueIdx
}

// GetSlot walks the trie for key and returns the reached leaf's global slot
// plus the covered path length; used by filters to index per-leaf suffix
// material without back-references.
func (t *Trie) GetSlot(key []byte) (slot, pathLen int, exact, ok bool) {
	loc, pathLen, exact, ok := t.lookup(key)
	if !ok {
		return 0, 0, false, false
	}
	return t.slotOf(loc), pathLen, exact, true
}

// DropLeafRefs releases the build-time leaf back-references. Filters call
// this once suffix material has been extracted, so that MemoryUsage and the
// structure itself match the thesis' layout. LeafRef accessors must not be
// used afterwards.
func (t *Trie) DropLeafRefs() {
	t.dLeaves = t.dLeaves[:0:0]
	t.sLeaves = t.sLeaves[:0:0]
}

// Get returns the value stored for key. On a truncated trie Get requires the
// stored prefix to cover the key exactly; use the surf package for filter
// semantics.
func (t *Trie) Get(key []byte) (uint64, bool) {
	loc, _, exact, ok := t.lookup(key)
	if !ok || !exact {
		return 0, false
	}
	return t.valueAt(loc), true
}
