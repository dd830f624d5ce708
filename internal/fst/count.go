package fst

// This file implements the approximate range-count machinery of §4.1.5: the
// number of leaves between two keys is computed in O(height) by walking each
// boundary key down the trie, summing per level the number of leaves that
// precede the path, and extending the boundary below the divergence point
// through child-rank arithmetic.

// denseLeavesBefore returns the number of dense-region leaves that precede
// the entry at bit position pos (the current node's prefix-key entry, which
// sorts before all labels, is counted).
func (t *Trie) denseLeavesBefore(pos int) int {
	return t.dLabels.Rank1(pos-1) - t.dHasChild.Rank1(pos-1) + t.dIsPrefix.Rank1(pos/256)
}

// denseLeavesBeforeNode returns the number of dense-region leaves that
// precede node n entirely (n's own prefix-key entry is not counted). Node
// numbers at or past the region end count every dense leaf.
func (t *Trie) denseLeavesBeforeNode(n int) int {
	if n >= t.denseNodeCount {
		return t.numDenseLeaves
	}
	return t.dLabels.Rank1(n*256-1) - t.dHasChild.Rank1(n*256-1) + t.dIsPrefix.Rank1(n-1)
}

// sparseLeavesBefore returns the number of sparse-region leaves preceding
// position p (p itself not counted; p may equal len(sLabels)).
func (t *Trie) sparseLeavesBefore(p int) int {
	if p <= 0 {
		return 0
	}
	return p - t.sHasChild.Rank1(p-1)
}

// sparseNodeCount returns the number of sparse-region nodes.
func (t *Trie) sparseNodeCount() int { return t.sLouds.Ones() }

// CountLess returns the number of stored leaves whose key is strictly
// smaller than key. On truncated tries the result treats each leaf as its
// retained prefix, so it can be off by the boundary leaf (the ±2 error of
// the thesis' count operation).
func (t *Trie) CountLess(key []byte) int {
	ord := 0
	inDense := t.denseHeight > 0
	denseNode, sparseIdx := 0, 0
	level := 0
	// boundaryGlobal is the global node number (dense numbering continued
	// into the sparse region) of the first level-(level+1) node whose
	// subtree sorts entirely after key; -1 means no deeper subtrees exist.
	boundaryGlobal := -1

walk:
	for {
		if level >= len(key) {
			// Everything at or below the current node sorts >= key (its
			// prefix-key entry equals key exactly and is excluded).
			if inDense {
				ord += t.denseLeavesBeforeNode(denseNode) - t.dLevelValueStart[level]
				boundaryGlobal = t.dHasChild.Rank1(denseNode*256-1) + 1
			} else {
				start := t.sparseNodeStart(sparseIdx)
				ord += t.sparseLeavesBefore(start) - t.sLevelValueStart[level-t.denseHeight]
				boundaryGlobal = t.sHasChild.Rank1(start-1) + t.denseChildCount + 1
			}
			break walk
		}
		b := key[level]
		if inDense {
			base := denseNode * 256
			p := t.dLabels.NextSet(base+int(b), base+256)
			switch {
			case p == base+int(b) && t.dHasChild.Get(p):
				ord += t.denseLeavesBefore(p) - t.dLevelValueStart[level]
				child := t.denseChildNode(p)
				if level+1 < t.denseHeight {
					denseNode = child
				} else {
					inDense = false
					sparseIdx = child - t.denseNodeCount
				}
				level++
				continue
			case p == base+int(b):
				ord += t.denseLeavesBefore(p) - t.dLevelValueStart[level]
				if len(key) > level+1 {
					ord++ // the leaf's path is a proper prefix of key
				}
				boundaryGlobal = t.dHasChild.Rank1(p) + 1
			case p >= 0:
				ord += t.denseLeavesBefore(p) - t.dLevelValueStart[level]
				boundaryGlobal = t.dHasChild.Rank1(p-1) + 1
			default:
				ord += t.denseLeavesBeforeNode(denseNode+1) - t.dLevelValueStart[level]
				boundaryGlobal = t.dHasChild.Rank1((denseNode+1)*256-1) + 1
			}
			break walk
		}
		p, end := t.labelSearch(t.sparseNodeStart(sparseIdx), b)
		ls := level - t.denseHeight
		switch {
		case p < end && t.sLabels[p] == b && t.sHasChild.Get(p):
			ord += t.sparseLeavesBefore(p) - t.sLevelValueStart[ls]
			sparseIdx = t.sparseChildIdx(p)
			level++
			continue
		case p < end && t.sLabels[p] == b:
			ord += t.sparseLeavesBefore(p) - t.sLevelValueStart[ls]
			if len(key) > level+1 {
				ord++
			}
			boundaryGlobal = t.sHasChild.Rank1(p) + t.denseChildCount + 1
		case p < end:
			ord += t.sparseLeavesBefore(p) - t.sLevelValueStart[ls]
			boundaryGlobal = t.sHasChild.Rank1(p-1) + t.denseChildCount + 1
		default:
			ord += t.sparseLeavesBefore(end) - t.sLevelValueStart[ls]
			boundaryGlobal = t.sHasChild.Rank1(end-1) + t.denseChildCount + 1
		}
		break walk
	}

	// Extend the boundary down the remaining levels, counting the leaves
	// that precede it at each.
	for level++; level < t.height; level++ {
		if level < t.denseHeight {
			n := boundaryGlobal
			ord += t.denseLeavesBeforeNode(n) - t.dLevelValueStart[level]
			boundaryGlobal = t.dHasChild.Rank1(n*256-1) + 1
			continue
		}
		idx := boundaryGlobal - t.denseNodeCount
		var p int
		if idx < t.sparseNodeCount() {
			p = t.sparseNodeStart(idx)
		} else {
			p = len(t.sLabels)
		}
		ord += t.sparseLeavesBefore(p) - t.sLevelValueStart[level-t.denseHeight]
		boundaryGlobal = t.sHasChild.Rank1(p-1) + t.denseChildCount + 1
	}
	return ord
}

// Count returns the number of stored leaves whose key lies in [lo, hi]
// (both inclusive). On truncated tries the result may over- or under-count
// by at most one at each boundary.
func (t *Trie) Count(lo, hi []byte) int {
	n := t.CountLess(hi) - t.CountLess(lo)
	if _, _, _, exact, ok := t.lookup(hi); ok && exact {
		n++
	}
	if n < 0 {
		return 0
	}
	return n
}
