package fst

// cursor identifies one entry on the root-to-leaf trace at a given level.
type cursor struct {
	dense   bool
	pos     int  // dense: bit position in dLabels; sparse: position in sLabels
	node    int  // dense: node number; sparse: node start position
	nodeEnd int  // sparse only: one past the node's last entry
	atTerm  bool // dense only: at the node's prefix-key pseudo-entry
}

// Iterator walks the trie's leaves in key order. It keeps one cursor per
// level (§3.4) so MoveToNext is in-node cursor movement in the common case.
type Iterator struct {
	t       *Trie
	valid   bool
	cursors []cursor
}

// NewIterator returns an iterator positioned before the first key; call
// First or SeekLowerBound before use.
func (t *Trie) NewIterator() *Iterator {
	return &Iterator{t: t, cursors: make([]cursor, 0, t.height)}
}

// Valid reports whether the iterator points at a leaf.
func (it *Iterator) Valid() bool { return it.valid }

func (it *Iterator) isLeaf(c *cursor) bool {
	if c.dense {
		return c.atTerm || !it.t.dHasChild.Get(c.pos)
	}
	return !it.t.sHasChild.Get(c.pos)
}

// isTermCursor reports whether c sits on a prefix-key entry (whose leaf key
// is exactly the path above it).
func (it *Iterator) isTermCursor(c *cursor) bool {
	if c.dense {
		return c.atTerm
	}
	return c.pos == c.node && it.t.hasTerminator(c.node, c.nodeEnd)
}

func (it *Iterator) pushDenseFirst(node int) {
	if it.t.dIsPrefix.Get(node) {
		it.cursors = append(it.cursors, cursor{dense: true, node: node, atTerm: true})
		return
	}
	p := it.t.dLabels.NextSet(node*256, (node+1)*256)
	it.cursors = append(it.cursors, cursor{dense: true, node: node, pos: p})
}

func (it *Iterator) pushSparseFirst(idx int) {
	start := it.t.sparseNodeStart(idx)
	it.cursors = append(it.cursors, cursor{pos: start, node: start, nodeEnd: it.t.sparseNodeEnd(start)})
}

// pushChildOf pushes the first entry of the child node below cursor c, which
// must be a branch (hasChild set).
func (it *Iterator) pushChildOf(c *cursor) {
	childLevel := len(it.cursors)
	if c.dense {
		child := it.t.denseChildNode(c.pos)
		if childLevel < it.t.denseHeight {
			it.pushDenseFirst(child)
		} else {
			it.pushSparseFirst(child - it.t.denseNodeCount)
		}
		return
	}
	it.pushSparseFirst(it.t.sparseChildIdx(c.pos))
}

// descendLeftmost extends the trace from the current top cursor down to the
// leftmost leaf below it.
func (it *Iterator) descendLeftmost() {
	for {
		top := &it.cursors[len(it.cursors)-1]
		if it.isLeaf(top) {
			return
		}
		it.pushChildOf(top)
	}
}

// nextInNode advances c to the following entry within its node, returning
// false at the node boundary.
func (it *Iterator) nextInNode(c *cursor) bool {
	if c.dense {
		var from int
		if c.atTerm {
			from = c.node * 256
		} else {
			from = c.pos + 1
		}
		p := it.t.dLabels.NextSet(from, (c.node+1)*256)
		if p < 0 {
			return false
		}
		c.atTerm = false
		c.pos = p
		return true
	}
	if c.pos+1 < c.nodeEnd {
		c.pos++
		return true
	}
	return false
}

// First positions the iterator at the smallest key.
func (it *Iterator) First() {
	it.cursors = it.cursors[:0]
	if it.t.denseHeight > 0 {
		it.pushDenseFirst(0)
	} else {
		it.pushSparseFirst(0)
	}
	it.descendLeftmost()
	it.valid = true
}

// Next advances to the following leaf in key order; the iterator becomes
// invalid past the last key.
func (it *Iterator) Next() {
	if !it.valid {
		return
	}
	for l := len(it.cursors) - 1; l >= 0; l-- {
		it.cursors = it.cursors[:l+1]
		if it.nextInNode(&it.cursors[l]) {
			it.descendLeftmost()
			return
		}
	}
	it.cursors = it.cursors[:0]
	it.valid = false
}

// SeekLowerBound positions the iterator at the smallest leaf whose stored
// path is >= key in the trie's prefix order. prefixMatch reports that the
// reached leaf's stored path is a proper prefix of key (SuRF's fp_flag): on
// complete tries the caller advances once to get true lower-bound
// semantics; filters use it for boundary suffix checks.
func (it *Iterator) SeekLowerBound(key []byte) (prefixMatch bool) {
	it.cursors = it.cursors[:0]
	it.valid = true
	inDense := it.t.denseHeight > 0
	denseNode, sparseIdx := 0, 0
	for level := 0; ; level++ {
		if level >= len(key) {
			if inDense {
				it.pushDenseFirst(denseNode)
			} else {
				it.pushSparseFirst(sparseIdx)
			}
			it.descendLeftmost()
			return false
		}
		b := key[level]
		if inDense {
			base := denseNode * 256
			p := it.t.dLabels.NextSet(base+int(b), base+256)
			if p == base+int(b) {
				it.cursors = append(it.cursors, cursor{dense: true, node: denseNode, pos: p})
				if !it.t.dHasChild.Get(p) {
					return level < len(key)-1
				}
				child := it.t.denseChildNode(p)
				if level+1 < it.t.denseHeight {
					denseNode = child
				} else {
					inDense = false
					sparseIdx = child - it.t.denseNodeCount
				}
				continue
			}
			if p >= 0 {
				it.cursors = append(it.cursors, cursor{dense: true, node: denseNode, pos: p})
				it.descendLeftmost()
				return false
			}
		} else {
			start := it.t.sparseNodeStart(sparseIdx)
			end := it.t.sparseNodeEnd(start)
			from := start
			if it.t.hasTerminator(start, end) {
				from++
			}
			p := -1
			for q := from; q < end; q++ {
				if it.t.sLabels[q] >= b {
					p = q
					break
				}
			}
			if p >= 0 && it.t.sLabels[p] == b {
				it.cursors = append(it.cursors, cursor{pos: p, node: start, nodeEnd: end})
				if !it.t.sHasChild.Get(p) {
					return level < len(key)-1
				}
				sparseIdx = it.t.sparseChildIdx(p)
				continue
			}
			if p >= 0 {
				it.cursors = append(it.cursors, cursor{pos: p, node: start, nodeEnd: end})
				it.descendLeftmost()
				return false
			}
		}
		// No label >= key[level] in the current node: advance at the nearest
		// ancestor with a following entry, then take its leftmost leaf.
		for l := len(it.cursors) - 1; l >= 0; l-- {
			it.cursors = it.cursors[:l+1]
			if it.nextInNode(&it.cursors[l]) {
				it.descendLeftmost()
				return false
			}
		}
		it.cursors = it.cursors[:0]
		it.valid = false
		return false
	}
}

// leafLoc returns the current leaf's slot.
func (it *Iterator) leafLoc() leafLoc {
	c := &it.cursors[len(it.cursors)-1]
	if c.dense {
		if c.atTerm {
			return leafLoc{regionDense, it.t.densePrefixValueIdx(c.node)}
		}
		return leafLoc{regionDense, it.t.denseBranchValueIdx(c.pos)}
	}
	return leafLoc{regionSparse, it.t.sparseValueIdx(c.pos)}
}

// Value returns the current leaf's stored value (StoreValues must be on).
func (it *Iterator) Value() uint64 { return it.t.valueAt(it.leafLoc()) }

// LeafRef returns the current leaf's back-reference (only valid before
// DropLeafRefs).
func (it *Iterator) LeafRef() LeafRef { return it.t.leafRefAt(it.leafLoc()) }

// Slot returns the current leaf's global slot in [0, leaf count).
func (it *Iterator) Slot() int { return it.t.slotOf(it.leafLoc()) }

// PathLen returns the number of key bytes the current leaf's stored prefix
// covers (the length of Key without reconstructing it).
func (it *Iterator) PathLen() int {
	n := len(it.cursors)
	if it.AtPrefixKey() {
		n--
	}
	return n
}

// Key reconstructs the stored path of the current leaf (the full key for
// complete tries, the retained prefix for truncated ones). It allocates;
// iteration loops should use AppendKey with a reused buffer instead.
func (it *Iterator) Key() []byte {
	return it.AppendKey(nil)
}

// AppendKey appends the current leaf's stored path to dst and returns the
// extended slice, allocating only when dst lacks capacity. Scan loops call it
// as `buf = it.AppendKey(buf[:0])` to reconstruct keys with zero steady-state
// allocations.
func (it *Iterator) AppendKey(dst []byte) []byte {
	if n := len(dst) + len(it.cursors); cap(dst) < n {
		grown := make([]byte, len(dst), n)
		copy(grown, dst)
		dst = grown
	}
	for i := range it.cursors {
		c := &it.cursors[i]
		if it.isTermCursor(c) {
			continue // the prefix-key entry contributes no byte
		}
		if c.dense {
			dst = append(dst, byte(c.pos&255))
		} else {
			dst = append(dst, it.t.sLabels[c.pos])
		}
	}
	return dst
}

// AtPrefixKey reports whether the current leaf is a prefix-key entry.
func (it *Iterator) AtPrefixKey() bool {
	return it.isTermCursor(&it.cursors[len(it.cursors)-1])
}

// LowerBound returns an iterator at the smallest stored key >= key on a
// complete (non-truncated) trie.
func (t *Trie) LowerBound(key []byte) *Iterator {
	it := t.NewIterator()
	if it.SeekLowerBound(key) {
		// The reached leaf's key is a proper prefix of the query and thus
		// smaller; advance once.
		it.Next()
	}
	return it
}
