package fst

import (
	"sync"

	"mets/internal/bits"
)

// cursor is one level's place in a walk.
type cursor struct {
	// pos is the entry: dense node*256+label, sparse a position in sLabels.
	// A sparse node ends at the next LOUDS bit, so once a sparse level's
	// node is done, pos is where the level's next node starts.
	pos   int
	end   int    // dense only: one past the node's last entry, (node+1)*256
	child bool   // the entry has a child
	term  bool   // the entry is the node's prefix key (dense: pos is node*256)
	gen   uint32 // Iterator.gen once the level is entered after the last seek
}

// levelValues decodes one level's values in slot order; next is one more
// than the slot of the value it returns next (0: not started).
type levelValues struct {
	it   bits.FORIter
	next int
}

// Iterator walks the trie's leaves in key order, level by level: it keeps
// one cursor per level, and from a seek on, a level's entries are visited
// consecutively. The next entry of a sparse level is the next position, and
// a node ends at the next LOUDS bit; a dense level's next node is the next
// node number. A child node is always the next node of its level, so it
// starts where that level's cursor stopped, and the level's next value is
// the one after the last it decoded. Only the first entry into a level below
// the seek path pays for a select.
type Iterator struct {
	t     *Trie
	valid bool
	gen   uint32        // bumped by every seek, which leaves every level unentered
	depth int           // lv[:depth] is the path to the current leaf
	lv    []cursor      // per level
	vals  []levelValues // per level, from the first Value on
	key   []byte        // the current leaf's stored path
	// The sparse region's arrays, read on every step.
	dense           int // t.denseHeight
	labels          []byte
	hasChild, louds []uint64
	// keyBuf holds the key of a trie no taller than it, so that such an
	// iterator is two allocations (SuRF's MoveToNext makes one).
	keyBuf [32]byte
}

// NewIterator returns an iterator positioned before the first key; call
// First or SeekLowerBound before use.
func (t *Trie) NewIterator() *Iterator {
	it := &Iterator{}
	it.reset(t)
	return it
}

// iters recycles iterators for short walks — a Static.Scan, a SuRF range
// probe — so that one allocates nothing once the pool holds an iterator as
// tall as the trie.
var iters = sync.Pool{New: func() any { return new(Iterator) }}

// PooledIterator returns an iterator over t from a pool every trie shares;
// position it with First or SeekLowerBound and hand it back with Release.
func (t *Trie) PooledIterator() *Iterator {
	it := iters.Get().(*Iterator)
	it.t = t // a positioning move resets the rest
	return it
}

// Release returns the iterator to the pool; it must not be used afterwards.
func (it *Iterator) Release() {
	it.detach()
	iters.Put(it)
}

// reset points the iterator at t with every level unentered.
func (it *Iterator) reset(t *Trie) {
	it.t, it.valid, it.depth = t, false, 0
	it.dense, it.labels = t.denseHeight, t.sLabels
	it.hasChild, it.louds = t.sHasChild.Words(), t.sLouds.Words()
	if cap(it.lv) < t.height {
		it.lv = make([]cursor, t.height)
	}
	switch {
	case cap(it.key) >= t.height:
	case t.height <= len(it.keyBuf):
		it.key = it.keyBuf[:]
	default:
		it.key = make([]byte, 0, t.height)
	}
	it.lv, it.key = it.lv[:t.height], it.key[:0]
	if it.gen++; it.gen == 0 { // wrapped: stale levels could match again
		clear(it.lv)
		it.gen = 1
	}
}

// detach drops every reference into the trie, so that an iterator kept for
// reuse does not keep a retired trie alive.
func (it *Iterator) detach() {
	it.t, it.labels, it.hasChild, it.louds = nil, nil, nil, nil
	clear(it.vals)
}

// Valid reports whether the iterator points at a leaf.
func (it *Iterator) Valid() bool { return it.valid }

// enter positions level l's cursor at the first entry of the node below the
// path's entry on level l-1 (the root for l == 0). That node follows the
// last one the level visited; a level not yet entered finds it by select.
func (it *Iterator) enter(l int) {
	t, c := it.t, &it.lv[l]
	if c.gen != it.gen {
		node := 0 // numbered across both regions
		if l > 0 {
			p := &it.lv[l-1]
			if l-1 < t.denseHeight {
				node = t.denseChildNode(p.pos)
			} else {
				node = t.sHasChild.Rank1(p.pos) + t.denseChildCount
			}
		}
		if l < t.denseHeight {
			c.end = node * 256
		} else {
			c.pos = t.sparseNodeStart(node - t.denseNodeCount)
		}
		c.gen = it.gen
		if l < len(it.vals) {
			it.vals[l].next = 0
		}
	}
	if l >= t.denseHeight {
		it.startSparse(c)
		return
	}
	start := c.end
	c.end = start + 256
	c.pos, c.term, c.child = start, t.dIsPrefix.Get(start/256), false
	if !c.term {
		c.pos = t.dLabels.NextSet(start, c.end)
		c.child = t.dHasChild.Get(c.pos)
	}
}

// startSparse takes c's entry as the first of its node. A lone 0xFF entry is
// a real label (§3.3); a leading one followed by others is the terminator.
func (it *Iterator) startSparse(c *cursor) {
	p := c.pos
	c.child = bitAt(it.hasChild, p)
	c.term = !c.child && it.labels[p] == terminator && it.inNode(p+1)
}

// inNode reports whether sparse position p continues the node before it.
func (it *Iterator) inNode(p int) bool {
	return p < len(it.labels) && !bitAt(it.louds, p)
}

// stepDense moves dense level l's cursor to the next entry of its node and
// reports false when the node has none.
func (it *Iterator) stepDense(l int) bool {
	t, c := it.t, &it.lv[l]
	from := c.pos + 1
	if c.term {
		from, c.term = c.pos, false
	}
	if c.pos = t.dLabels.NextSet(from, c.end); c.pos < 0 {
		return false
	}
	c.child = t.dHasChild.Get(c.pos)
	return true
}

// bitAt reports whether bit i of words is set.
func bitAt(words []uint64, i int) bool { return words[i>>6]>>(i&63)&1 != 0 }

// push appends level l's label to the key; a prefix-key entry has none.
func (it *Iterator) push(l int) {
	c := &it.lv[l]
	switch {
	case c.term:
	case l < it.t.denseHeight:
		it.key = append(it.key, byte(c.pos))
	default:
		it.key = append(it.key, it.t.sLabels[c.pos])
	}
}

// descend extends the path from its deepest entry down to the leftmost leaf
// below it. A sparse level already entered continues with the node after the
// one it last visited.
func (it *Iterator) descend() {
	lv, key, labels, dense := it.lv, it.key, it.labels, it.dense
	l := it.depth - 1
	for lv[l].child {
		l++
		c := &lv[l]
		if l < dense || c.gen != it.gen {
			it.key = key
			it.enter(l)
			it.push(l)
			key = it.key
			continue
		}
		if it.startSparse(c); !c.term {
			key = append(key, labels[c.pos])
		}
	}
	it.key, it.depth, it.valid = key, l+1, true
}

// First positions the iterator at the smallest key.
func (it *Iterator) First() {
	it.reset(it.t)
	it.enter(0)
	it.push(0)
	it.depth = 1
	it.descend()
}

// Next advances to the following leaf in key order; the iterator becomes
// invalid past the last key.
func (it *Iterator) Next() {
	if it.valid {
		it.next(it.depth - 1)
	}
}

// next moves on from level l: at the deepest level whose node has a
// following entry, to that entry's leftmost leaf.
func (it *Iterator) next(l int) {
	lv := it.lv
	for ; l >= it.dense; l-- {
		// A sparse level's next entry is the next position.
		c := &lv[l]
		if c.pos++; it.inNode(c.pos) {
			c.term, c.child = false, bitAt(it.hasChild, c.pos)
			it.key = append(it.key[:l], it.labels[c.pos])
			it.depth, it.valid = l+1, true
			if c.child {
				it.descend()
			}
			return
		}
	}
	for ; l >= 0; l-- {
		if it.stepDense(l) {
			it.key = it.key[:l]
			it.push(l)
			it.depth = l + 1
			it.descend()
			return
		}
	}
	it.valid = false
}

// SeekLowerBound positions the iterator at the smallest leaf whose stored
// path is >= key in the trie's prefix order. prefixMatch reports that the
// reached leaf's stored path is a proper prefix of key (SuRF's fp_flag): on
// complete tries the caller advances once to get true lower-bound
// semantics; filters use it for boundary suffix checks.
func (it *Iterator) SeekLowerBound(key []byte) (prefixMatch bool) {
	t := it.t
	it.reset(t)
	for l := 0; ; l++ {
		it.enter(l)
		it.depth = l + 1
		if l >= len(key) {
			// The whole node sorts at or after key.
			it.push(l)
			it.descend()
			return false
		}
		c, b := &it.lv[l], key[l]
		found := false
		if l < t.denseHeight {
			if p := t.dLabels.NextSet(c.end-256+int(b), c.end); p >= 0 {
				c.pos, c.child, found = p, t.dHasChild.Get(p), true
			}
		} else {
			// When no label reaches b, pos stops at the node's end, as on a
			// level whose node is done.
			p, end := t.labelSearch(c.pos, b)
			if c.pos, found = p, p < end; found {
				c.child = bitAt(it.hasChild, p)
			}
		}
		c.term = false
		if !found {
			// No entry of this node reaches key[l]: the bound is past it.
			it.key = it.key[:l]
			it.next(l - 1)
			return false
		}
		it.push(l)
		if it.key[l] > b {
			it.descend()
			return false
		}
		if !c.child {
			it.valid = true
			return l < len(key)-1
		}
	}
}

// slot returns the current leaf's slot.
func (it *Iterator) slot() int {
	t, l := it.t, it.depth-1
	c := &it.lv[l]
	switch {
	case l >= t.denseHeight:
		return t.numDenseLeaves + t.sparseValueIdx(c.pos)
	case c.term:
		return t.densePrefixValueIdx(c.pos / 256)
	default:
		return t.denseBranchValueIdx(c.pos)
	}
}

// Value returns the current leaf's stored value (StoreValues must be on).
// A level's values are decoded in order, as its leaves are visited.
func (it *Iterator) Value() uint64 {
	s := it.slot()
	v := it.levelValues()
	if v.next != s+1 {
		it.startValues(v, s)
	}
	v.next = s + 2
	return v.it.Next()
}

// nextValue is Value, with the leaf's slot, for a walk that reads the value
// of every leaf it visits: a level's leaves are then visited in slot order,
// so only the first one a level reports is located.
func (it *Iterator) nextValue() (slot int, value uint64) {
	v := it.levelValues()
	if v.next == 0 {
		it.startValues(v, it.slot())
	}
	slot = v.next - 1
	v.next++
	return slot, v.it.Next()
}

// levelValues returns the current level's value decoder; the decoders are
// allocated on first use, so an iterator that reads no values has none.
func (it *Iterator) levelValues() *levelValues {
	if len(it.vals) < it.t.height {
		it.vals = make([]levelValues, it.t.height)
	}
	return &it.vals[it.depth-1]
}

// startValues points v at slot s.
func (it *Iterator) startValues(v *levelValues, s int) {
	if s < it.t.numDenseLeaves {
		v.it = it.t.dValues.Iter(s)
	} else {
		v.it = it.t.sValues.Iter(s - it.t.numDenseLeaves)
	}
	v.next = s + 1
}

// Slot returns the current leaf's slot in [0, leaf count).
func (it *Iterator) Slot() int { return it.slot() }

// PathLen returns the number of key bytes the current leaf's stored prefix
// covers.
func (it *Iterator) PathLen() int { return len(it.key) }

// Key returns a copy of the current leaf's stored path (the full key for
// complete tries, the retained prefix for truncated ones). Iteration loops
// should use AppendKey with a reused buffer instead.
func (it *Iterator) Key() []byte {
	return it.AppendKey(nil)
}

// AppendKey appends the current leaf's stored path to dst and returns the
// extended slice.
func (it *Iterator) AppendKey(dst []byte) []byte {
	return append(dst, it.key...)
}

// AtPrefixKey reports whether the current leaf is a prefix-key entry.
func (it *Iterator) AtPrefixKey() bool {
	return it.lv[it.depth-1].term
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
