// Package btree implements an STX-style in-memory B+tree over byte-string
// keys plus its Dynamic-to-Static derivatives from Chapter 2: the Compact
// B+tree (Compaction + Structural Reduction rules) and the Compressed
// B+tree (Compression rule, flate-compressed leaves with a CLOCK node
// cache). Node search is data-parallel: every node mirrors its keys as
// uint64-packed big-endian prefixes probed with a branchless SWAR count
// (swar.go), and dynamic leaves are gapped — live entries interleave with
// gap slots so an insert shifts entries only to the nearest gap instead of
// half the node.
package btree

import (
	"bytes"
	"math/bits"
	"sort"

	"mets/internal/keys"
)

// fanout is the number of entries per node. With 8-byte keys and 8-byte
// values this approximates the 512-byte nodes the thesis found best for
// in-memory operation.
const fanout = 32

// gapMax fills the prefix slot of a gap with no live entry to its right, so
// the prefix array stays sorted through the tail. It collides with the
// prefix of a key starting with 8 0xff bytes, which is why every prefix tie
// also checks slot occupancy.
const gapMax = ^uint64(0)

// leafFullMask is occ with every slot live.
const leafFullMask = ^uint32(0)

// leafNode is a gapped leaf: a fixed array of fanout slots where live
// entries stay key-ordered by slot index and unoccupied gap slots are
// interleaved between them, so an insert shifts entries only as far as the
// nearest gap (O(gap distance), not O(fanout/2)). occ is the occupancy
// bitmap. pfx mirrors the slots as packed 8-byte key prefixes for SWAR
// search; a gap slot replicates the prefix of the nearest live slot to its
// right (gapMax when none), which keeps the array sorted and makes the
// branchless count land on a boundary that is correct once gaps are
// skipped.
type leafNode struct {
	occ  uint32
	pfx  [fanout]uint64
	keys [fanout][]byte
	vals [fanout]uint64
	next *leafNode
	prev *leafNode
}

func newLeaf() *leafNode {
	l := &leafNode{}
	for i := range l.pfx {
		l.pfx[i] = gapMax
	}
	return l
}

func (l *leafNode) live(i int) bool { return l.occ>>uint(i)&1 == 1 }

// nextLive returns the first live slot >= i, or fanout when none.
func (l *leafNode) nextLive(i int) int {
	if i >= fanout {
		return fanout
	}
	m := l.occ >> uint(i)
	if m == 0 {
		return fanout
	}
	return i + bits.TrailingZeros32(m)
}

func (l *leafNode) firstLive() int { return l.nextLive(0) }

// lowerBoundSlot returns a slot index s such that every live slot < s holds
// a key < key and every live slot >= s holds a key >= key (s may itself be
// a gap; callers advance with nextLive). qp must be keys.Prefix8(key). The
// equal-prefix run is binary-searched on each slot's *effective* key — the
// key at its next live slot, which is what a gap's replicated prefix stands
// for — because shared-prefix key sets tie across the whole leaf and a
// linear walk would re-pay the O(fanout) compare scan SWAR removed. The
// effective keys are non-decreasing across slots, so the predicate is
// monotone over [i, fanout).
func (l *leafNode) lowerBoundSlot(key []byte, qp uint64) int {
	i := countLess(l.pfx[:], qp)
	if i < fanout && l.pfx[i] == qp {
		base := i
		i += sort.Search(fanout-base, func(d int) bool {
			j := base + d
			if l.pfx[j] != qp {
				return true
			}
			nl := l.nextLive(j)
			return nl == fanout || keys.Compare(l.keys[nl], key) >= 0
		})
	}
	return i
}

// upperBoundSlot is lowerBoundSlot with <=: every live slot < s holds a key
// <= key (the insert position that keeps duplicate runs append-ordered).
func (l *leafNode) upperBoundSlot(key []byte, qp uint64) int {
	i := countLess(l.pfx[:], qp)
	if i < fanout && l.pfx[i] == qp {
		base := i
		i += sort.Search(fanout-base, func(d int) bool {
			j := base + d
			if l.pfx[j] != qp {
				return true
			}
			nl := l.nextLive(j)
			return nl == fanout || keys.Compare(l.keys[nl], key) > 0
		})
	}
	return i
}

// insertEntry places key at its upper-bound position, claiming the target
// gap directly or shifting live entries to the nearest gap. The leaf must
// not be full. The key is cloned; qp must be keys.Prefix8(key).
func (l *leafNode) insertEntry(key []byte, qp uint64, value uint64) {
	p := l.upperBoundSlot(key, qp)
	switch {
	case p < fanout && !l.live(p):
		// The target slot is itself a gap: claim it in place.
	case (^l.occ)>>uint(p) != 0:
		// Shift the live run [p, g) one slot right into the nearest gap g.
		g := p + bits.TrailingZeros32((^l.occ)>>uint(p))
		for j := g; j > p; j-- {
			l.keys[j], l.vals[j], l.pfx[j] = l.keys[j-1], l.vals[j-1], l.pfx[j-1]
		}
		l.occ |= 1 << uint(g)
	default:
		// No gap at or right of p: shift the live run (g, p) one slot left
		// into the nearest gap g and insert at p-1.
		free := ^l.occ & (uint32(1)<<uint(p) - 1)
		g := 31 - bits.LeadingZeros32(free)
		for j := g; j+1 < p; j++ {
			l.keys[j], l.vals[j], l.pfx[j] = l.keys[j+1], l.vals[j+1], l.pfx[j+1]
		}
		l.occ |= 1 << uint(g)
		p--
	}
	l.keys[p], l.vals[p], l.pfx[p] = cloneKey(key), value, qp
	l.occ |= 1 << uint(p)
	// Gaps immediately left of p replicated the prefix of the entry that
	// used to be their nearest live right; the new entry is closer now.
	for j := p - 1; j >= 0 && !l.live(j); j-- {
		l.pfx[j] = qp
	}
}

// clearSlot frees slot i and restores the gap-replication invariant: i and
// the contiguous gap run ending at it replicate the next live prefix to the
// right (gapMax when the tail is empty).
func (l *leafNode) clearSlot(i int) {
	l.occ &^= 1 << uint(i)
	l.keys[i] = nil
	p := gapMax
	if r := l.nextLive(i); r < fanout {
		p = l.pfx[r]
	}
	for j := i; j >= 0 && !l.live(j); j-- {
		l.pfx[j] = p
	}
}

// split halves a full leaf, spreading each half over every other slot so
// both nodes restart with a gap beside every entry (a fresh insert anywhere
// shifts at most one slot). Returns the new right sibling.
func (l *leafNode) split(t *Tree) *leafNode {
	const half = fanout / 2
	sib := newLeaf()
	for j := 0; j < half; j++ {
		dst := 2 * j
		sib.keys[dst], sib.vals[dst], sib.pfx[dst] = l.keys[half+j], l.vals[half+j], l.pfx[half+j]
		if j+1 < half {
			sib.pfx[dst+1] = l.pfx[half+j+1]
		}
	}
	sib.occ = 0x55555555
	// Respread the first half in place: descending j keeps every source
	// slot unread until after its own move (dst 2j only clobbers slot 2j,
	// which iteration j'=2j already consumed).
	for j := half - 1; j > 0; j-- {
		l.keys[2*j], l.vals[2*j], l.pfx[2*j] = l.keys[j], l.vals[j], l.pfx[j]
	}
	for j := 0; j < half; j++ {
		g := 2*j + 1
		l.keys[g] = nil
		if j+1 < half {
			l.pfx[g] = l.pfx[2*(j+1)]
		} else {
			l.pfx[g] = gapMax
		}
	}
	l.occ = 0x55555555
	sib.next = l.next
	sib.prev = l
	if l.next != nil {
		l.next.prev = sib
	}
	l.next = sib
	t.numLeaves++
	return sib
}

type innerNode struct {
	// keys[i] is the smallest key in children[i+1]'s subtree.
	keys [][]byte
	// pfx[i] is keys.Prefix8(keys[i]): the SWAR search mirror.
	pfx      []uint64
	children []any // *innerNode or *leafNode
}

// Tree is a dynamic B+tree. Create with New.
type Tree struct {
	root      any // *innerNode or *leafNode; nil when empty
	height    int // 1 = root is a leaf
	numLeaves int
	numInner  int
	length    int
	keyBytes  int64
	// AllowDuplicates switches the tree into multimap mode (used for
	// secondary indexes): Insert never fails and equal keys co-exist.
	allowDuplicates bool
}

// New returns an empty B+tree.
func New() *Tree { return &Tree{} }

// NewMulti returns an empty B+tree that admits duplicate keys (secondary
// index mode, §5.3.5).
func NewMulti() *Tree { return &Tree{allowDuplicates: true} }

// Len returns the number of stored entries.
func (t *Tree) Len() int { return t.length }

// Get returns the value of key (the first match in multimap mode).
func (t *Tree) Get(key []byte) (uint64, bool) {
	qp := keys.Prefix8(key)
	l, _ := t.findLeaf(key, qp)
	if l == nil {
		return 0, false
	}
	i := l.nextLive(l.lowerBoundSlot(key, qp))
	if i < fanout && bytes.Equal(l.keys[i], key) {
		return l.vals[i], true
	}
	// The first equal key may sit in the next leaf when key falls at a
	// boundary; no live slot >= the bound means check the next leaf.
	if i == fanout && l.next != nil {
		if j := l.next.firstLive(); j < fanout && bytes.Equal(l.next.keys[j], key) {
			return l.next.vals[j], true
		}
	}
	return 0, false
}

// GetAll returns every value stored under key (multimap mode helper).
func (t *Tree) GetAll(key []byte) []uint64 {
	var out []uint64
	t.Scan(key, func(k []byte, v uint64) bool {
		if !bytes.Equal(k, key) {
			return false
		}
		out = append(out, v)
		return true
	})
	return out
}

// Insert adds key/value. In unique mode it returns false when the key
// already exists; in multimap mode it always succeeds.
func (t *Tree) Insert(key []byte, value uint64) bool {
	qp := keys.Prefix8(key)
	if t.root == nil {
		l := newLeaf()
		l.insertEntry(key, qp, value)
		t.root = l
		t.height = 1
		t.numLeaves = 1
		t.length = 1
		t.keyBytes += int64(len(key))
		return true
	}
	if !t.allowDuplicates {
		if _, ok := t.Get(key); ok {
			return false
		}
	}
	newChild, splitKey := t.insert(t.root, key, qp, value)
	if newChild != nil {
		root := &innerNode{}
		root.keys = append(root.keys, splitKey)
		root.pfx = append(root.pfx, keys.Prefix8(splitKey))
		root.children = append(root.children, t.root, newChild)
		t.root = root
		t.height++
		t.numInner++
	}
	t.length++
	t.keyBytes += int64(len(key))
	return true
}

// insert descends to the leaf, splitting full nodes on the way.
func (t *Tree) insert(n any, key []byte, qp uint64, value uint64) (newSibling any, splitKey []byte) {
	switch node := n.(type) {
	case *leafNode:
		if node.occ != leafFullMask {
			node.insertEntry(key, qp, value)
			return nil, nil
		}
		sib := node.split(t)
		sk := sib.keys[0]
		if keys.Compare(key, sk) >= 0 {
			sib.insertEntry(key, qp, value)
		} else {
			node.insertEntry(key, qp, value)
		}
		return sib, sk
	case *innerNode:
		c := swarUpperBound(node.pfx, node.keys, key, qp)
		newChild, sk := t.insert(node.children[c], key, qp, value)
		if newChild == nil {
			return nil, nil
		}
		node.keys = append(node.keys, nil)
		copy(node.keys[c+1:], node.keys[c:])
		node.keys[c] = sk
		node.pfx = append(node.pfx, 0)
		copy(node.pfx[c+1:], node.pfx[c:])
		node.pfx[c] = keys.Prefix8(sk)
		node.children = append(node.children, nil)
		copy(node.children[c+2:], node.children[c+1:])
		node.children[c+1] = newChild
		if len(node.children) <= fanout {
			return nil, nil
		}
		mid := len(node.keys) / 2
		upKey := node.keys[mid]
		sib := &innerNode{
			keys:     append([][]byte(nil), node.keys[mid+1:]...),
			pfx:      append([]uint64(nil), node.pfx[mid+1:]...),
			children: append([]any(nil), node.children[mid+1:]...),
		}
		node.keys = node.keys[:mid]
		node.pfx = node.pfx[:mid]
		node.children = node.children[:mid+1]
		t.numInner++
		return sib, upKey
	}
	panic("btree: unknown node type")
}

// Update overwrites the value of the first entry equal to key.
func (t *Tree) Update(key []byte, value uint64) bool {
	qp := keys.Prefix8(key)
	l, _ := t.findLeaf(key, qp)
	if l == nil {
		return false
	}
	i := l.nextLive(l.lowerBoundSlot(key, qp))
	if i == fanout {
		if l.next != nil {
			if j := l.next.firstLive(); j < fanout && bytes.Equal(l.next.keys[j], key) {
				l.next.vals[j] = value
				return true
			}
		}
		return false
	}
	if !bytes.Equal(l.keys[i], key) {
		return false
	}
	l.vals[i] = value
	return true
}

// Delete removes the first entry equal to key. Leaves are allowed to
// underflow (entries are removed without rebalancing, as in common
// main-memory B+tree implementations with lazy deletion); empty leaves are
// unlinked from the leaf chain.
func (t *Tree) Delete(key []byte) bool {
	qp := keys.Prefix8(key)
	l, _ := t.findLeaf(key, qp)
	if l == nil {
		return false
	}
	i := l.nextLive(l.lowerBoundSlot(key, qp))
	if i == fanout && l.next != nil {
		l = l.next
		i = l.firstLive()
	}
	if i >= fanout || !bytes.Equal(l.keys[i], key) {
		return false
	}
	t.keyBytes -= int64(len(l.keys[i]))
	l.clearSlot(i)
	if l.occ == 0 {
		if l.prev != nil {
			l.prev.next = l.next
		}
		if l.next != nil {
			l.next.prev = l.prev
		}
	}
	t.length--
	return true
}

// findLeaf descends to the leaf holding the first entry >= key. Routing
// goes left of equal separators so that duplicate runs spanning a split are
// found from their beginning (reads then continue along the leaf chain).
// qp must be keys.Prefix8(key).
func (t *Tree) findLeaf(key []byte, qp uint64) (*leafNode, int) {
	n := t.root
	if n == nil {
		return nil, 0
	}
	depth := 0
	for {
		switch node := n.(type) {
		case *leafNode:
			return node, depth
		case *innerNode:
			n = node.children[swarLowerBound(node.pfx, node.keys, key, qp)]
			depth++
		}
	}
}

// Scan visits entries in order from the smallest key >= start.
func (t *Tree) Scan(start []byte, fn func(key []byte, value uint64) bool) int {
	qp := keys.Prefix8(start)
	l, _ := t.findLeaf(start, qp)
	if l == nil {
		return 0
	}
	i := l.lowerBoundSlot(start, qp)
	count := 0
	for l != nil {
		for i = l.nextLive(i); i < fanout; i = l.nextLive(i + 1) {
			if !fn(l.keys[i], l.vals[i]) {
				return count + 1
			}
			count++
		}
		l = l.next
		i = 0
	}
	return count
}

// MemoryUsage accounts nodes and stored key bytes: gapped leaves carry all
// fanout slots' key headers, values, and packed prefixes whether live or
// not (that pre-allocation is exactly the waste Compaction removes), inner
// nodes their separator copies, child pointer slots, and prefix mirrors,
// and each node a 48-byte header (mirroring the C++ layout the thesis
// measures).
func (t *Tree) MemoryUsage() int64 {
	var m int64
	m += int64(t.numLeaves) * (48 + fanout*(16+8+8) + 16) // header + key hdr/value/prefix slots + chain
	m += int64(t.numInner) * 48
	m += t.keyBytes
	// Inner separators duplicate key storage.
	var sepBytes int64
	var sepCount int64
	var walk func(n any)
	walk = func(n any) {
		if in, ok := n.(*innerNode); ok {
			for _, k := range in.keys {
				sepBytes += int64(len(k))
				sepCount++
			}
			for _, c := range in.children {
				walk(c)
			}
		}
	}
	walk(t.root)
	m += sepBytes + sepCount*16
	m += int64(t.numInner) * fanout * (8 + 8) // child pointer + separator prefix slots
	return m
}

// cloneKey copies a key so callers may reuse their buffers.
func cloneKey(k []byte) []byte {
	out := make([]byte, len(k))
	copy(out, k)
	return out
}

// lowerBound returns the first index whose key is >= key (plain binary
// search; retained for the compressed tree's decoded leaves, which have no
// prefix mirror).
func lowerBound(ks [][]byte, key []byte) int {
	lo, hi := 0, len(ks)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys.Compare(ks[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
