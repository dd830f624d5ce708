// Package art implements the Adaptive Radix Tree of Leis et al. as used in
// the thesis (§2.1): a 256-way radix tree whose nodes adaptively use one of
// four layouts (Node4/16/48/256), with lazy expansion (leaves store complete
// keys) and path compression. The Compact variant applies the Chapter 2
// Dynamic-to-Static rules: exact-size Layout 1 nodes for fanout <= 227 and
// Layout 3 above, built over a packed key arena.
//
// Unlike the original C++ implementation, keys may be arbitrary byte strings
// including prefixes of each other: nodes carry an optional prefix-leaf for
// a key that ends exactly at the node (replacing the null-terminator trick,
// which is unsound for binary keys).
package art

import (
	"bytes"

	"mets/internal/keys"
)

type artNode interface{ isARTNode() }

type leaf struct {
	key   []byte
	value uint64
}

type node4 struct {
	header
	keys     [4]byte
	children [4]artNode
}

type node16 struct {
	header
	keys     [16]byte
	children [16]artNode
}

type node48 struct {
	header
	index    [256]uint8 // 0 = empty, otherwise slot+1
	children [48]artNode
}

type node256 struct {
	header
	children [256]artNode
}

type header struct {
	prefix     []byte
	prefixLeaf *leaf // key ending exactly at this node
	n          uint16
}

func (*leaf) isARTNode()    {}
func (*node4) isARTNode()   {}
func (*node16) isARTNode()  {}
func (*node48) isARTNode()  {}
func (*node256) isARTNode() {}

// Tree is a dynamic ART mapping byte keys to uint64 values.
type Tree struct {
	root   artNode
	length int
	// node counts for analytic memory accounting
	n4, n16, n48, n256 int
	keyBytes           int64
}

// New returns an empty ART.
func New() *Tree { return &Tree{} }

// Len returns the number of stored entries.
func (t *Tree) Len() int { return t.length }

// Get returns the value stored under key.
func (t *Tree) Get(key []byte) (uint64, bool) {
	n := t.root
	depth := 0
	for n != nil {
		switch x := n.(type) {
		case *leaf:
			if bytes.Equal(x.key, key) {
				return x.value, true
			}
			return 0, false
		default:
			h := headerOf(n)
			if !prefixMatches(h.prefix, key, depth) {
				return 0, false
			}
			depth += len(h.prefix)
			if depth == len(key) {
				if h.prefixLeaf != nil {
					return h.prefixLeaf.value, true
				}
				return 0, false
			}
			n = findChild(n, key[depth])
			depth++
		}
	}
	return 0, false
}

func headerOf(n artNode) *header {
	switch x := n.(type) {
	case *node4:
		return &x.header
	case *node16:
		return &x.header
	case *node48:
		return &x.header
	case *node256:
		return &x.header
	}
	return nil
}

func prefixMatches(prefix, key []byte, depth int) bool {
	if depth+len(prefix) > len(key) {
		return false
	}
	return bytes.Equal(prefix, key[depth:depth+len(prefix)])
}

func findChild(n artNode, b byte) artNode {
	switch x := n.(type) {
	case *node4:
		for i := 0; i < int(x.n); i++ {
			if x.keys[i] == b {
				return x.children[i]
			}
		}
	case *node16:
		for i := 0; i < int(x.n); i++ {
			if x.keys[i] == b {
				return x.children[i]
			}
		}
	case *node48:
		if s := x.index[b]; s != 0 {
			return x.children[s-1]
		}
	case *node256:
		return x.children[b]
	}
	return nil
}

// Insert adds key/value, returning false when the key already exists.
func (t *Tree) Insert(key []byte, value uint64) bool {
	inserted := t.insert(&t.root, key, 0, value)
	if inserted {
		t.length++
		t.keyBytes += int64(len(key))
	}
	return inserted
}

func (t *Tree) insert(ref *artNode, key []byte, depth int, value uint64) bool {
	n := *ref
	if n == nil {
		*ref = &leaf{key: cloneKey(key), value: value}
		return true
	}
	if l, ok := n.(*leaf); ok {
		if bytes.Equal(l.key, key) {
			return false
		}
		// Split: make a node4 covering the common path of both keys.
		common := keys.CommonPrefixLen(l.key[depth:], key[depth:])
		nn := &node4{}
		t.n4++
		nn.prefix = cloneKey(key[depth : depth+common])
		d := depth + common
		t.attach(nn, l.key, d, l)
		t.attach(nn, key, d, &leaf{key: cloneKey(key), value: value})
		*ref = nn
		return true
	}
	h := headerOf(n)
	common := keys.CommonPrefixLen(h.prefix, keyFrom(key, depth))
	if common < len(h.prefix) {
		// Prefix mismatch: split the compressed path.
		nn := &node4{}
		t.n4++
		nn.prefix = cloneKey(h.prefix[:common])
		oldByte := h.prefix[common]
		h.prefix = cloneKey(h.prefix[common+1:])
		addChild(t, nn, oldByte, n)
		t.attach(nn, key, depth+common, &leaf{key: cloneKey(key), value: value})
		*ref = nn
		return true
	}
	depth += len(h.prefix)
	if depth == len(key) {
		if h.prefixLeaf != nil {
			return false
		}
		h.prefixLeaf = &leaf{key: cloneKey(key), value: value}
		return true
	}
	b := key[depth]
	if slot := findChildSlot(n, b); slot != nil {
		return t.insert(slot, key, depth+1, value)
	}
	grown := t.addChildGrow(n, b, &leaf{key: cloneKey(key), value: value})
	if grown != nil {
		*ref = grown
	}
	return true
}

// attach places l under nn keyed by l's byte at depth d, or as the prefix
// leaf when the key ends there.
func (t *Tree) attach(nn *node4, key []byte, d int, l artNode) {
	if d == len(key) {
		nn.prefixLeaf = l.(*leaf)
		return
	}
	addChild(t, nn, key[d], l)
}

func keyFrom(key []byte, depth int) []byte {
	if depth >= len(key) {
		return nil
	}
	return key[depth:]
}

// findChildSlot returns a settable reference to the child for byte b.
func findChildSlot(n artNode, b byte) *artNode {
	switch x := n.(type) {
	case *node4:
		for i := 0; i < int(x.n); i++ {
			if x.keys[i] == b {
				return &x.children[i]
			}
		}
	case *node16:
		for i := 0; i < int(x.n); i++ {
			if x.keys[i] == b {
				return &x.children[i]
			}
		}
	case *node48:
		if s := x.index[b]; s != 0 {
			return &x.children[s-1]
		}
	case *node256:
		if x.children[b] != nil {
			return &x.children[b]
		}
	}
	return nil
}

// addChild inserts child into a node known to have room (node4 during
// splits).
func addChild(t *Tree, x *node4, b byte, child artNode) {
	i := int(x.n)
	for i > 0 && x.keys[i-1] > b {
		x.keys[i] = x.keys[i-1]
		x.children[i] = x.children[i-1]
		i--
	}
	x.keys[i] = b
	x.children[i] = child
	x.n++
}

// addChildGrow inserts child, growing the node to the next layout when
// full; it returns the replacement node or nil.
func (t *Tree) addChildGrow(n artNode, b byte, child artNode) artNode {
	switch x := n.(type) {
	case *node4:
		if x.n < 4 {
			addChild(t, x, b, child)
			return nil
		}
		g := &node16{header: x.header}
		copy(g.keys[:], x.keys[:])
		copy(g.children[:], x.children[:])
		t.n4--
		t.n16++
		t.insert16(g, b, child)
		return g
	case *node16:
		if x.n < 16 {
			t.insert16(x, b, child)
			return nil
		}
		g := &node48{header: x.header}
		for i := 0; i < 16; i++ {
			g.index[x.keys[i]] = uint8(i + 1)
			g.children[i] = x.children[i]
		}
		t.n16--
		t.n48++
		g.index[b] = uint8(g.n + 1)
		g.children[g.n] = child
		g.n++
		return g
	case *node48:
		if x.n < 48 {
			// Deletes leave holes in the child array, so the next free slot
			// is not necessarily x.n.
			slot := int(x.n)
			if x.children[slot] != nil {
				for i := 0; i < 48; i++ {
					if x.children[i] == nil {
						slot = i
						break
					}
				}
			}
			x.index[b] = uint8(slot + 1)
			x.children[slot] = child
			x.n++
			return nil
		}
		g := &node256{header: x.header}
		for c := 0; c < 256; c++ {
			if s := x.index[c]; s != 0 {
				g.children[c] = x.children[s-1]
			}
		}
		g.n = x.n
		t.n48--
		t.n256++
		g.children[b] = child
		g.n++
		return g
	case *node256:
		x.children[b] = child
		x.n++
		return nil
	}
	panic("art: addChildGrow on leaf")
}

func (t *Tree) insert16(x *node16, b byte, child artNode) {
	i := int(x.n)
	for i > 0 && x.keys[i-1] > b {
		x.keys[i] = x.keys[i-1]
		x.children[i] = x.children[i-1]
		i--
	}
	x.keys[i] = b
	x.children[i] = child
	x.n++
}

// Update overwrites the value of an existing key.
func (t *Tree) Update(key []byte, value uint64) bool {
	n := t.root
	depth := 0
	for n != nil {
		switch x := n.(type) {
		case *leaf:
			if bytes.Equal(x.key, key) {
				x.value = value
				return true
			}
			return false
		default:
			h := headerOf(n)
			if !prefixMatches(h.prefix, key, depth) {
				return false
			}
			depth += len(h.prefix)
			if depth == len(key) {
				if h.prefixLeaf != nil {
					h.prefixLeaf.value = value
					return true
				}
				return false
			}
			n = findChild(n, key[depth])
			depth++
		}
	}
	return false
}

// Delete removes key. Nodes are not shrunk back to smaller layouts (lazy
// deletion, as in the evaluation workloads which are insert/read dominated);
// empty slots are reclaimed on the next merge into the compact stage.
func (t *Tree) Delete(key []byte) bool {
	if t.del(&t.root, key, 0) {
		t.length--
		t.keyBytes -= int64(len(key))
		return true
	}
	return false
}

func (t *Tree) del(ref *artNode, key []byte, depth int) bool {
	n := *ref
	if n == nil {
		return false
	}
	if l, ok := n.(*leaf); ok {
		if bytes.Equal(l.key, key) {
			*ref = nil
			return true
		}
		return false
	}
	h := headerOf(n)
	if !prefixMatches(h.prefix, key, depth) {
		return false
	}
	depth += len(h.prefix)
	if depth == len(key) {
		if h.prefixLeaf != nil {
			h.prefixLeaf = nil
			return true
		}
		return false
	}
	slot := findChildSlot(n, key[depth])
	if slot == nil {
		return false
	}
	if !t.del(slot, key, depth+1) {
		return false
	}
	if *slot == nil {
		removeChild(t, ref, key[depth])
	}
	return true
}

// removeChild drops the (now nil) child for byte b from *ref's node.
func removeChild(t *Tree, ref *artNode, b byte) {
	switch x := (*ref).(type) {
	case *node4:
		removeFromSorted(x.keys[:], x.children[:], int(x.n), b)
		x.n--
		if x.n == 0 {
			if x.prefixLeaf != nil {
				*ref = x.prefixLeaf
			} else {
				*ref = nil
			}
			t.n4--
		}
	case *node16:
		removeFromSorted(x.keys[:], x.children[:], int(x.n), b)
		x.n--
	case *node48:
		if s := x.index[b]; s != 0 {
			x.children[s-1] = nil
			x.index[b] = 0
			x.n--
		}
	case *node256:
		x.children[b] = nil
		x.n--
	}
}

func removeFromSorted(ks []byte, cs []artNode, n int, b byte) {
	for i := 0; i < n; i++ {
		if ks[i] == b {
			copy(ks[i:n-1], ks[i+1:n])
			copy(cs[i:n-1], cs[i+1:n])
			cs[n-1] = nil
			return
		}
	}
}

// Scan visits entries in key order from the smallest key >= start.
func (t *Tree) Scan(start []byte, fn func(key []byte, value uint64) bool) int {
	count := 0
	t.scan(t.root, start, 0, fn, &count)
	return count
}

// scan returns false when iteration should stop.
func (t *Tree) scan(n artNode, start []byte, depth int, fn func([]byte, uint64) bool, count *int) bool {
	if n == nil {
		return true
	}
	if l, ok := n.(*leaf); ok {
		if start != nil && bytes.Compare(l.key, start) < 0 {
			return true
		}
		*count++
		return fn(l.key, l.value)
	}
	h := headerOf(n)
	filtered := start != nil
	d := depth + len(h.prefix)
	if filtered {
		// Compare the compressed path against the corresponding start bytes.
		end := d
		if end > len(start) {
			end = len(start)
		}
		rel := bytes.Compare(h.prefix[:max(0, end-depth)], start[depth:end])
		switch {
		case rel > 0:
			filtered = false // whole subtree sorts after start
		case rel < 0:
			return true // whole subtree sorts before start
		case d >= len(start):
			filtered = false // start exhausted inside the prefix
		}
	}
	if h.prefixLeaf != nil && !filtered {
		*count++
		if !fn(h.prefixLeaf.key, h.prefixLeaf.value) {
			return false
		}
	}
	var startByte int = -1
	if filtered {
		startByte = int(start[d])
	}
	return forEachChild(n, func(b int, c artNode) bool {
		if b < startByte {
			return true
		}
		sub := start
		if !filtered || b > startByte {
			sub = nil
		}
		return t.scan(c, sub, d+1, fn, count)
	})
}

// forEachChild visits children in label order; stop by returning false.
func forEachChild(n artNode, fn func(b int, c artNode) bool) bool {
	switch x := n.(type) {
	case *node4:
		for i := 0; i < int(x.n); i++ {
			if !fn(int(x.keys[i]), x.children[i]) {
				return false
			}
		}
	case *node16:
		for i := 0; i < int(x.n); i++ {
			if !fn(int(x.keys[i]), x.children[i]) {
				return false
			}
		}
	case *node48:
		for b := 0; b < 256; b++ {
			if s := x.index[b]; s != 0 {
				if !fn(b, x.children[s-1]) {
					return false
				}
			}
		}
	case *node256:
		for b := 0; b < 256; b++ {
			if x.children[b] != nil {
				if !fn(b, x.children[b]) {
					return false
				}
			}
		}
	}
	return true
}

// MemoryUsage mirrors the C++ node layouts: Node4 = 16+4+4*8, Node16 =
// 16+16+16*8, Node48 = 16+256+48*8, Node256 = 16+256*8 bytes, leaves = 16 +
// key header (16) + key bytes + value.
func (t *Tree) MemoryUsage() int64 {
	var m int64
	m += int64(t.n4) * (16 + 4 + 4*8)
	m += int64(t.n16) * (16 + 16 + 16*8)
	m += int64(t.n48) * (16 + 256 + 48*8)
	m += int64(t.n256) * (16 + 256*8)
	m += int64(t.length)*(16+16+8) + t.keyBytes
	return m
}

func cloneKey(k []byte) []byte {
	out := make([]byte, len(k))
	copy(out, k)
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
