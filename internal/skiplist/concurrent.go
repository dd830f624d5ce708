package skiplist

import (
	"bytes"
	"sync/atomic"
	"unsafe"

	"mets/internal/bits"
	"mets/internal/keys"
)

// Concurrent is the single-writer / multi-reader memtable behind the hybrid
// index's lock-free read path (hybrid.Config.EpochReads): a tower skip list whose forward links are
// atomic pointers, so any number of readers may search and scan while one
// writer (the hybrid's write mutex guarantees there is at most one) inserts
// in place. This is the same memtable shape LevelDB and RocksDB use under
// their sequence-number MVCC; here the per-entry state is simpler — a value
// or a tombstone — because the hybrid index layers stages instead of
// versions.
//
// Unlike List, entries are never physically unlinked: a delete writes a
// tombstone state into the node, which the stage layering interprets as
// "suppress this key in every lower stage". The hybrid folds its former
// tombstone side-map into these states, so the read path touches exactly one
// structure for the dynamic stage. Sealed memtables (the hybrid's frozen
// stage) stop receiving writes entirely and are drained by the background
// merge through SnapshotStates.
//
// Readers are lock-free and wait-free: a search is a bounded descent over
// atomic loads and never retries, regardless of concurrent inserts.
type Concurrent struct {
	head      cnode // key nil; tower at full height
	headTower [maxLevel]atomic.Pointer[cnode]
	// height is the tallest tower linked so far: searches start there.
	height atomic.Int32

	// Writer-owned state (guarded by the owner's write mutex).
	rngState uint64
	slab     keys.Slab // every node's key bytes

	// live, tombs and bytes are maintained by the writer, read concurrently
	// by Len, the merge trigger and MemoryUsage.
	live  atomic.Int64
	tombs atomic.Int64
	bytes atomic.Int64
}

// state encodes a node's logical content. Transitions are value<->tombstone
// only; nodes never revert to absent.
const (
	statePresent = uint32(iota)
	stateTombstone
)

// cnode is one entry. A search hop loads a link from the tower and then
// the next node's pfx, so both sit at the front of one object: each node is
// allocated together with its tower (the height classes below), and the key
// itself is read only when two prefixes tie.
type cnode struct {
	pfx uint64 // keys.Prefix8(key)
	// next[0..len) are the forward links, the tower allocated with the
	// node; the slice is immutable (its pointees are not) after link-in.
	next []atomic.Pointer[cnode]
	// The key is cut from the writer's slab and immutable after link-in. It
	// is held as its first byte and length (keys are far below 4 GiB) rather
	// than a slice, so that a node with a 1-high tower is 64 bytes: one size
	// class, one cache line.
	kptr *byte
	val  atomic.Uint64
	klen uint32
	st   atomic.Uint32
}

// key returns the node's key; callers may keep it.
func (n *cnode) key() []byte { return unsafe.Slice(n.kptr, n.klen) }

// Height classes: a node and its tower are one allocation, the tower in
// front so that its low links, pfx and the next header share a cache line.
// Half the towers are 1 high and a quarter 2; one in 256 is taller than 8
// and takes the full-height class.
type (
	node1 struct {
		tower [1]atomic.Pointer[cnode]
		n     cnode
	}
	node2 struct {
		tower [2]atomic.Pointer[cnode]
		n     cnode
	}
	node4 struct {
		tower [4]atomic.Pointer[cnode]
		n     cnode
	}
	node8 struct {
		tower [8]atomic.Pointer[cnode]
		n     cnode
	}
	nodeMax struct {
		tower [maxLevel]atomic.Pointer[cnode]
		n     cnode
	}
)

// classBytes is what the allocator hands out for each height class.
var classBytes = [...]int64{
	bits.AllocSize(int(unsafe.Sizeof(node1{}))),
	bits.AllocSize(int(unsafe.Sizeof(node2{}))),
	bits.AllocSize(int(unsafe.Sizeof(node4{}))),
	bits.AllocSize(int(unsafe.Sizeof(node8{}))),
	bits.AllocSize(int(unsafe.Sizeof(nodeMax{}))),
}

// newNode allocates a node with a tower of lvl links and returns it with
// the bytes its height class occupies.
func newNode(lvl int) (*cnode, int64) {
	switch {
	case lvl == 1:
		o := new(node1)
		o.n.next = o.tower[:]
		return &o.n, classBytes[0]
	case lvl == 2:
		o := new(node2)
		o.n.next = o.tower[:]
		return &o.n, classBytes[1]
	case lvl <= 4:
		o := new(node4)
		o.n.next = o.tower[:lvl]
		return &o.n, classBytes[2]
	case lvl <= 8:
		o := new(node8)
		o.n.next = o.tower[:lvl]
		return &o.n, classBytes[3]
	default:
		o := new(nodeMax)
		o.n.next = o.tower[:lvl]
		return &o.n, classBytes[4]
	}
}

// is reports whether n holds key, whose prefix is kp.
func (n *cnode) is(kp uint64, key []byte) bool {
	return n.pfx == kp && bytes.Equal(n.key(), key)
}

// NewConcurrent returns an empty concurrent memtable with a deterministic
// tower-height sequence.
func NewConcurrent() *Concurrent {
	c := &Concurrent{rngState: 0x5eed1337}
	c.head.next = c.headTower[:]
	return c
}

// randomLevel draws a tower height from the same geometric distribution as
// List, via a splitmix-style writer-local generator.
func (c *Concurrent) randomLevel() int {
	c.rngState += 0x9E3779B97F4A7C15
	z := c.rngState
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	lvl := 1
	for lvl < maxLevel && z&1 == 0 {
		z >>= 1
		lvl++
	}
	return lvl
}

// findPredecessors fills update[0..height) with the last node before key at
// each level and returns the first node with key >= the search key (nil at
// the end); kp is keys.Prefix8(key), and a node's key is compared only when
// its prefix ties kp. Reader-safe: only atomic loads. The result is the node
// the bottom-level loop last compared, never a second load of its
// predecessor's link: a writer may link a smaller neighbour in between, and a
// re-load would then hand back that neighbour — a present key would read as
// absent and a cursor would start below its bound.
func (c *Concurrent) findPredecessors(key []byte, kp uint64, update *[maxLevel]*cnode) *cnode {
	x := &c.head
	var nxt *cnode
	for i := int(c.height.Load()) - 1; i >= 0; i-- {
		for {
			nxt = x.next[i].Load()
			if nxt == nil || nxt.pfx > kp || nxt.pfx == kp && bytes.Compare(nxt.key(), key) >= 0 {
				break
			}
			x = nxt
		}
		if update != nil {
			update[i] = x
		}
	}
	return nxt
}

// Get returns the value stored under key and whether the entry is a live
// value (ok=true) or a tombstone (tomb=true). Both false means absent.
func (c *Concurrent) Get(key []byte) (val uint64, ok, tomb bool) {
	kp := keys.Prefix8(key)
	n := c.findPredecessors(key, kp, nil)
	if n == nil || !n.is(kp, key) {
		return 0, false, false
	}
	// Load the state before the value: a concurrent tombstone->value
	// transition (re-insert over a delete) stores the value first, then
	// flips the state, so this order never yields a stale value with a
	// present state.
	if n.st.Load() == stateTombstone {
		return 0, false, true
	}
	return n.val.Load(), true, false
}

// Put inserts key with value, or overwrites the existing entry (reviving a
// tombstone). Writer-only. Reports whether a new node was created.
func (c *Concurrent) Put(key []byte, value uint64) bool {
	var update [maxLevel]*cnode
	kp := keys.Prefix8(key)
	n := c.findPredecessors(key, kp, &update)
	if n != nil && n.is(kp, key) {
		wasTomb := n.st.Load() == stateTombstone
		n.val.Store(value)
		n.st.Store(statePresent) // linearization point of a revive
		if wasTomb {
			c.tombs.Add(-1)
			c.live.Add(1)
		}
		return false
	}
	c.link(key, kp, value, statePresent, &update)
	c.live.Add(1)
	return true
}

// Tomb marks key as a tombstone, creating the node if absent. Writer-only.
// Returns whether the key previously held a live value.
func (c *Concurrent) Tomb(key []byte) bool {
	var update [maxLevel]*cnode
	kp := keys.Prefix8(key)
	n := c.findPredecessors(key, kp, &update)
	if n != nil && n.is(kp, key) {
		if n.st.Load() == stateTombstone {
			return false
		}
		n.st.Store(stateTombstone) // linearization point of the delete
		c.live.Add(-1)
		c.tombs.Add(1)
		return true
	}
	c.link(key, kp, 0, stateTombstone, &update)
	c.tombs.Add(1)
	return false
}

// link splices a fresh node after the recorded predecessors, bottom-up so a
// concurrent reader that sees the node at any level can complete its descent
// through the lower levels. A tower taller than the list raises the height
// once it is linked; until then searches start below it.
func (c *Concurrent) link(key []byte, kp, value uint64, st uint32, update *[maxLevel]*cnode) {
	lvl := c.randomLevel()
	nn, size := newNode(lvl)
	nn.pfx = kp
	slab := c.slab.Bytes()
	k := c.slab.Clone(key)
	nn.kptr, nn.klen = unsafe.SliceData(k), uint32(len(k))
	nn.val.Store(value)
	nn.st.Store(st)
	h := int(c.height.Load())
	for i := h; i < lvl; i++ {
		update[i] = &c.head
	}
	for i := 0; i < lvl; i++ {
		nn.next[i].Store(update[i].next[i].Load())
	}
	// Publish bottom-up; the level-0 store makes the node reachable to every
	// search (upper levels are an acceleration structure only).
	for i := 0; i < lvl; i++ {
		update[i].next[i].Store(nn)
	}
	if lvl > h {
		c.height.Store(int32(lvl))
	}
	c.bytes.Add(size + c.slab.Bytes() - slab)
}

// Len returns the number of live (non-tombstone) entries.
func (c *Concurrent) Len() int { return int(c.live.Load()) }

// Nodes returns the total node count including tombstones (the raw stage
// size the merge trigger compares against MinDynamic).
func (c *Concurrent) Nodes() int { return int(c.live.Load() + c.tombs.Load()) }

// Tombs returns the number of tombstoned keys.
func (c *Concurrent) Tombs() int { return int(c.tombs.Load()) }

// ScanStates visits every node (live and tombstoned) in key order from the
// smallest key >= start until fn returns false, reporting each node's state.
// Reader-safe; the key slice handed to fn is immutable and may be retained.
// Entries inserted concurrently behind the cursor are not revisited; entries
// ahead of it may or may not be seen (the usual memtable scan contract).
func (c *Concurrent) ScanStates(start []byte, fn func(key []byte, value uint64, tomb bool) bool) int {
	n := c.findPredecessors(start, keys.Prefix8(start), nil)
	count := 0
	for ; n != nil; n = n.next[0].Load() {
		count++
		tomb := n.st.Load() == stateTombstone
		var v uint64
		if !tomb {
			v = n.val.Load()
		}
		if !fn(n.key(), v, tomb) {
			break
		}
	}
	return count
}

// Scan visits live entries only (index.Dynamic-shaped helper for tests).
func (c *Concurrent) Scan(start []byte, fn func(key []byte, value uint64) bool) int {
	count := 0
	c.ScanStates(start, func(k []byte, v uint64, tomb bool) bool {
		if tomb {
			return true
		}
		count++
		return fn(k, v)
	})
	return count
}

// StateEntry is one drained node: a key with either a value or a tombstone.
type StateEntry struct {
	Key   []byte
	Value uint64
	Tomb  bool
}

// SnapshotStates drains every node into a sorted slice (background-merge
// input; call on a sealed memtable for a stable result).
func (c *Concurrent) SnapshotStates() []StateEntry {
	out := make([]StateEntry, 0, c.Len()+c.Tombs())
	c.ScanStates(nil, func(k []byte, v uint64, tomb bool) bool {
		out = append(out, StateEntry{Key: k, Value: v, Tomb: tomb})
		return true
	})
	return out
}

// MemoryUsage is what the allocator handed out for the memtable's entries:
// each node's height class and every chunk of the key slab. The head is part
// of the Concurrent itself, so an empty memtable reports 0. Safe for
// concurrent use; a reader beside the writer sees the figure of a recent
// insert.
func (c *Concurrent) MemoryUsage() int64 { return c.bytes.Load() }
