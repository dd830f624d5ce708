package skiplist

import (
	"bytes"
	"sync/atomic"

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
	head cnode // key nil; towers at full height

	// Writer-owned state (guarded by the owner's write mutex).
	rngState uint64
	keyBytes int64
	towers   int64

	// live and tombs are maintained by the writer, read concurrently by Len
	// and the merge trigger.
	live  atomic.Int64
	tombs atomic.Int64
}

// state encodes a node's logical content. Transitions are value<->tombstone
// only; nodes never revert to absent.
const (
	statePresent = uint32(iota)
	stateTombstone
)

type cnode struct {
	key []byte // immutable after link-in
	val atomic.Uint64
	st  atomic.Uint32
	// next[0..len) are the forward links; the slice is immutable (its
	// pointees are not) after link-in.
	next []atomic.Pointer[cnode]
}

// NewConcurrent returns an empty concurrent memtable with a deterministic
// tower-height sequence.
func NewConcurrent() *Concurrent {
	c := &Concurrent{rngState: 0x5eed1337}
	c.head.next = make([]atomic.Pointer[cnode], maxLevel)
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

// findPredecessors fills update with the last node before key at each level
// and returns the first node with key >= the search key (nil at the end).
// Reader-safe: only atomic loads. The result is the node the bottom-level
// loop last compared, never a second load of its predecessor's link: a
// writer may link a smaller neighbour in between, and a re-load would then
// hand back that neighbour — a present key would read as absent and a cursor
// would start below its bound.
func (c *Concurrent) findPredecessors(key []byte, update *[maxLevel]*cnode) *cnode {
	x := &c.head
	var nxt *cnode
	for i := maxLevel - 1; i >= 0; i-- {
		for {
			nxt = x.next[i].Load()
			if nxt == nil || keys.Compare(nxt.key, key) >= 0 {
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
	n := c.findPredecessors(key, nil)
	if n == nil || !bytes.Equal(n.key, key) {
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
	n := c.findPredecessors(key, &update)
	if n != nil && bytes.Equal(n.key, key) {
		wasTomb := n.st.Load() == stateTombstone
		n.val.Store(value)
		n.st.Store(statePresent) // linearization point of a revive
		if wasTomb {
			c.tombs.Add(-1)
			c.live.Add(1)
		}
		return false
	}
	c.link(key, value, statePresent, &update)
	c.live.Add(1)
	return true
}

// Tomb marks key as a tombstone, creating the node if absent. Writer-only.
// Returns whether the key previously held a live value.
func (c *Concurrent) Tomb(key []byte) bool {
	var update [maxLevel]*cnode
	n := c.findPredecessors(key, &update)
	if n != nil && bytes.Equal(n.key, key) {
		if n.st.Load() == stateTombstone {
			return false
		}
		n.st.Store(stateTombstone) // linearization point of the delete
		c.live.Add(-1)
		c.tombs.Add(1)
		return true
	}
	c.link(key, 0, stateTombstone, &update)
	c.tombs.Add(1)
	return false
}

// link splices a fresh node after the recorded predecessors, bottom-up so a
// concurrent reader that sees the node at any level can complete its descent
// through the lower levels.
func (c *Concurrent) link(key []byte, value uint64, st uint32, update *[maxLevel]*cnode) {
	lvl := c.randomLevel()
	nn := &cnode{
		key:  append([]byte(nil), key...),
		next: make([]atomic.Pointer[cnode], lvl),
	}
	nn.val.Store(value)
	nn.st.Store(st)
	for i := 0; i < lvl; i++ {
		nn.next[i].Store(update[i].next[i].Load())
	}
	// Publish bottom-up; the level-0 store makes the node reachable to every
	// search (upper levels are an acceleration structure only).
	for i := 0; i < lvl; i++ {
		update[i].next[i].Store(nn)
	}
	c.keyBytes += int64(len(key))
	c.towers += int64(lvl)
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
	n := c.findPredecessors(start, nil)
	count := 0
	for ; n != nil; n = n.next[0].Load() {
		count++
		tomb := n.st.Load() == stateTombstone
		var v uint64
		if !tomb {
			v = n.val.Load()
		}
		if !fn(n.key, v, tomb) {
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

// MemoryUsage mirrors List's accounting: node headers, key headers and
// bytes, values, and tower slots. Writer-accurate; concurrent readers see a
// slightly stale figure.
func (c *Concurrent) MemoryUsage() int64 {
	n := c.live.Load() + c.tombs.Load()
	return n*(32+16+8+8) + c.keyBytes + c.towers*8
}
