package fst

import (
	"bytes"
	"unsafe"

	"mets/internal/bits"
	"mets/internal/index"
)

// Static is the trie as a hybrid index's static stage (index.Static), in one
// of two layouts that the keys decide:
//
//   - When every key has one length K > 0, lazy expansion: the trie is
//     truncated, so a key's path stops at the level that tells it from its
//     neighbours, and the rest of the key, its tail, is kept in tails.
//   - Otherwise a complete trie, and tails is nil.
//
// Values are frame-of-reference coded per region in slot order. A level's
// leaves are in key order, so tuple IDs loaded in key order stay neighbours
// within a frame.
type Static struct {
	t     Trie
	tails *tails
}

// tails holds the rest of every key of a fixed-width set past its leaf, in
// slot order. A level's leaves take consecutive slots (the levels follow one
// another in slot order) and their tails share one width, K-l-1 on level l,
// so a tail's place is arithmetic and no leaf needs a locator.
type tails struct {
	keyLen int // K
	bytes  []byte
	// Per level: the slot of its first leaf and where that leaf's tail starts.
	slotStart, tailStart []int
}

// staticConfig is the stage's tuning: the thesis' rank blocks and select
// samples, with the dense/sparse cutoff ratio R lowered from 64 to 8, which
// makes one more level dense on the sharded engine's shards: one select
// fewer per lookup at about the same size.
var staticConfig = Config{StoreValues: true, DenseLevels: -1, DenseRatio: 8}

// NewStatic builds the stage from sorted unique entries.
func NewStatic(entries []index.Entry) (*Static, error) {
	s := &Static{}
	if len(entries) == 0 {
		return s, nil
	}
	b := &builder{n: len(entries), es: entries}
	cfg := staticConfig
	if k := fixedWidth(entries); k > 0 {
		ts := &tails{keyLen: k}
		s.tails, cfg.Truncate = ts, true
		b.counted = ts.lay
		b.leaf = func(slot, i, pathLen int) { copy(ts.at(slot, pathLen), entries[i].Key[pathLen:]) }
	}
	if err := b.build(&s.t, cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// fixedWidth returns the length every key has, or 0 when lengths differ.
func fixedWidth(entries []index.Entry) int {
	k := len(entries[0].Key)
	for _, e := range entries[1:] {
		if len(e.Key) != k {
			return 0
		}
	}
	return k
}

// lay allocates the tails of a truncated trie's leaves from its level
// counts.
func (ts *tails) lay(levels []levelCount) {
	ts.slotStart, ts.tailStart = make([]int, len(levels)), make([]int, len(levels))
	slot, off := 0, 0
	for l, c := range levels {
		ts.slotStart[l], ts.tailStart[l] = slot, off
		slot += c.leaves
		off += c.leaves * (ts.keyLen - l - 1)
	}
	ts.bytes = make([]byte, off)
}

// at returns the tail of the leaf in slot, whose path is pathLen bytes long:
// nil in the complete layout.
func (ts *tails) at(slot, pathLen int) []byte {
	if ts == nil {
		return nil
	}
	l, w := pathLen-1, ts.keyLen-pathLen
	off := ts.tailStart[l] + (slot-ts.slotStart[l])*w
	return ts.bytes[off : off+w : off+w]
}

// Len returns the number of entries.
func (s *Static) Len() int { return s.t.numDenseLeaves + s.t.numSparseLeaves }

// Get returns the value stored under key: the leaf the key reaches must hold
// it whole, path and tail.
func (s *Static) Get(key []byte) (uint64, bool) {
	if s.t.height == 0 || s.tails != nil && len(key) != s.tails.keyLen {
		return 0, false
	}
	slot, pathLen, _, ok := s.t.lookup(key)
	if !ok || !bytes.Equal(key[pathLen:], s.tails.at(slot, pathLen)) {
		return 0, false
	}
	return s.t.valueAt(slot), true
}

// Scan visits entries in order from the smallest key >= start. The key is
// lent for the duration of the callback only: the walk keeps it in one
// buffer, truncating and appending as it moves.
func (s *Static) Scan(start []byte, fn func(key []byte, value uint64) bool) int {
	if s.t.height == 0 {
		return 0
	}
	it := s.t.PooledIterator()
	// The seek stops at a leaf whose path is a proper prefix of start; its
	// key is the bound only if its tail makes it no smaller than start.
	if it.SeekLowerBound(start) {
		if path := len(it.key); bytes.Compare(s.tails.at(it.slot(), path), start[path:]) < 0 {
			it.Next()
		}
	}
	count := 0
	for ; it.valid; it.Next() {
		count++
		slot, v := it.nextValue()
		key := it.key
		if s.tails != nil {
			// The tail goes past the path in the walk's buffer, where its
			// next step writes over it; a grown buffer is kept.
			key = append(key, s.tails.at(slot, len(key))...)
			it.key = key[:len(it.key)]
		}
		if !fn(key, v) {
			break
		}
	}
	it.Release()
	return count
}

// MemoryUsage returns the bytes the allocator handed out for the stage: the
// struct itself and every array it holds.
func (s *Static) MemoryUsage() int64 {
	m := bits.AllocSize(int(unsafe.Sizeof(*s)))
	if s.t.height == 0 {
		return m
	}
	t := &s.t
	m += t.dLabels.HeapSize() + t.dHasChild.HeapSize() + t.dIsPrefix.HeapSize()
	m += bits.SliceAlloc(t.sLabels) + t.sHasChild.HeapSize() + t.sLouds.HeapSize()
	m += t.dValues.MemoryUsage() + t.sValues.MemoryUsage()
	m += bits.SliceAlloc(t.dLevelValueStart) + bits.SliceAlloc(t.sLevelPosStart) + bits.SliceAlloc(t.sLevelValueStart)
	if ts := s.tails; ts != nil {
		m += bits.AllocSize(int(unsafe.Sizeof(*ts)))
		m += bits.SliceAlloc(ts.bytes) + bits.SliceAlloc(ts.slotStart) + bits.SliceAlloc(ts.tailStart)
	}
	return m
}
