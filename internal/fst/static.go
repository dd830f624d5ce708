package fst

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"unsafe"

	"mets/internal/bits"
	"mets/internal/index"
)

// Static is a hybrid index's static stage (index.Static), in one of three
// layouts that the keys decide:
//
//   - When every key has one length K of at most 8 bytes, a key column: each
//     key read as a K-byte big-endian integer, the integers in key order in
//     one bits.FOR — for random keys its Elias–Fano form, about
//     2 + log2(2^8K/n) bits a key — and the values in key order in another.
//     The trie is empty.
//   - When every key has one length K > 8, lazy expansion: the trie is
//     truncated, so a key's path stops at the level that tells it from its
//     neighbours, and the rest of the key, its tail, is kept in tails.
//   - Otherwise a complete trie, and tails is nil.
//
// A trie's values are coded per region in slot order (bits.FOR). A level's
// leaves are in key order, so tuple IDs loaded in key order rise along each
// level; the builder then shifts each level to start where the one before
// ended, and the region is one rising sequence in the Elias–Fano form
// (shiftLevels).
type Static struct {
	t     Trie
	tails *tails
	col   *column
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

// column holds a set of keys of one length K <= 8 as integers: key i, read
// as a K-byte big-endian integer, is keys[i], and its value is values[i].
type column struct {
	keyLen       int
	keys, values bits.FOR
}

// staticConfig is the stage's tuning: the thesis' rank blocks and select
// samples, with the dense/sparse cutoff ratio R lowered from 64 to 8, which
// makes one more level dense on the sharded engine's shards: one select
// fewer per lookup at about the same size.
var staticConfig = Config{StoreValues: true, DenseLevels: -1, DenseRatio: 8}

// NewStatic builds the stage from sorted unique entries.
func NewStatic(entries []index.Entry) (*Static, error) {
	if len(entries) == 0 {
		return &Static{}, nil
	}
	k := fixedWidth(entries)
	if k > 0 && k <= 8 {
		return newColumn(entries)
	}
	return newTrie(entries, k)
}

// newTrie builds the trie over the entries, whose keys all have length k,
// or differ in length when k is 0: then the trie is complete, else
// truncated, with the tails kept beside it.
func newTrie(entries []index.Entry, k int) (*Static, error) {
	s := &Static{}
	b := &builder{n: len(entries), es: entries}
	cfg := staticConfig
	if k > 0 {
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

// newColumn codes the keys, read as integers, and the values in key order.
// Keys of one length are sorted and unique exactly when their integers
// rise.
func newColumn(entries []index.Entry) (*Static, error) {
	kb := bits.NewFORBuilder(len(entries), true)
	rising, last := true, uint64(0)
	for i, e := range entries {
		x := keyInt(e.Key)
		if i > 0 && x <= last {
			return nil, fmt.Errorf("fst: keys must be sorted and unique (violated at index %d)", i)
		}
		kb.Frame(i, x)
		last = x
		rising = rising && (i == 0 || e.Value >= entries[i-1].Value)
	}
	vb := bits.NewFORBuilder(len(entries), rising)
	for i, e := range entries {
		kb.Put(i, keyInt(e.Key))
		vb.Frame(i, e.Value)
	}
	for i, e := range entries {
		vb.Put(i, e.Value)
	}
	return &Static{col: &column{keyLen: len(entries[0].Key), keys: kb.FOR(), values: vb.FOR()}}, nil
}

// keyInt reads a key of at most 8 bytes as a big-endian integer.
func keyInt(k []byte) uint64 {
	if len(k) == 8 {
		return binary.BigEndian.Uint64(k)
	}
	var v uint64
	for _, c := range k {
		v = v<<8 | uint64(c)
	}
	return v
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
func (s *Static) Len() int {
	if s.col != nil {
		return s.col.keys.Len()
	}
	return s.t.numDenseLeaves + s.t.numSparseLeaves
}

// Get returns the value stored under key: in a column, the first integer no
// smaller than the key's must be the key's; in a trie, the leaf the key
// reaches must hold it whole, path and tail.
func (s *Static) Get(key []byte) (uint64, bool) {
	if c := s.col; c != nil {
		if len(key) != c.keyLen {
			return 0, false
		}
		x := keyInt(key)
		if i, k := c.keys.Search(x); i < c.keys.Len() && k == x {
			return c.values.Get(i), true
		}
		return 0, false
	}
	if s.t.height == 0 || s.tails != nil && len(key) != s.tails.keyLen {
		return 0, false
	}
	slot, level, pathLen, _, ok := s.t.lookup(key)
	if !ok || !bytes.Equal(key[pathLen:], s.tails.at(slot, pathLen)) {
		return 0, false
	}
	return s.t.valueAt(slot, level), true
}

// Scan visits entries in order from the smallest key >= start. The key is
// lent for the duration of the callback only: the walk keeps it in one
// buffer, truncating and appending as it moves, or in a column writing each
// key over the last.
func (s *Static) Scan(start []byte, fn func(key []byte, value uint64) bool) int {
	if s.col != nil {
		return s.col.scan(start, fn)
	}
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

// keyBufs lends column scans the buffer their keys are written into.
var keyBufs = sync.Pool{New: func() any { return new([8]byte) }}

// scan is Scan over a column: start maps to the first integer a key no
// smaller than it can be, and both arrays are walked from there in step.
func (c *column) scan(start []byte, fn func(key []byte, value uint64) bool) int {
	i, n := c.lowerBound(start), c.keys.Len()
	if i == n {
		return 0
	}
	buf := keyBufs.Get().(*[8]byte)
	key := buf[8-c.keyLen:]
	ks, vs := c.keys.Iter(i), c.values.Iter(i)
	count := 0
	for ; i < n; i++ {
		count++
		binary.BigEndian.PutUint64(buf[:], ks.Next())
		if !fn(key, vs.Next()) {
			break
		}
	}
	keyBufs.Put(buf)
	return count
}

// lowerBound returns the index of the first key no smaller than start. A
// shorter start is zero-padded to K bytes. A longer one is passed by every
// key that shares its first K bytes, so the bound is the integer after them,
// and there is none when they are all 0xFF.
func (c *column) lowerBound(start []byte) int {
	k := c.keyLen
	x := keyInt(start[:min(k, len(start))]) << (8 * max(k-len(start), 0))
	if len(start) > k {
		if x == ^uint64(0)>>(64-8*k) {
			return c.keys.Len()
		}
		x++
	}
	i, _ := c.keys.Search(x)
	return i
}

// MemoryUsage returns the bytes the allocator handed out for the stage: the
// struct itself and every array it holds.
func (s *Static) MemoryUsage() int64 {
	m := bits.AllocSize(int(unsafe.Sizeof(*s)))
	if c := s.col; c != nil {
		return m + bits.AllocSize(int(unsafe.Sizeof(*c))) + c.keys.MemoryUsage() + c.values.MemoryUsage()
	}
	if s.t.height == 0 {
		return m
	}
	t := &s.t
	m += t.dLabels.HeapSize() + t.dHasChild.HeapSize() + t.dIsPrefix.HeapSize()
	m += bits.SliceAlloc(t.sLabels) + t.sHasChild.HeapSize() + t.sLouds.HeapSize()
	m += t.dValues.MemoryUsage() + t.sValues.MemoryUsage() + bits.SliceAlloc(t.shift)
	m += bits.SliceAlloc(t.dLevelValueStart) + bits.SliceAlloc(t.sLevelPosStart) + bits.SliceAlloc(t.sLevelValueStart)
	if ts := s.tails; ts != nil {
		m += bits.AllocSize(int(unsafe.Sizeof(*ts)))
		m += bits.SliceAlloc(ts.bytes) + bits.SliceAlloc(ts.slotStart) + bits.SliceAlloc(ts.tailStart)
	}
	return m
}
