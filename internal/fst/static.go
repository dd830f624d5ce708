package fst

import (
	"encoding/binary"
	"fmt"
	"sync"
	"unsafe"

	"mets/internal/bits"
	"mets/internal/index"
)

// Static is a hybrid index's static stage (index.Static), in one of two
// layouts that the keys decide:
//
//   - When every key has one length K of at most 8 bytes, a key column: each
//     key read as a K-byte big-endian integer, the integers in key order in
//     one bits.FOR — for random keys its Elias–Fano form, about
//     2 + log2(2^8K/n) bits a key — and the values in key order in a
//     valueRun. The trie is empty.
//   - Otherwise the complete trie of Chapter 3, every key byte stored.
//
// A trie's values are coded one valueRun per level, in slot order. A level's
// leaves are in key order, so tuple IDs loaded in key order rise strictly
// along each level and are coded as x_i − i in the Elias–Fano form.
type Static struct {
	t   Trie
	col *column
}

// column holds a set of keys of one length K <= 8 as integers: key i, read
// as a K-byte big-endian integer, is keys[i], and its value is values[i].
type column struct {
	keyLen int
	keys   bits.FOR
	values valueRun
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
	if k := fixedWidth(entries); k > 0 && k <= 8 {
		return newColumn(entries)
	}
	return newTrie(entries)
}

// newTrie builds the complete trie over the entries.
func newTrie(entries []index.Entry) (*Static, error) {
	s := &Static{}
	if err := (&builder{n: len(entries), es: entries}).build(&s.t, staticConfig); err != nil {
		return nil, err
	}
	return s, nil
}

// newColumn codes the keys, read as integers, and the values in key order.
// Keys of one length are sorted and unique exactly when their integers
// rise.
func newColumn(entries []index.Entry) (*Static, error) {
	kb := bits.NewFORBuilder(len(entries), true)
	rises, strict, last := true, true, uint64(0)
	for i, e := range entries {
		x := keyInt(e.Key)
		if i > 0 && x <= last {
			return nil, fmt.Errorf("fst: keys must be sorted and unique (violated at index %d)", i)
		}
		kb.Frame(i, x)
		last = x
		if i > 0 {
			rises = rises && e.Value >= entries[i-1].Value
			strict = strict && e.Value > entries[i-1].Value
		}
	}
	c := &column{keyLen: len(entries[0].Key), values: valueRun{step: stepOf(strict)}}
	vb := bits.NewFORBuilder(len(entries), rises)
	for i, e := range entries {
		kb.Put(i, keyInt(e.Key))
		vb.Frame(i, c.values.coded(i, e.Value))
	}
	for i, e := range entries {
		vb.Put(i, c.values.coded(i, e.Value))
	}
	c.keys, c.values.f = kb.FOR(), vb.FOR()
	return &Static{col: c}, nil
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

// Len returns the number of entries.
func (s *Static) Len() int {
	if s.col != nil {
		return s.col.keys.Len()
	}
	return s.t.numDenseLeaves + s.t.numSparseLeaves
}

// Get returns the value stored under key: in a column, the first integer no
// smaller than the key's must be the key's; in a trie, the key must end at
// the leaf it reaches.
func (s *Static) Get(key []byte) (uint64, bool) {
	if c := s.col; c != nil {
		if len(key) != c.keyLen {
			return 0, false
		}
		x := keyInt(key)
		if i, k := c.keys.Search(x); i < c.keys.Len() && k == x {
			return c.values.get(i), true
		}
		return 0, false
	}
	return s.t.Get(key)
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
	// The seek stops at a leaf whose key is a proper prefix of start, and so
	// smaller than it.
	if it.SeekLowerBound(start) {
		it.Next()
	}
	count := 0
	for ; it.valid; it.Next() {
		count++
		if !fn(it.key, it.nextValue()) {
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
	ks, vs := c.keys.Iter(i), c.values.iter(i)
	count := 0
	for ; i < n; i++ {
		count++
		binary.BigEndian.PutUint64(buf[:], ks.Next())
		if !fn(key, vs.next()) {
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
		return m + bits.AllocSize(int(unsafe.Sizeof(*c))) + c.keys.MemoryUsage() + c.values.f.MemoryUsage()
	}
	if s.t.height == 0 {
		return m
	}
	t := &s.t
	m += t.dLabels.HeapSize() + t.dHasChild.HeapSize() + t.dIsPrefix.HeapSize()
	m += bits.SliceAlloc(t.sLabels) + t.sHasChild.HeapSize() + t.sLouds.HeapSize()
	m += t.valueBytes + bits.SliceAlloc(t.values)
	m += bits.SliceAlloc(t.dLevelValueStart) + bits.SliceAlloc(t.sLevelPosStart) + bits.SliceAlloc(t.sLevelValueStart)
	return m
}
