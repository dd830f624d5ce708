package fst

import (
	"unsafe"

	"mets/internal/bits"
	"mets/internal/index"
)

// Static is the trie as a hybrid index's static stage (index.Static): a
// complete trie whose values are frame-of-reference coded per region in slot
// order. A level's leaves are in key order, so tuple IDs loaded in key order
// stay neighbours within a frame.
type Static struct {
	t Trie
	n int
}

// staticConfig is the stage's tuning: the thesis' rank blocks and select
// samples, with the dense/sparse cutoff ratio R lowered from 64 to 8, which
// makes one more level dense on the sharded engine's shards: one select
// fewer per lookup at about the same size.
var staticConfig = Config{StoreValues: true, DenseLevels: -1, DenseRatio: 8}

// NewStatic builds the stage from sorted unique entries.
func NewStatic(entries []index.Entry) (*Static, error) {
	s := &Static{n: len(entries)}
	if s.n == 0 {
		return s, nil
	}
	if err := (&builder{n: len(entries), es: entries}).build(&s.t, staticConfig); err != nil {
		return nil, err
	}
	return s, nil
}

// Len returns the number of entries.
func (s *Static) Len() int { return s.n }

// Get returns the value stored under key.
func (s *Static) Get(key []byte) (uint64, bool) {
	if s.n == 0 {
		return 0, false
	}
	return s.t.Get(key)
}

// Scan visits entries in order from the smallest key >= start. The key is
// lent for the duration of the callback only: the walk keeps it in one
// buffer, truncating and appending as it moves.
func (s *Static) Scan(start []byte, fn func(key []byte, value uint64) bool) int {
	if s.n == 0 {
		return 0
	}
	it := s.t.PooledIterator()
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

// MemoryUsage returns the bytes the allocator handed out for the stage: the
// struct itself and every array it holds.
func (s *Static) MemoryUsage() int64 {
	m := bits.AllocSize(int(unsafe.Sizeof(*s)))
	if s.n == 0 {
		return m
	}
	t := &s.t
	m += t.dLabels.HeapSize() + t.dHasChild.HeapSize() + t.dIsPrefix.HeapSize()
	m += bits.SliceAlloc(t.sLabels) + t.sHasChild.HeapSize() + t.sLouds.HeapSize()
	m += t.dValues.MemoryUsage() + t.sValues.MemoryUsage()
	return m + bits.SliceAlloc(t.dLevelValueStart) + bits.SliceAlloc(t.sLevelPosStart) + bits.SliceAlloc(t.sLevelValueStart)
}
