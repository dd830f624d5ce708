package btree

import (
	"bytes"
	"fmt"
	"unsafe"

	"mets/internal/bits"
	"mets/internal/index"
)

// Compact is the static B+tree obtained by applying the Compaction and
// Structural Reduction rules (§2.2–2.3): every node is 100% full, nodes of a
// level are stored contiguously, and child locations are computed from
// offsets instead of stored pointers. Its key set is a prefix B+tree leaf
// level (packed.go): each group of fanout keys stores its common prefix once,
// and separators are the groups' first keys, so no key bytes are duplicated.
// Its values go one step past the thesis' rules: they are a bits.FOR, whose
// form the values pick. Tuple IDs loaded in key order never decrease and take
// the Elias–Fano form, about 2 bits each. Other values are frame-of-reference
// coded with the leaf groups as blocks, so a group of neighbouring tuple IDs
// stores its minimum once and each value as a few-bit delta — or plain 64-bit
// slots, when the values are too spread for either to be smaller.
type Compact struct {
	keys   packedKeys
	values bits.FOR
}

// NewCompact builds a Compact B+tree from sorted unique entries. The packed
// arena is assembled in parallel across GOMAXPROCS workers (large inputs
// only); the result is identical to a serial build.
func NewCompact(entries []index.Entry) (*Compact, error) {
	return newCompact(entries, 0)
}

func newCompact(entries []index.Entry, workers int) (*Compact, error) {
	values := make([]uint64, len(entries))
	pk, err := packKeys(entries, values, workers)
	if err != nil {
		return nil, fmt.Errorf("btree: %w", err)
	}
	return &Compact{keys: pk, values: bits.NewFOR(values)}, nil
}

// Len returns the number of entries.
func (c *Compact) Len() int { return c.values.Len() }

// Get returns the value stored under key.
func (c *Compact) Get(key []byte) (uint64, bool) {
	i := c.keys.lowerBound(key)
	if i < c.values.Len() && c.keys.equal(i, key) {
		return c.values.Get(i), true
	}
	return 0, false
}

// Scan visits entries in order from the smallest key >= start. The key is
// lent for the duration of the callback only: the scan rebuilds every key in
// one buffer.
func (c *Compact) Scan(start []byte, fn func(key []byte, value uint64) bool) int {
	count := 0
	var values bits.FORIter
	c.keys.scan(start, func(i int, key []byte) bool {
		if count == 0 {
			values = c.values.Iter(i)
		}
		count++
		return fn(key, values.Next())
	})
	return count
}

// MemoryUsage returns the bytes the allocator handed out for the structure:
// the struct itself and every array it holds.
func (c *Compact) MemoryUsage() int64 {
	return bits.AllocSize(int(unsafe.Sizeof(*c))) + c.keys.memoryUsage() + c.values.MemoryUsage()
}

// CompactMulti is the secondary-index (non-unique) variant of Compact: each
// distinct key is stored once followed by its packed value list (§2.2).
type CompactMulti struct {
	keys     packedKeys
	valStart []uint32 // per key: offset into vals; len = numKeys+1
	vals     []uint64
}

// NewCompactMulti builds a CompactMulti from sorted entries that may repeat
// keys; equal keys must be adjacent.
func NewCompactMulti(entries []index.Entry) (*CompactMulti, error) {
	// One pass finds the distinct keys; until valStart is sized from their
	// count, each one's Value carries where its value list starts.
	distinct := make([]index.Entry, 0, len(entries))
	c := &CompactMulti{vals: make([]uint64, len(entries))}
	for i, e := range entries {
		if i == 0 || !bytes.Equal(entries[i-1].Key, e.Key) {
			distinct = append(distinct, index.Entry{Key: e.Key, Value: uint64(i)})
		}
		c.vals[i] = e.Value
	}
	c.valStart = make([]uint32, len(distinct)+1)
	for j, d := range distinct {
		c.valStart[j] = uint32(d.Value)
	}
	c.valStart[len(distinct)] = uint32(len(entries))
	var err error
	if c.keys, err = packKeys(distinct, nil, 0); err != nil {
		return nil, fmt.Errorf("btree: %w", err)
	}
	return c, nil
}

// Len returns the number of pairs.
func (c *CompactMulti) Len() int { return len(c.vals) }

// GetAll returns every value stored under key.
func (c *CompactMulti) GetAll(key []byte) []uint64 {
	i := c.keys.lowerBound(key)
	if i < c.keys.numKeys() && c.keys.equal(i, key) {
		return c.vals[c.valStart[i]:c.valStart[i+1]]
	}
	return nil
}

// Get returns the first value stored under key.
func (c *CompactMulti) Get(key []byte) (uint64, bool) {
	vs := c.GetAll(key)
	if len(vs) == 0 {
		return 0, false
	}
	return vs[0], true
}

// Scan visits each (key, value) pair in order from the smallest key >= start.
// The key is lent for the duration of the callback only.
func (c *CompactMulti) Scan(start []byte, fn func(key []byte, value uint64) bool) int {
	count := 0
	c.keys.scan(start, func(i int, key []byte) bool {
		for _, v := range c.vals[c.valStart[i]:c.valStart[i+1]] {
			count++
			if !fn(key, v) {
				return false
			}
		}
		return true
	})
	return count
}

// MemoryUsage returns the bytes the allocator handed out for the structure.
func (c *CompactMulti) MemoryUsage() int64 {
	return bits.AllocSize(int(unsafe.Sizeof(*c))) + c.keys.memoryUsage() + bits.SliceAlloc(c.valStart) + bits.SliceAlloc(c.vals)
}
