package btree

import (
	"bytes"
	"fmt"
	"sort"

	"mets/internal/index"
	"mets/internal/keys"
)

// Compact is the static B+tree obtained by applying the Compaction and
// Structural Reduction rules (§2.2–2.3): every node is 100% full, nodes of a
// level are stored contiguously, and child locations are computed from
// offsets instead of stored pointers. Separator "keys" are 4-byte indexes
// into the packed leaf array, so no key bytes are duplicated.
type Compact struct {
	keyData []byte
	keyOffs []uint32 // len(n)+1
	values  []uint64
	// pfx[i] is prefix8(key(i)): the SWAR search mirror shared by the leaf
	// ranges and (via index gather) the separator levels.
	pfx []uint64
	// seps[l][i] is the leaf index of the minimum key in child i of level l;
	// seps[0] routes into the leaf array, higher levels into lower ones.
	// Levels are ordered bottom-up; the last one has at most fanout entries.
	seps [][]uint32
	// seppfx[l][i] is pfx[seps[l][i]], packed contiguously: gathering the
	// prefixes through the separator indexes at probe time would touch one
	// cache line per separator (leaf minimums sit fanout apart), which costs
	// more than the binary search the SWAR count replaces. Packed, a node
	// probe reads four lines.
	seppfx [][]uint64
}

// NewCompact builds a Compact B+tree from sorted unique entries. The packed
// arena is assembled in parallel across GOMAXPROCS workers (large inputs
// only); the result is identical to a serial build.
func NewCompact(entries []index.Entry) (*Compact, error) {
	keyData, keyOffs, values, err := index.PackEntries(entries, 0)
	if err != nil {
		return nil, fmt.Errorf("btree: %w", err)
	}
	c := &Compact{keyData: keyData, keyOffs: keyOffs, values: values}
	c.pfx = make([]uint64, len(entries))
	for i := range entries {
		c.pfx[i] = prefix8(c.key(i))
	}
	// Build separator levels bottom-up: one entry per group of fanout.
	cur := make([]uint32, 0, (len(entries)+fanout-1)/fanout)
	for i := 0; i < len(entries); i += fanout {
		cur = append(cur, uint32(i))
	}
	for len(cur) > 1 {
		c.seps = append(c.seps, cur)
		next := make([]uint32, 0, (len(cur)+fanout-1)/fanout)
		for i := 0; i < len(cur); i += fanout {
			next = append(next, cur[i])
		}
		if len(next) <= fanout {
			c.seps = append(c.seps, next)
			break
		}
		cur = next
	}
	c.packSepPfx()
	return c, nil
}

func (c *Compact) packSepPfx() {
	c.seppfx = make([][]uint64, len(c.seps))
	for l, level := range c.seps {
		p := make([]uint64, len(level))
		for i, j := range level {
			p[i] = c.pfx[j]
		}
		c.seppfx[l] = p
	}
}

// key returns the i-th leaf key without copying.
func (c *Compact) key(i int) []byte {
	return c.keyData[c.keyOffs[i]:c.keyOffs[i+1]]
}

// Len returns the number of entries.
func (c *Compact) Len() int { return len(c.values) }

// lowerBoundIdx returns the index of the first stored key >= key, routing
// through the separator levels like a B+tree descent. Each node probe is a
// branchless SWAR count over the packed key prefixes (swar.go) followed by
// full comparisons across the equal-prefix run only.
func (c *Compact) lowerBoundIdx(key []byte) int {
	if len(c.values) == 0 {
		return 0
	}
	qp := prefix8(key)
	if len(c.seps) == 0 {
		return c.searchLeafRange(0, len(c.values), key, qp)
	}
	node := 0
	for l := len(c.seps) - 1; l >= 0; l-- {
		level := c.seps[l]
		lo := node * fanout
		hi := lo + fanout
		if hi > len(level) {
			hi = len(level)
		}
		// Child = last separator with minKey <= key. The equal-prefix run is
		// binary-searched: shared-prefix datasets tie across the whole node.
		lp := c.seppfx[l]
		i := lo + countLess(lp[lo:hi], qp)
		if i < hi && lp[i] == qp {
			base := i
			i += sort.Search(hi-base, func(d int) bool {
				j := base + d
				return lp[j] != qp || keys.Compare(c.key(int(level[j])), key) > 0
			})
		}
		node = i - 1
		if node < lo {
			node = lo
		}
	}
	start := node * fanout
	end := start + fanout
	if end > len(c.values) {
		end = len(c.values)
	}
	return c.searchLeafRange(start, end, key, qp)
}

func (c *Compact) searchLeafRange(lo, hi int, key []byte, qp uint64) int {
	i := lo + countLess(c.pfx[lo:hi], qp)
	if i < hi && c.pfx[i] == qp {
		base := i
		i += sort.Search(hi-base, func(d int) bool {
			j := base + d
			return c.pfx[j] != qp || keys.Compare(c.key(j), key) >= 0
		})
	}
	return i
}

// Get returns the value stored under key.
func (c *Compact) Get(key []byte) (uint64, bool) {
	i := c.lowerBoundIdx(key)
	if i < len(c.values) && bytes.Equal(c.key(i), key) {
		return c.values[i], true
	}
	return 0, false
}

// Scan visits entries in order from the smallest key >= start.
func (c *Compact) Scan(start []byte, fn func(key []byte, value uint64) bool) int {
	count := 0
	for i := c.lowerBoundIdx(start); i < len(c.values); i++ {
		count++
		if !fn(c.key(i), c.values[i]) {
			break
		}
	}
	return count
}

// At returns the i-th entry (key is not copied).
func (c *Compact) At(i int) ([]byte, uint64) { return c.key(i), c.values[i] }

// MemoryUsage returns the packed structure size in bytes.
func (c *Compact) MemoryUsage() int64 {
	m := int64(len(c.keyData)) + int64(len(c.keyOffs))*4 + int64(len(c.values))*8 +
		int64(len(c.pfx))*8
	for _, l := range c.seps {
		m += int64(len(l)) * (4 + 8) // index + packed prefix
	}
	return m + 64
}

// CompactMulti is the secondary-index (non-unique) variant of Compact: each
// distinct key is stored once followed by its packed value list (§2.2).
type CompactMulti struct {
	keyData  []byte
	keyOffs  []uint32
	valStart []uint32 // per key: offset into vals; len = numKeys+1
	vals     []uint64
	pfx      []uint64 // prefix8 of each distinct key (SWAR search mirror)
	seps     [][]uint32
	seppfx   [][]uint64 // per-level packed prefixes (see Compact.seppfx)
}

// NewCompactMulti builds a CompactMulti from sorted entries that may repeat
// keys; equal keys must be adjacent.
func NewCompactMulti(entries []index.Entry) (*CompactMulti, error) {
	c := &CompactMulti{keyOffs: make([]uint32, 1)}
	for i := 0; i < len(entries); {
		j := i
		for j < len(entries) && bytes.Equal(entries[j].Key, entries[i].Key) {
			j++
		}
		if i > 0 && keys.Compare(entries[i-1].Key, entries[i].Key) > 0 {
			return nil, fmt.Errorf("btree: entries must be sorted (index %d)", i)
		}
		c.keyData = append(c.keyData, entries[i].Key...)
		c.keyOffs = append(c.keyOffs, uint32(len(c.keyData)))
		c.pfx = append(c.pfx, prefix8(entries[i].Key))
		c.valStart = append(c.valStart, uint32(len(c.vals)))
		for ; i < j; i++ {
			c.vals = append(c.vals, entries[i].Value)
		}
	}
	c.valStart = append(c.valStart, uint32(len(c.vals)))
	n := len(c.keyOffs) - 1
	cur := make([]uint32, 0, (n+fanout-1)/fanout)
	for i := 0; i < n; i += fanout {
		cur = append(cur, uint32(i))
	}
	for len(cur) > 1 {
		c.seps = append(c.seps, cur)
		next := make([]uint32, 0, (len(cur)+fanout-1)/fanout)
		for i := 0; i < len(cur); i += fanout {
			next = append(next, cur[i])
		}
		if len(next) <= fanout {
			c.seps = append(c.seps, next)
			break
		}
		cur = next
	}
	c.seppfx = make([][]uint64, len(c.seps))
	for l, level := range c.seps {
		p := make([]uint64, len(level))
		for i, j := range level {
			p[i] = c.pfx[j]
		}
		c.seppfx[l] = p
	}
	return c, nil
}

func (c *CompactMulti) key(i int) []byte { return c.keyData[c.keyOffs[i]:c.keyOffs[i+1]] }

// NumKeys returns the number of distinct keys; Len the number of pairs.
func (c *CompactMulti) NumKeys() int { return len(c.keyOffs) - 1 }
func (c *CompactMulti) Len() int     { return len(c.vals) }

func (c *CompactMulti) lowerBoundIdx(key []byte) int {
	n := c.NumKeys()
	lo, hi := 0, n
	qp := prefix8(key)
	if len(c.seps) > 0 {
		node := 0
		for l := len(c.seps) - 1; l >= 0; l-- {
			level := c.seps[l]
			a := node * fanout
			b := a + fanout
			if b > len(level) {
				b = len(level)
			}
			// Child = last separator with minKey <= key (SWAR probe; ties
			// binary-searched like Compact.lowerBoundIdx).
			lp := c.seppfx[l]
			i := a + countLess(lp[a:b], qp)
			if i < b && lp[i] == qp {
				base := i
				i += sort.Search(b-base, func(d int) bool {
					j := base + d
					return lp[j] != qp || keys.Compare(c.key(int(level[j])), key) > 0
				})
			}
			node = i - 1
			if node < a {
				node = a
			}
		}
		lo = node * fanout
		hi = lo + fanout
		if hi > n {
			hi = n
		}
	}
	i := lo + countLess(c.pfx[lo:hi], qp)
	if i < hi && c.pfx[i] == qp {
		base := i
		i += sort.Search(hi-base, func(d int) bool {
			j := base + d
			return c.pfx[j] != qp || keys.Compare(c.key(j), key) >= 0
		})
	}
	return i
}

// GetAll returns every value stored under key.
func (c *CompactMulti) GetAll(key []byte) []uint64 {
	i := c.lowerBoundIdx(key)
	if i < c.NumKeys() && bytes.Equal(c.key(i), key) {
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
func (c *CompactMulti) Scan(start []byte, fn func(key []byte, value uint64) bool) int {
	count := 0
	for i := c.lowerBoundIdx(start); i < c.NumKeys(); i++ {
		for _, v := range c.vals[c.valStart[i]:c.valStart[i+1]] {
			count++
			if !fn(c.key(i), v) {
				return count
			}
		}
	}
	return count
}

// MemoryUsage returns the packed structure size in bytes.
func (c *CompactMulti) MemoryUsage() int64 {
	m := int64(len(c.keyData)) + int64(len(c.keyOffs))*4 +
		int64(len(c.valStart))*4 + int64(len(c.vals))*8 + int64(len(c.pfx))*8
	for _, l := range c.seps {
		m += int64(len(l)) * (4 + 8) // index + packed prefix
	}
	return m + 64
}
