// Package skiplist implements an ordered skip list and its compact static
// form from Chapter 2. The dynamic variant is a classic tower-based skip
// list with a deterministic seed (standing in for the paged-deterministic
// variant the thesis used, which resembles a B+tree; both have the same
// asymptotics and the identical compact form: contiguous sorted arrays with
// sampled express lanes).
package skiplist

import (
	"bytes"
	"fmt"
	"math/rand"

	"mets/internal/index"
	"mets/internal/keys"
)

const maxLevel = 24

type node struct {
	key     []byte
	value   uint64
	forward []*node
}

// List is a dynamic skip list mapping byte keys to uint64 values.
type List struct {
	head     *node
	rng      *rand.Rand
	length   int
	keyBytes int64
	towers   int64 // total forward-pointer slots
}

// New returns an empty skip list with a fixed seed for reproducibility.
func New() *List {
	return &List{
		head: &node{forward: make([]*node, maxLevel)},
		rng:  rand.New(rand.NewSource(0x5eed)),
	}
}

// Len returns the number of stored entries.
func (l *List) Len() int { return l.length }

func (l *List) randomLevel() int {
	lvl := 1
	for lvl < maxLevel && l.rng.Intn(2) == 0 {
		lvl++
	}
	return lvl
}

// findPredecessors fills update with the last node before key at each level.
func (l *List) findPredecessors(key []byte, update *[maxLevel]*node) *node {
	x := l.head
	for i := maxLevel - 1; i >= 0; i-- {
		for x.forward[i] != nil && keys.Compare(x.forward[i].key, key) < 0 {
			x = x.forward[i]
		}
		update[i] = x
	}
	return x.forward[0]
}

// Get returns the value stored under key.
func (l *List) Get(key []byte) (uint64, bool) {
	x := l.head
	for i := maxLevel - 1; i >= 0; i-- {
		for x.forward[i] != nil && keys.Compare(x.forward[i].key, key) < 0 {
			x = x.forward[i]
		}
	}
	n := x.forward[0]
	if n != nil && bytes.Equal(n.key, key) {
		return n.value, true
	}
	return 0, false
}

// Insert adds key/value, returning false when the key already exists.
func (l *List) Insert(key []byte, value uint64) bool {
	var update [maxLevel]*node
	n := l.findPredecessors(key, &update)
	if n != nil && bytes.Equal(n.key, key) {
		return false
	}
	lvl := l.randomLevel()
	nn := &node{key: append([]byte(nil), key...), value: value, forward: make([]*node, lvl)}
	for i := 0; i < lvl; i++ {
		nn.forward[i] = update[i].forward[i]
		update[i].forward[i] = nn
	}
	l.length++
	l.keyBytes += int64(len(key))
	l.towers += int64(lvl)
	return true
}

// Update overwrites the value of an existing key.
func (l *List) Update(key []byte, value uint64) bool {
	var update [maxLevel]*node
	n := l.findPredecessors(key, &update)
	if n != nil && bytes.Equal(n.key, key) {
		n.value = value
		return true
	}
	return false
}

// Delete removes key.
func (l *List) Delete(key []byte) bool {
	var update [maxLevel]*node
	n := l.findPredecessors(key, &update)
	if n == nil || !bytes.Equal(n.key, key) {
		return false
	}
	for i := 0; i < len(n.forward); i++ {
		if update[i].forward[i] == n {
			update[i].forward[i] = n.forward[i]
		}
	}
	l.length--
	l.keyBytes -= int64(len(key))
	l.towers -= int64(len(n.forward))
	return true
}

// Scan visits entries in order from the smallest key >= start.
func (l *List) Scan(start []byte, fn func(key []byte, value uint64) bool) int {
	var update [maxLevel]*node
	n := l.findPredecessors(start, &update)
	count := 0
	for ; n != nil; n = n.forward[0] {
		count++
		if !fn(n.key, n.value) {
			break
		}
	}
	return count
}

// MemoryUsage counts node headers (32 B), key headers (16 B), key bytes,
// values, and every forward-pointer slot.
func (l *List) MemoryUsage() int64 {
	return int64(l.length)*(32+16+8) + l.keyBytes + l.towers*8
}

// Compact is the static skip list of Chapter 2: the entries collapse into
// one packed sorted array (the level-0 chain with pointers removed), with
// sampled express-lane arrays above for the skip-search, all contiguous.
type Compact struct {
	keyData []byte
	keyOffs []uint32
	values  []uint64
	// lanes[l] holds entry indexes sampled every laneStride^(l+1) entries.
	lanes [][]uint32
}

// laneStride is the express-lane sampling factor.
const laneStride = 16

// NewCompact builds a Compact skip list from sorted unique entries.
func NewCompact(entries []index.Entry) (*Compact, error) {
	c := &Compact{keyOffs: make([]uint32, 1, len(entries)+1)}
	for i, e := range entries {
		if i > 0 && keys.Compare(entries[i-1].Key, e.Key) >= 0 {
			return nil, fmt.Errorf("skiplist: entries must be sorted and unique (index %d)", i)
		}
		c.keyData = append(c.keyData, e.Key...)
		c.keyOffs = append(c.keyOffs, uint32(len(c.keyData)))
		c.values = append(c.values, e.Value)
	}
	stride := laneStride
	for n := len(entries) / stride; n > 1; n /= laneStride {
		lane := make([]uint32, 0, n)
		for i := 0; i < len(entries); i += stride {
			lane = append(lane, uint32(i))
		}
		c.lanes = append(c.lanes, lane)
		stride *= laneStride
	}
	return c, nil
}

func (c *Compact) key(i int) []byte { return c.keyData[c.keyOffs[i]:c.keyOffs[i+1]] }

// Len returns the number of entries.
func (c *Compact) Len() int { return len(c.values) }

// lowerBoundIdx descends the express lanes, then scans the base array
// window, mirroring a skip-list search over contiguous storage.
func (c *Compact) lowerBoundIdx(key []byte) int {
	lo, hi := 0, len(c.values)
	for l := len(c.lanes) - 1; l >= 0; l-- {
		lane := c.lanes[l]
		// Narrow [lo, hi) using the lane's samples within the window.
		a := 0
		b := len(lane)
		for a < b {
			mid := (a + b) / 2
			if keys.Compare(c.key(int(lane[mid])), key) < 0 {
				a = mid + 1
			} else {
				b = mid
			}
		}
		if a > 0 {
			lo = int(lane[a-1])
		}
		if a < len(lane) {
			hi = int(lane[a]) + 1
		}
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if keys.Compare(c.key(mid), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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

// MemoryUsage returns the packed structure size in bytes.
func (c *Compact) MemoryUsage() int64 {
	m := int64(len(c.keyData)) + int64(len(c.keyOffs))*4 + int64(len(c.values))*8
	for _, l := range c.lanes {
		m += int64(len(l)) * 4
	}
	return m + 64
}
