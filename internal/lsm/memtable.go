package lsm

import (
	"math/bits"
	"sync"

	"mets/internal/btree"
	"mets/internal/keys"
)

// memTable is the mutable write buffer: an ordered index over an append-only
// value arena.
type memTable struct {
	idx   *btree.Tree
	vals  [][]byte
	bytes int64
}

func newMemTable() *memTable {
	return &memTable{idx: btree.New()}
}

// put stores a live user value (tagged 0x01); putRaw stores a
// pre-encoded record such as a tombstone.
func (m *memTable) put(key, value []byte) {
	tagged := make([]byte, 0, len(value)+1)
	tagged = append(tagged, 1)
	tagged = append(tagged, value...)
	m.putRaw(key, tagged)
}

func (m *memTable) putRaw(key, raw []byte) {
	v := append([]byte(nil), raw...)
	if m.idx.Update(key, uint64(len(m.vals))) {
		m.vals = append(m.vals, v)
		m.bytes += int64(len(raw))
		return
	}
	m.idx.Insert(key, uint64(len(m.vals)))
	m.vals = append(m.vals, v)
	m.bytes += int64(len(key) + len(raw))
}

func (m *memTable) get(key []byte) ([]byte, bool) {
	i, ok := m.idx.Get(key)
	if !ok {
		return nil, false
	}
	return m.vals[i], true
}

// seek returns the smallest record with key >= lo.
func (m *memTable) seek(lo []byte) ([]byte, []byte, bool) {
	var k, v []byte
	m.idx.Scan(lo, func(key []byte, vi uint64) bool {
		k = append([]byte(nil), key...)
		v = m.vals[vi]
		return false
	})
	return k, v, k != nil
}

// count returns the number of records in [lo, hi]; nil hi means +infinity.
func (m *memTable) count(lo, hi []byte) int {
	n := 0
	m.idx.Scan(lo, func(key []byte, _ uint64) bool {
		if hi != nil && keys.Compare(key, hi) > 0 {
			return false
		}
		n++
		return true
	})
	return n
}

// sorted snapshots the memtable.
func (m *memTable) sorted() []Entry {
	out := make([]Entry, 0, m.idx.Len())
	m.idx.Scan(nil, func(key []byte, vi uint64) bool {
		k := append([]byte(nil), key...)
		out = append(out, Entry{Key: k, Value: m.vals[vi]})
		return true
	})
	return out
}

// blockCache is a CLOCK cache of serialized blocks keyed by (table, block),
// capped by total serialized bytes. It has its own mutex (lookups set ref
// bits, so even the read path mutates) and is safe for concurrent use by
// readers holding only the DB's shared read lock. Cached blocks are immutable
// once published. The dead bitmap finds the lowest-numbered free slot and
// len(where) is the live count, so a miss no longer walks every slot.
type blockCache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	hand     int
	slots    []cacheSlot
	dead     []uint64 // bit i set: slots[i] is dead
	where    map[cacheKey]int
}

type cacheKey struct {
	table uint64
	block int
}

type cacheSlot struct {
	key   cacheKey
	block []byte // nil: dead
	bytes int64
	ref   bool
}

func newBlockCache(capacity int64) *blockCache {
	return &blockCache{capacity: capacity, where: make(map[cacheKey]int)}
}

func (c *blockCache) get(table uint64, block int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.where[cacheKey{table, block}]; ok {
		c.slots[i].ref = true
		return c.slots[i].block
	}
	return nil
}

func (c *blockCache) put(table uint64, block int, raw []byte, bytes int64) {
	if bytes > c.capacity {
		return // larger than the whole cache: evicting for it would only empty it
	}
	k := cacheKey{table, block}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.where[k]; ok {
		return // a concurrent reader cached it first
	}
	for c.used+bytes > c.capacity && c.evictOne() {
	}
	i := len(c.slots) // the lowest-numbered dead slot, else a new one
	for w, word := range c.dead {
		if word != 0 {
			i = w*64 + bits.TrailingZeros64(word)
			break
		}
	}
	if i == len(c.slots) {
		c.slots = append(c.slots, cacheSlot{})
		if i%64 == 0 {
			c.dead = append(c.dead, 0)
		}
	}
	c.dead[i/64] &^= 1 << (i % 64)
	c.slots[i] = cacheSlot{key: k, block: raw, bytes: bytes, ref: true}
	c.where[k] = i
	c.used += bytes
}

func (c *blockCache) evictOne() bool {
	if len(c.where) == 0 {
		return false
	}
	for {
		if c.hand >= len(c.slots) {
			c.hand = 0
		}
		i := c.hand
		s := &c.slots[i]
		c.hand++
		if s.block == nil {
			continue
		}
		if s.ref {
			s.ref = false
			continue
		}
		delete(c.where, s.key)
		c.used -= s.bytes
		s.block = nil
		c.dead[i/64] |= 1 << (i % 64)
		return true
	}
}
