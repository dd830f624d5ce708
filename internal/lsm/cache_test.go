package lsm

import (
	"bytes"
	"maps"
	"math/rand"
	"testing"
)

// refBlockCache is the O(n) CLOCK cache blockCache replaced, kept as the
// oracle: each eviction recounts the live slots, and each insert scans from
// slot 0 for a free one. The policy (hand sweep, ref bits, evict until the
// block fits, lowest-numbered free slot) is what blockCache must repeat.
type refBlockCache struct {
	capacity int64
	used     int64
	hand     int
	slots    []refSlot
	where    map[cacheKey]int
}

type refSlot struct {
	key   cacheKey
	block []byte
	bytes int64
	ref   bool
	live  bool
}

func (c *refBlockCache) get(table uint64, block int) []byte {
	if i, ok := c.where[cacheKey{table, block}]; ok {
		c.slots[i].ref = true
		return c.slots[i].block
	}
	return nil
}

func (c *refBlockCache) put(table uint64, block int, raw []byte, bytes int64) {
	for c.used+bytes > c.capacity && c.evictOne() {
	}
	if c.used+bytes > c.capacity {
		return
	}
	k := cacheKey{table, block}
	slot := refSlot{key: k, block: raw, bytes: bytes, ref: true, live: true}
	for i := range c.slots {
		if !c.slots[i].live {
			c.slots[i] = slot
			c.where[k] = i
			c.used += bytes
			return
		}
	}
	c.where[k] = len(c.slots)
	c.slots = append(c.slots, slot)
	c.used += bytes
}

func (c *refBlockCache) evictOne() bool {
	live := 0
	for i := range c.slots {
		if c.slots[i].live {
			live++
		}
	}
	if live == 0 {
		return false
	}
	for {
		if c.hand >= len(c.slots) {
			c.hand = 0
		}
		s := &c.slots[c.hand]
		c.hand++
		if !s.live {
			continue
		}
		if s.ref {
			s.ref = false
			continue
		}
		delete(c.where, s.key)
		c.used -= s.bytes
		s.live = false
		s.block = nil
		return true
	}
}

// TestBlockCacheMatchesClockOracle drives blockCache and the O(n) reference
// with one seeded stream of get-then-put-on-miss calls over blocks of
// varying size (one as large as the whole cache), and requires the same
// hit/miss answer, the same residents in the same slots, and the same used
// bytes after every step.
func TestBlockCacheMatchesClockOracle(t *testing.T) {
	const capacity = 4096
	size := func(table uint64, block int) int64 {
		if table == 0 && block == 0 {
			return capacity
		}
		return 64 + int64(table*131+uint64(block)*977)%1400
	}
	for seed := int64(1); seed <= 4; seed++ {
		c := newBlockCache(capacity)
		ref := &refBlockCache{capacity: capacity, where: make(map[cacheKey]int)}
		rng := rand.New(rand.NewSource(seed))
		multiEvictions := 0
		for step := 0; step < 20000; step++ {
			table, block := uint64(rng.Intn(3)), rng.Intn(24)
			got, want := c.get(table, block), ref.get(table, block)
			if (got == nil) != (want == nil) || !bytes.Equal(got, want) {
				t.Fatalf("seed %d step %d: get(%d,%d) hit=%v, oracle hit=%v", seed, step, table, block, got != nil, want != nil)
			}
			if got == nil {
				raw := []byte{byte(table), byte(block)}
				before := len(ref.where)
				c.put(table, block, raw, size(table, block))
				ref.put(table, block, raw, size(table, block))
				if before+1-len(ref.where) >= 2 {
					multiEvictions++
				}
			}
			if !maps.Equal(c.where, ref.where) || c.used != ref.used {
				t.Fatalf("seed %d step %d: residents %v used %d, oracle %v used %d", seed, step, c.where, c.used, ref.where, ref.used)
			}
		}
		if multiEvictions == 0 {
			t.Fatalf("seed %d: no put evicted two or more blocks", seed)
		}
	}
}

// TestBlockCacheDuplicatePutCachesOnce: two readers that miss the same block
// at once both put it. One copy must be resident; a second slot for the same
// key would, once evicted, delete the map entry of the copy still resident.
func TestBlockCacheDuplicatePutCachesOnce(t *testing.T) {
	c := newBlockCache(1000)
	c.put(1, 0, []byte{1}, 100)
	c.put(1, 0, []byte{1}, 100)
	if len(c.slots) != 1 || len(c.where) != 1 || c.used != 100 {
		t.Fatalf("%d slots, %d residents, %d bytes used; want 1, 1, 100", len(c.slots), len(c.where), c.used)
	}
}

// TestBlockCacheOversizePutKeepsResidents: a block larger than the whole
// cache can never be cached, so putting one must not evict anything.
func TestBlockCacheOversizePutKeepsResidents(t *testing.T) {
	c := newBlockCache(1000)
	for b := 0; b < 4; b++ {
		c.put(1, b, []byte{byte(b)}, 200)
	}
	residents, used := maps.Clone(c.where), c.used
	c.put(2, 0, []byte{9}, 1001)
	if c.get(2, 0) != nil {
		t.Fatal("oversize block was cached")
	}
	if !maps.Equal(c.where, residents) || c.used != used {
		t.Fatalf("oversize put changed the cache: residents %v used %d, want %v used %d", c.where, c.used, residents, used)
	}
}
