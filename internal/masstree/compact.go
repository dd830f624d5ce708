package masstree

import (
	"bytes"
	"fmt"

	"mets/internal/index"
	"mets/internal/keys"
)

// Compact is the static Masstree of Fig 2.4: each trie layer's B+tree is
// flattened into a sorted array of 9-byte layer keys with a parallel tag and
// reference array; key suffixes reference the packed key arena directly so
// nothing is duplicated. Lookups binary-search one array per layer; scans
// walk the globally sorted entry arena.
type Compact struct {
	keyData []byte
	keyOffs []uint32
	values  []uint64
	layers  []cLayer
}

type ctag uint8

const (
	tagValue ctag = iota
	tagSuffix
	tagLayer
)

type cLayer struct {
	lk    []byte // 9 bytes per entry, sorted
	tags  []ctag
	refs  []uint32 // entry index (tagValue/tagSuffix) or layer index (tagLayer)
	depth uint16   // byte offset of this layer's slice within full keys
}

// NewCompact builds a Compact Masstree from sorted unique entries.
func NewCompact(entries []index.Entry) (*Compact, error) {
	c := &Compact{keyOffs: make([]uint32, 1, len(entries)+1)}
	for i, e := range entries {
		if i > 0 && keys.Compare(entries[i-1].Key, e.Key) >= 0 {
			return nil, fmt.Errorf("masstree: entries must be sorted and unique (index %d)", i)
		}
		c.keyData = append(c.keyData, e.Key...)
		c.keyOffs = append(c.keyOffs, uint32(len(c.keyData)))
		c.values = append(c.values, e.Value)
	}
	if len(entries) > 0 {
		c.buildLayer(0, len(entries), 0)
	}
	return c, nil
}

func (c *Compact) key(i int) []byte { return c.keyData[c.keyOffs[i]:c.keyOffs[i+1]] }

// buildLayer constructs the layer over entries [lo, hi) whose keys share the
// first depth bytes, returning its index.
func (c *Compact) buildLayer(lo, hi, depth int) uint32 {
	idx := uint32(len(c.layers))
	c.layers = append(c.layers, cLayer{depth: uint16(depth)})
	var lks []byte
	var tags []ctag
	var refs []uint32
	var lk [layerKeyLen]byte
	for i := lo; i < hi; {
		terminal := layerKey(lk[:], c.key(i)[depth:])
		if terminal {
			lks = append(lks, lk[:]...)
			tags = append(tags, tagValue)
			refs = append(refs, uint32(i))
			i++
			continue
		}
		// Group the entries sharing this slice.
		j := i + 1
		for j < hi {
			k := c.key(j)
			if len(k) <= depth+sliceLen || !bytes.Equal(k[depth:depth+sliceLen], c.key(i)[depth:depth+sliceLen]) {
				break
			}
			j++
		}
		lks = append(lks, lk[:]...)
		if j-i == 1 {
			tags = append(tags, tagSuffix)
			refs = append(refs, uint32(i))
		} else {
			tags = append(tags, tagLayer)
			refs = append(refs, c.buildLayer(i, j, depth+sliceLen))
		}
		i = j
	}
	c.layers[idx].lk = lks
	c.layers[idx].tags = tags
	c.layers[idx].refs = refs
	return idx
}

// Len returns the number of entries.
func (c *Compact) Len() int { return len(c.values) }

// Get returns the value stored under key.
func (c *Compact) Get(key []byte) (uint64, bool) {
	if len(c.values) == 0 {
		return 0, false
	}
	l := &c.layers[0]
	var lk [layerKeyLen]byte
	for {
		depth := int(l.depth)
		terminal := layerKey(lk[:], key[depth:])
		n := len(l.tags)
		lo, hi := 0, n
		for lo < hi {
			mid := (lo + hi) / 2
			if bytes.Compare(l.lk[mid*layerKeyLen:(mid+1)*layerKeyLen], lk[:]) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == n || !bytes.Equal(l.lk[lo*layerKeyLen:(lo+1)*layerKeyLen], lk[:]) {
			return 0, false
		}
		switch l.tags[lo] {
		case tagValue:
			return c.values[l.refs[lo]], true
		case tagSuffix:
			e := l.refs[lo]
			if bytes.Equal(c.key(int(e))[depth+sliceLen:], key[depth+sliceLen:]) {
				return c.values[e], true
			}
			return 0, false
		default:
			if terminal {
				return 0, false
			}
			l = &c.layers[l.refs[lo]]
		}
	}
}

// Scan visits entries in order from the smallest key >= start using the
// packed sorted arena.
func (c *Compact) Scan(start []byte, fn func(key []byte, value uint64) bool) int {
	lo, hi := 0, len(c.values)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys.Compare(c.key(mid), start) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	count := 0
	for i := lo; i < len(c.values); i++ {
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
	for i := range c.layers {
		l := &c.layers[i]
		m += int64(len(l.lk)) + int64(len(l.tags)) + int64(len(l.refs))*4 + 16
	}
	return m + 64
}
