package art

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"mets/internal/index"
	"mets/internal/keys"
	"mets/internal/par"
)

// layout1Max is the largest fanout for which the exact-size Layout 1 (key
// array + child array) is smaller than the 256-pointer Layout 3 (§2.2).
const layout1Max = 227

// Compact is the static ART produced by the Dynamic-to-Static rules: nodes
// are sized exactly to their content (Layout 1 up to 227 children, Layout 3
// above), keys live in one packed arena, and child references are 4-byte
// indexes instead of pointers.
type Compact struct {
	// Packed entries, sorted.
	keyData []byte
	keyOffs []uint32
	values  []uint64
	// Nodes. children values: >= 0 is a node index; < 0 encodes entry index
	// ^e for a leaf.
	nodes []cnode
}

type cnode struct {
	prefixOff  uint32 // into keyData
	prefixLen  uint16
	prefixLeaf int32 // entry index or -1
	labels     []byte
	children   []int32
	layout3    []int32 // 256 slots; nil when Layout 1 is used (entry 0 = none is encoded as math.MinInt32)
}

const noChild = int32(-1 << 31)

// parallelBuildMin is the entry count below which the subtree fan-out is not
// worth its arena-stitching overhead and NewCompact builds serially.
const parallelBuildMin = 1 << 14

// NewCompact builds a Compact ART from sorted unique entries. Large inputs
// are packed and trie-built in parallel across GOMAXPROCS workers; node
// numbering is byte-identical to a serial build for any worker count.
func NewCompact(entries []index.Entry) (*Compact, error) {
	keyData, keyOffs, values, err := index.PackEntries(entries, 0)
	if err != nil {
		return nil, fmt.Errorf("art: %w", err)
	}
	c := &Compact{keyData: keyData, keyOffs: keyOffs, values: values}
	n := len(entries)
	if n == 0 {
		return c, nil
	}
	if w := par.Workers(0); w > 1 && n >= parallelBuildMin {
		c.buildParallel(w)
	} else {
		c.buildInto(&c.nodes, 0, n, 0)
	}
	return c, nil
}

func (c *Compact) key(i int) []byte { return c.keyData[c.keyOffs[i]:c.keyOffs[i+1]] }

// splitGroups partitions entries [i, hi) by their byte at depth; every entry
// must be at least depth+1 bytes long.
type group struct {
	b      byte
	lo, hi int
}

func (c *Compact) splitGroups(i, hi, depth int) []group {
	var groups []group
	for i < hi {
		b := c.key(i)[depth]
		j := i + 1
		for j < hi && c.key(j)[depth] == b {
			j++
		}
		groups = append(groups, group{b, i, j})
		i = j
	}
	return groups
}

// compressPath extends depth while all keys in [lo, hi) share the next byte
// and none ends, returning the new depth.
func (c *Compact) compressPath(lo, hi, depth int) int {
	for {
		first := c.key(lo)
		if len(first) == depth || len(c.key(hi-1)) == depth {
			break
		}
		if c.key(hi - 1)[depth] != first[depth] {
			break
		}
		// Sorted input: equal first and last byte at depth implies all equal.
		depth++
	}
	return depth
}

// buildInto constructs the subtree over entries [lo, hi) that share the first
// depth key bytes, appending nodes to *nodes and returning the child
// reference (node index within that arena, or leaf code).
func (c *Compact) buildInto(nodes *[]cnode, lo, hi, depth int) int32 {
	if hi-lo == 1 {
		return ^int32(lo) // lazy expansion: a single key is a leaf
	}
	start := depth
	depth = c.compressPath(lo, hi, depth)
	nodeIdx := int32(len(*nodes))
	*nodes = append(*nodes, cnode{
		prefixOff:  c.keyOffs[lo] + uint32(start),
		prefixLen:  uint16(depth - start),
		prefixLeaf: -1,
	})
	i := lo
	if len(c.key(i)) == depth {
		(*nodes)[nodeIdx].prefixLeaf = int32(i)
		i++
	}
	groups := c.splitGroups(i, hi, depth)
	if len(groups) <= layout1Max {
		labels := make([]byte, len(groups))
		children := make([]int32, len(groups))
		for g, grp := range groups {
			labels[g] = grp.b
			children[g] = c.buildInto(nodes, grp.lo, grp.hi, depth+1)
		}
		(*nodes)[nodeIdx].labels = labels
		(*nodes)[nodeIdx].children = children
	} else {
		slots := make([]int32, 256)
		for s := range slots {
			slots[s] = noChild
		}
		for _, grp := range groups {
			slots[grp.b] = c.buildInto(nodes, grp.lo, grp.hi, depth+1)
		}
		(*nodes)[nodeIdx].layout3 = slots
	}
	return nodeIdx
}

// buildParallel performs the root step of buildInto inline, then builds each
// root child subtree into its own arena on a pool of workers. Arenas are
// concatenated in group order after rebasing internal node references, which
// reproduces the serial DFS numbering exactly (leaf codes and prefixLeaf are
// global entry indexes and need no fixup).
func (c *Compact) buildParallel(workers int) {
	n := len(c.values)
	depth := c.compressPath(0, n, 0)
	root := cnode{prefixOff: c.keyOffs[0], prefixLen: uint16(depth), prefixLeaf: -1}
	i := 0
	if len(c.key(0)) == depth {
		root.prefixLeaf = 0
		i = 1
	}
	groups := c.splitGroups(i, n, depth)

	arenas := make([][]cnode, len(groups))
	refs := make([]int32, len(groups))
	if workers > len(groups) {
		workers = len(groups)
	}
	var cursor atomic.Int64
	cursor.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				g := int(cursor.Add(1))
				if g >= len(groups) {
					return
				}
				refs[g] = c.buildInto(&arenas[g], groups[g].lo, groups[g].hi, depth+1)
			}
		}()
	}
	wg.Wait()

	total := 1
	bases := make([]int32, len(groups))
	for g := range arenas {
		bases[g] = int32(total)
		total += len(arenas[g])
	}
	if len(groups) <= layout1Max {
		root.labels = make([]byte, len(groups))
		root.children = make([]int32, len(groups))
		for g, grp := range groups {
			root.labels[g] = grp.b
			root.children[g] = rebase(refs[g], bases[g])
		}
	} else {
		root.layout3 = make([]int32, 256)
		for s := range root.layout3 {
			root.layout3[s] = noChild
		}
		for g, grp := range groups {
			root.layout3[grp.b] = rebase(refs[g], bases[g])
		}
	}
	nodes := make([]cnode, 1, total)
	nodes[0] = root
	for g, arena := range arenas {
		base := bases[g]
		for j := range arena {
			nd := &arena[j]
			for k, ch := range nd.children {
				nd.children[k] = rebase(ch, base)
			}
			for k, ch := range nd.layout3 {
				nd.layout3[k] = rebase(ch, base)
			}
		}
		nodes = append(nodes, arena...)
	}
	c.nodes = nodes
}

// rebase shifts an arena-local node index by base; leaf codes and noChild are
// negative and pass through untouched.
func rebase(ref, base int32) int32 {
	if ref >= 0 {
		return ref + base
	}
	return ref
}

func (c *Compact) prefix(n *cnode) []byte {
	return c.keyData[n.prefixOff : n.prefixOff+uint32(n.prefixLen)]
}

// Len returns the number of entries.
func (c *Compact) Len() int { return len(c.values) }

// Get returns the value stored under key.
func (c *Compact) Get(key []byte) (uint64, bool) {
	if len(c.values) == 0 {
		return 0, false
	}
	if len(c.values) == 1 {
		if bytes.Equal(c.key(0), key) {
			return c.values[0], true
		}
		return 0, false
	}
	ref := int32(0)
	depth := 0
	for {
		if ref < 0 {
			e := int(^ref)
			if bytes.Equal(c.key(e), key) {
				return c.values[e], true
			}
			return 0, false
		}
		n := &c.nodes[ref]
		p := c.prefix(n)
		if !prefixMatches(p, key, depth) {
			return 0, false
		}
		depth += len(p)
		if depth == len(key) {
			if n.prefixLeaf >= 0 {
				return c.values[n.prefixLeaf], true
			}
			return 0, false
		}
		b := key[depth]
		next := noChild
		if n.layout3 != nil {
			next = n.layout3[b]
		} else {
			for i, l := range n.labels {
				if l == b {
					next = n.children[i]
					break
				}
				if l > b {
					break
				}
			}
		}
		if next == noChild {
			return 0, false
		}
		ref = next
		depth++
	}
}

// Scan visits entries in order from the smallest key >= start. Because the
// packed entries are already sorted, this is a lower-bound binary search
// (via the trie for locality) followed by an array walk.
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

// MemoryUsage counts the packed arenas and the exact-size nodes: a Layout 1
// node costs 12 bytes of header + 1 byte per label + 4 bytes per child, a
// Layout 3 node 12 + 1024 bytes.
func (c *Compact) MemoryUsage() int64 {
	m := int64(len(c.keyData)) + int64(len(c.keyOffs))*4 + int64(len(c.values))*8
	for i := range c.nodes {
		n := &c.nodes[i]
		m += 12
		if n.layout3 != nil {
			m += 1024
		} else {
			m += int64(len(n.labels)) * 5
		}
	}
	return m + 64
}
