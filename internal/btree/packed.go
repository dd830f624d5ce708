package btree

import (
	"bytes"
	"fmt"
	"sort"

	"mets/internal/bits"
	"mets/internal/index"
	"mets/internal/keys"
	"mets/internal/par"
)

// packedKeys is the sorted key set under Compact and CompactMulti: a
// prefix-truncated, 100%-full leaf level plus computed separator levels.
//
// Keys are cut into groups of fanout. A group's bytes in keyData are its
// keys' common prefix, stored once, followed by each key's suffix, so the
// first key of every group is contiguous. Beside the bytes each key has a
// 4-byte head of its suffix (the SWAR search mirror, swar.go) and the offset
// of its suffix from the group's base — 16 bits, or 32 when some group holds
// more than 64 KiB (chosen from the input at build time). The first offset
// of a group is therefore its prefix length.
//
// A separator is the first key of a leaf group, so separator levels store no
// key bytes and no child pointers: separator i of a level with stride s is
// group i*s, and each node of fanout separators keeps only their heads, taken
// after the node's own common prefix, and that prefix's length.
type packedKeys struct {
	keyData []byte
	bases   []uint32 // offset of each group in keyData; len = groups+1
	off16   []uint16 // per key: suffix start - group base; nil in the wide form
	off32   []uint32 // the wide form; nil otherwise
	heads   []uint32 // per key: head4(suffix)
	levels  []sepLevel
}

// sepLevel is one level of separators, bottom-up; the topmost has at most
// fanout of them.
type sepLevel struct {
	stride int      // separator i is the first key of leaf group i*stride
	heads  []uint32 // per separator: head4 of its key after the node prefix
	plen   []uint32 // per node: length of its separators' common prefix
}

// packKeys lays out the keys of sorted unique entries; when values is
// non-nil it also receives every entry's value. Groups are independent, so
// the arena is assembled by `workers` goroutines (0 = GOMAXPROCS) over
// contiguous runs of groups: a first pass validates order and sizes each
// group, the sizes are prefix-summed into bases, and a second pass writes
// every group at its computed position — the result is byte-identical for
// any worker count.
func packKeys(entries []index.Entry, values []uint64, workers int) (packedKeys, error) {
	n := len(entries)
	groups := (n + fanout - 1) / fanout
	w := par.Workers(workers)
	nc := par.NumChunks(w, groups)
	p := packedKeys{bases: make([]uint32, groups+1), heads: make([]uint32, n)}

	chunkBytes := make([]int64, nc)
	chunkWide := make([]bool, nc)
	chunkErr := make([]error, nc)
	par.Chunks(w, groups, func(chunk, glo, ghi int) {
		for g := glo; g < ghi; g++ {
			lo, hi := g*fanout, min(g*fanout+fanout, n)
			size := int64(0)
			for i := lo; i < hi; i++ {
				if i > 0 && bytes.Compare(entries[i-1].Key, entries[i].Key) >= 0 {
					chunkErr[chunk] = fmt.Errorf("entries must be sorted and unique (index %d)", i)
					return
				}
				size += int64(len(entries[i].Key))
			}
			// The prefix is kept once and dropped from each of the hi-lo keys.
			size -= int64(hi-lo-1) * int64(keys.CommonPrefixLen(entries[lo].Key, entries[hi-1].Key))
			chunkBytes[chunk] += size
			chunkWide[chunk] = chunkWide[chunk] || size > 1<<16-1
			p.bases[g+1] = uint32(size) // summed below; a size that wraps fails the total check first
		}
	})
	var total int64
	wide := false
	for c := 0; c < nc; c++ {
		if chunkErr[c] != nil {
			return packedKeys{}, chunkErr[c]
		}
		total += chunkBytes[c]
		wide = wide || chunkWide[c]
	}
	if total > 1<<32-1 {
		return packedKeys{}, fmt.Errorf("packed key bytes (%d) exceed the 32-bit offset space", total)
	}
	for g := 0; g < groups; g++ {
		p.bases[g+1] += p.bases[g]
	}
	p.keyData = make([]byte, total)
	if wide {
		p.off32 = make([]uint32, n)
	} else {
		p.off16 = make([]uint16, n)
	}

	par.Chunks(w, groups, func(_, glo, ghi int) {
		for g := glo; g < ghi; g++ {
			lo, hi := g*fanout, min(g*fanout+fanout, n)
			base := int(p.bases[g])
			plen := keys.CommonPrefixLen(entries[lo].Key, entries[hi-1].Key)
			pos := base + copy(p.keyData[base:], entries[lo].Key[:plen])
			for i := lo; i < hi; i++ {
				suffix := entries[i].Key[plen:]
				if wide {
					p.off32[i] = uint32(pos - base)
				} else {
					p.off16[i] = uint16(pos - base)
				}
				p.heads[i] = head4(suffix)
				pos += copy(p.keyData[pos:], suffix)
				if values != nil {
					values[i] = entries[i].Value
				}
			}
		}
	})

	// Separator levels, bottom-up, until one node holds a whole level.
	stride := 1
	for c := groups; c > 1; c = (c + fanout - 1) / fanout {
		sepKey := func(i int) []byte { return entries[i*stride*fanout].Key }
		lv := sepLevel{stride: stride, heads: make([]uint32, c), plen: make([]uint32, (c+fanout-1)/fanout)}
		for lo := 0; lo < c; lo += fanout {
			hi := min(lo+fanout, c)
			skip := keys.CommonPrefixLen(sepKey(lo), sepKey(hi-1))
			lv.plen[lo/fanout] = uint32(skip)
			for i := lo; i < hi; i++ {
				lv.heads[i] = head4(sepKey(i)[skip:])
			}
		}
		p.levels = append(p.levels, lv)
		if c <= fanout {
			break
		}
		stride *= fanout
	}
	return p, nil
}

func (p *packedKeys) numKeys() int { return len(p.heads) }

func (p *packedKeys) off(i int) int {
	if p.off16 != nil {
		return int(p.off16[i])
	}
	return int(p.off32[i])
}

// bounds locates key i in keyData: its group's base, and where its suffix
// starts and ends.
func (p *packedKeys) bounds(i int) (base, start, end int) {
	g := i / fanout
	base = int(p.bases[g])
	end = int(p.bases[g+1])
	if j := i + 1; j%fanout != 0 && j < len(p.heads) {
		end = base + p.off(j)
	}
	return base, base + p.off(i), end
}

// suffix returns key i without its group's common prefix.
func (p *packedKeys) suffix(i int) []byte {
	_, start, end := p.bounds(i)
	return p.keyData[start:end]
}

// groupPrefix returns the common prefix of group g's keys.
func (p *packedKeys) groupPrefix(g int) []byte {
	base := int(p.bases[g])
	return p.keyData[base : base+p.off(g*fanout)]
}

// firstKey returns the first key of group g — the separator above it —
// without copying: the group's prefix and first suffix are adjacent.
func (p *packedKeys) firstKey(g int) []byte {
	base, _, end := p.bounds(g * fanout)
	return p.keyData[base:end]
}

// equal reports whether key i is key.
func (p *packedKeys) equal(i int, key []byte) bool {
	prefix := p.groupPrefix(i / fanout)
	return len(key) >= len(prefix) && bytes.Equal(key[:len(prefix)], prefix) &&
		bytes.Equal(key[len(prefix):], p.suffix(i))
}

// searchNode probes one node — a leaf group or a node of separators — whose
// sorted keys all begin with prefix. It returns how many of them are < key,
// or <= key when orEqual is set. heads[j] is head4 of key j after the
// prefix; tail(j) returns those bytes in full and is called only across the
// run of keys whose head ties with key's.
func searchNode(heads []uint32, prefix, key []byte, orEqual bool, tail func(j int) []byte) int {
	if c := bytes.Compare(key[:min(len(key), len(prefix))], prefix); c != 0 {
		// key leaves the prefix (or ends inside it): the whole node lies on
		// one side of it.
		if c < 0 {
			return 0
		}
		return len(heads)
	}
	rest := key[len(prefix):]
	qh := head4(rest)
	i := countLess32(heads, qh)
	if i < len(heads) && heads[i] == qh {
		run := i
		i += sort.Search(len(heads)-run, func(d int) bool {
			j := run + d
			if heads[j] != qh {
				return true
			}
			c := bytes.Compare(tail(j), rest)
			return c > 0 || c == 0 && !orEqual
		})
	}
	return i
}

// lowerBound returns the index of the first key >= key, descending the
// separator levels like a B+tree: every node on the way, and the leaf group
// at the end, is probed by searchNode.
func (p *packedKeys) lowerBound(key []byte) int {
	n := len(p.heads)
	if n == 0 {
		return 0
	}
	g := 0 // node at the current level; finally the leaf group
	for l := len(p.levels) - 1; l >= 0; l-- {
		lv := &p.levels[l]
		lo, hi := g*fanout, min(g*fanout+fanout, len(lv.heads))
		skip := int(lv.plen[g])
		// Child = last separator <= key (the first when key is below them all).
		le := searchNode(lv.heads[lo:hi], p.firstKey(lo * lv.stride)[:skip], key, true, func(j int) []byte {
			return p.firstKey((lo + j) * lv.stride)[skip:]
		})
		g = lo + max(le-1, 0)
	}
	lo, hi := g*fanout, min(g*fanout+fanout, n)
	return lo + searchNode(p.heads[lo:hi], p.groupPrefix(g), key, false, func(j int) []byte {
		return p.suffix(lo + j)
	})
}

// scan lends every key from the smallest one >= start on, in order and with
// its index, until fn returns false. Keys are rebuilt (prefix + suffix) in
// one buffer the whole scan reuses, so a key is valid only during its call.
func (p *packedKeys) scan(start []byte, fn func(i int, key []byte) bool) {
	n := len(p.heads)
	buf := make([]byte, 0, 64)
	for i := p.lowerBound(start); i < n; {
		g := i / fanout
		base, hi := int(p.bases[g]), min(g*fanout+fanout, n)
		buf = append(buf[:0], p.groupPrefix(g)...)
		plen := len(buf)
		// Suffixes are adjacent: each one ends where the next starts.
		for from := base + p.off(i); i < hi; i++ {
			to := int(p.bases[g+1])
			if i+1 < hi {
				to = base + p.off(i+1)
			}
			buf = append(buf[:plen], p.keyData[from:to]...)
			if !fn(i, buf) {
				return
			}
			from = to
		}
	}
}

// memoryUsage returns what the allocator handed out for every array the key
// set holds; its own fields are charged with the struct that embeds it.
func (p *packedKeys) memoryUsage() int64 {
	m := bits.SliceAlloc(p.keyData) + bits.SliceAlloc(p.bases) + bits.SliceAlloc(p.off16) +
		bits.SliceAlloc(p.off32) + bits.SliceAlloc(p.heads) + bits.SliceAlloc(p.levels)
	for _, lv := range p.levels {
		m += bits.SliceAlloc(lv.heads) + bits.SliceAlloc(lv.plen)
	}
	return m
}
