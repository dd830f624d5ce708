// Package fst implements the Fast Succinct Trie of Chapter 3: a static trie
// encoded with LOUDS-DS, i.e. a small number of bitmap-encoded LOUDS-Dense
// levels on top and near-optimal LOUDS-Sparse levels below, with the
// customized rank/select structures and label-search optimizations of §3.6.
//
// The trie maps byte-string keys to uint64 values and supports exact-match
// lookup, lower-bound seeks with forward iteration, and O(height) approximate
// range counting. With Config.Truncate it stores only minimum-length
// distinguishing prefixes, which is the basis of the SuRF filter (Chapter 4).
// Static is a hybrid index's static stage in one of three layouts the keys
// decide: keys of one length of at most 8 bytes as a column of integers,
// longer keys of one length in a truncated trie with their tails kept
// beside it, and any other keys in a complete trie.
package fst

import (
	"cmp"
	"fmt"
	mathbits "math/bits"
	"slices"

	"mets/internal/bits"
	"mets/internal/index"
	"mets/internal/keys"
)

// Config controls trie construction.
type Config struct {
	// Truncate stores minimum-length unique key prefixes instead of complete
	// keys (SuRF-Base behaviour, §4.1.1).
	Truncate bool
	// StoreValues keeps the caller-supplied uint64 value per key. Filters
	// turn this off and keep per-leaf material of their own (BuildLeaves).
	StoreValues bool
	// DenseRatio is the LOUDS-Sparse : LOUDS-Dense size ratio R of §3.4 that
	// gives the lowest dense/sparse cutoff level (pickCutoff). Zero means the
	// default of 64.
	DenseRatio int
	// DenseLevels, if >= 0, overrides the picked cutoff with an explicit
	// number of LOUDS-Dense levels (used by the Fig 3.7 sweep).
	DenseLevels int
	// LinearLabelSearch disables the word-at-a-time label search in sparse
	// nodes, falling back to a byte loop (the Fig 3.6 ablation).
	LinearLabelSearch bool
	// RankSparseBlock overrides the sparse rank basic-block size (default
	// 512); RankDenseBlock the dense one (default 64); SelectSample the
	// select sampling rate (default 64). Used by the Fig 3.6 ablations and
	// by Static.
	RankSparseBlock int
	RankDenseBlock  int
	SelectSample    int
}

// DefaultConfig returns the configuration used by the thesis: full keys,
// values stored, R = 64.
func DefaultConfig() Config {
	return Config{StoreValues: true, DenseLevels: -1}
}

// Build constructs a Trie over sorted unique keys. values may be nil when
// cfg.StoreValues is false; otherwise it must be parallel to ks.
func Build(ks [][]byte, values []uint64, cfg Config) (*Trie, error) {
	if cfg.StoreValues && len(values) != len(ks) {
		return nil, fmt.Errorf("fst: %d values for %d keys", len(values), len(ks))
	}
	t := &Trie{}
	if err := (&builder{n: len(ks), ks: ks, values: values}).build(t, cfg); err != nil {
		return nil, err
	}
	return t, nil
}

// BuildLeaves constructs a Trie that stores no values over sorted unique
// keys, calling leaf once per key with the slot its leaf took (GetSlot and
// Iterator.Slot report the same number), the key's index in ks, and where in
// the key the stored path ends. A filter keeps per-leaf material of its own
// from these: SuRF's suffix bits are the key's bits from suffixStart on.
func BuildLeaves(ks [][]byte, cfg Config, leaf func(slot, key, suffixStart int)) (*Trie, error) {
	cfg.StoreValues = false
	t := &Trie{}
	if err := (&builder{n: len(ks), ks: ks, leaf: leaf}).build(t, cfg); err != nil {
		return nil, err
	}
	return t, nil
}

// builder constructs a trie from n sorted keys: ks with their values, or the
// entries es.
//
// A key's place in the trie follows from its longest common prefixes with
// its neighbours: with p the LCP with the previous key and q the one with the
// next, the key owns one entry on each level from p to its leaf level —
// max(p, q) in a truncated trie, max(len-1, q) in a complete one. The entry
// on level p joins the node the previous key is in; every deeper one starts a
// node of its own. All but the last have a child; the last is the key's
// leaf, a terminator when the key ends there because the next key extends
// it. Appending each key's entries to their levels in key order lays every
// level out in LOUDS order.
//
// So one walk over the keys compares neighbours and counts each level's
// entries, nodes and leaves, which give the dense/sparse cutoff and
// exact-size arrays, keeping each key's LCP with its successor in a byte; a
// second walk replays the keys from those bytes and writes the entries
// straight into the arrays.
//
// The values reach their slots in key order, not slot order, so the value
// arrays are filled in place (bits.FORBuilder) rather than from a 64-bit
// array gathered first. The counting walk sees each level's values in slot
// order and records the level's first and last value and whether any value
// falls below the one before. When every level of a region rises, the
// region's values are shifted by a constant per level so that each level
// starts where the one before ended (shiftLevels), unless that would pass
// 2^64: the region is then one rising sequence, which the
// Elias–Fano form codes at about 2 + log2(span/leaves) bits a value however
// few of every level's tuple IDs a region holds. Between the walks, a pass
// that computes only each key's leaf slot frames every value exactly.
type builder struct {
	n      int
	ks     [][]byte
	values []uint64
	es     []index.Entry
	leaf   func(slot, key, suffixStart int) // nil: leaves are not reported
	// counted, if set, is handed the level counts between the two walks, so
	// per-leaf material laid out by level can be allocated before the leaf
	// calls fill it.
	counted func(levels []levelCount)

	cfg    Config
	lcps   []uint8 // lcps[i]: the LCP of keys i and i+1, or lcpLong if not below it
	levels []levelCount
}

const lcpLong = 255

// levelCount is what the counting walk learns about one level: its size,
// and with values stored, the first and last of its leaves' values in slot
// order and whether any is below the one before it.
type levelCount struct {
	entries, nodes, leaves int
	first, last            uint64
	falls                  bool
}

func (b *builder) key(i int) []byte {
	if b.es != nil {
		return b.es[i].Key
	}
	return b.ks[i]
}

func (b *builder) value(i int) uint64 {
	if b.es != nil {
		return b.es[i].Value
	}
	return b.values[i]
}

// next returns the LCP of keys i and i+1 (0 for the last key).
func (b *builder) next(i int) int {
	if q := b.lcps[i]; q != lcpLong {
		return int(q)
	}
	return keys.CommonPrefixLen(b.key(i), b.key(i+1))
}

// leafLevel returns the level of the leaf of key k, whose LCPs with its
// neighbours are p and q.
func (b *builder) leafLevel(k []byte, p, q int) int {
	if b.cfg.Truncate {
		return max(p, q)
	}
	return max(len(k)-1, q)
}

// build fills t.
func (b *builder) build(t *Trie, cfg Config) error {
	if b.n == 0 {
		return fmt.Errorf("fst: empty key set")
	}
	b.cfg = cfg
	if err := b.count(); err != nil {
		return err
	}
	if b.counted != nil {
		b.counted(b.levels)
	}
	cutoff := cfg.DenseLevels
	if cutoff < 0 {
		cutoff = pickCutoff(b.levels, cfg)
	}
	cutoff = min(cutoff, len(b.levels))
	// A root holding only the empty key (no branches) cannot be expressed in
	// LOUDS-Sparse — a lone 0xFF entry reads as a real label — so encode it
	// with LOUDS-Dense, whose IsPrefixKey bit is unambiguous.
	if cutoff == 0 && b.n == 1 && len(b.key(0)) == 0 {
		cutoff = 1
	}
	*t = Trie{cfg: cfg, height: len(b.levels), denseHeight: cutoff}
	b.write(t)
	return nil
}

// count checks the keys are sorted and unique, records their LCPs and fills
// b.levels. A key adds an entry to each of levels p..leaf and a node to each
// of levels p+1..leaf (the first key also the root), so the walk records
// where those ranges start and end, and the sums come after.
func (b *builder) count() error {
	b.lcps = make([]uint8, b.n)
	var diff []levelCount
	q := 0
	for i := 0; i < b.n; i++ {
		k, p := b.key(i), q
		if q = 0; i+1 < b.n {
			next := b.key(i + 1)
			q = keys.CommonPrefixLen(k, next)
			if q == len(next) || q < len(k) && k[q] > next[q] {
				return fmt.Errorf("fst: keys must be sorted and unique (violated at index %d)", i+1)
			}
			b.lcps[i] = uint8(min(q, lcpLong))
		}
		leaf := b.leafLevel(k, p, q)
		for len(diff) < leaf+2 {
			diff = append(diff, levelCount{})
		}
		diff[p].entries++
		diff[p+1].nodes++
		diff[leaf+1].entries--
		diff[leaf+1].nodes--
		c := &diff[leaf]
		if b.cfg.StoreValues {
			v := b.value(i)
			if c.leaves == 0 {
				c.first = v
			} else if v < c.last {
				c.falls = true
			}
			c.last = v
		}
		c.leaves++
	}
	diff[0].nodes++ // the root
	diff[1].nodes--
	b.levels = diff[:len(diff)-1]
	for l := 1; l < len(b.levels); l++ {
		b.levels[l].entries += b.levels[l-1].entries
		b.levels[l].nodes += b.levels[l-1].nodes
	}
	return nil
}

// pickCutoff picks the number of LOUDS-Dense levels: §3.4's ratio rule,
// then each next level while its LOUDS-Dense size is no larger than its
// LOUDS-Sparse size, which at the default tuning holds once its nodes
// average about 76 labels. Per dense node that size is two 256-bit bitmaps
// and a prefix bit, per sparse entry a label and two bits, each with its
// share of the 32-bit rank LUT entries, plus per sparse node a share of a
// 32-bit select sample.
func pickCutoff(levels []levelCount, cfg Config) int {
	cutoff := ratioCutoff(levels, cfg.DenseRatio)
	denseBlock, sparseBlock, sample := cfg.blocks()
	denseNode := 513 * (1 + 32/float64(denseBlock))
	sparseEntry := 8 + 2*(1+32/float64(sparseBlock))
	sparseNode := 32 / float64(sample)
	for ; cutoff < len(levels); cutoff++ {
		nodes, entries := float64(levels[cutoff].nodes), float64(levels[cutoff].entries)
		if nodes*denseNode > entries*sparseEntry+nodes*sparseNode {
			break
		}
	}
	return cutoff
}

// ratioCutoff is §3.4's rule: the largest l such that
// LOUDS-Dense-Size(l) * R <= LOUDS-Sparse-Size(l), where the former covers
// levels [0, l) at 513 bits per node and the latter levels [l, H) at 10 bits
// per entry. A ratio of 0 means R = 64.
func ratioCutoff(levels []levelCount, ratio int) int {
	ratio = cmp.Or(ratio, 64)
	suffix := make([]int64, len(levels)+1)
	for l := len(levels) - 1; l >= 0; l-- {
		suffix[l] = suffix[l+1] + int64(levels[l].entries)*10
	}
	cutoff := 0
	var densePrefix int64
	for l := 0; l <= len(levels); l++ {
		if densePrefix*int64(ratio) <= suffix[l] {
			cutoff = l
		}
		if l < len(levels) {
			densePrefix += int64(levels[l].nodes) * 513
		}
	}
	return cutoff
}

// blocks returns the dense and sparse rank block sizes and the select
// sampling rate, defaults filled in.
func (c Config) blocks() (denseBlock, sparseBlock, sample int) {
	return cmp.Or(c.RankDenseBlock, 64), cmp.Or(c.RankSparseBlock, 512), cmp.Or(c.SelectSample, 64)
}

// write lays out t's arrays from the level counts, frames the values, and
// fills the arrays in the second walk.
func (b *builder) write(t *Trie) {
	cfg, cutoff := t.cfg, t.denseHeight
	// cur is, per level, the dense node being filled or the next sparse
	// position; slot the slot of the level's next leaf.
	cur := make([]int, len(b.levels))
	slot := make([]int, len(b.levels))
	t.dLevelValueStart = make([]int, cutoff+1)
	t.sLevelPosStart = make([]int, len(b.levels)-cutoff+1)
	t.sLevelValueStart = make([]int, len(b.levels)-cutoff+1)
	sparseEntries := 0
	for l, c := range b.levels {
		if l < cutoff {
			cur[l] = t.denseNodeCount - 1
			slot[l] = t.numDenseLeaves
			t.denseNodeCount += c.nodes
			t.denseChildCount += c.entries - c.leaves
			t.numDenseLeaves += c.leaves
			t.dLevelValueStart[l+1] = t.numDenseLeaves
			continue
		}
		cur[l] = sparseEntries
		slot[l] = t.numSparseLeaves // counted from the dense leaves below
		sparseEntries += c.entries
		t.numSparseLeaves += c.leaves
		t.sLevelPosStart[l-cutoff+1] = sparseEntries
		t.sLevelValueStart[l-cutoff+1] = t.numSparseLeaves
	}
	for l := cutoff; l < len(b.levels); l++ {
		slot[l] += t.numDenseLeaves
	}

	dLabels := bits.NewVector(t.denseNodeCount * 256)
	dHasChild := bits.NewVector(t.denseNodeCount * 256)
	dIsPrefix := bits.NewVector(t.denseNodeCount)
	t.sLabels = make([]byte, sparseEntries)
	sHasChild := bits.NewVector(sparseEntries)
	sLouds := bits.NewVector(sparseEntries)
	var values *regionValues
	if cfg.StoreValues {
		values = b.frameValues(t, slot)
	}

	q := 0
	for i := 0; i < b.n; i++ {
		k, p := b.key(i), q
		q = b.next(i)
		leaf := b.leafLevel(k, p, q)
		d := p
		for ; d <= leaf && d < cutoff; d++ {
			if d > p || i == 0 {
				cur[d]++
			}
			switch pos := cur[d] * 256; {
			case d == len(k):
				dIsPrefix.Set(cur[d])
			case d < leaf:
				dHasChild.Set(pos + int(k[d]))
				fallthrough
			default:
				dLabels.Set(pos + int(k[d]))
			}
		}
		for ; d <= leaf; d++ {
			pos := cur[d]
			cur[d]++
			if d < len(k) {
				t.sLabels[pos] = k[d]
			} else {
				t.sLabels[pos] = terminator
			}
			if d < leaf {
				sHasChild.Set(pos)
			}
			if d > p || i == 0 {
				sLouds.Set(pos)
			}
		}
		s := slot[leaf]
		slot[leaf]++
		if b.leaf != nil {
			b.leaf(s, i, min(leaf+1, len(k)))
		}
		if values != nil {
			fb, j := values.of(s)
			fb.Put(j, b.value(i)+t.shiftOf(leaf))
		}
	}
	if values != nil {
		t.dValues, t.sValues = values.fb[0].FOR(), values.fb[1].FOR()
	}

	denseBlock, sparseBlock, sample := cfg.blocks()
	t.dLabels = bits.NewRankVector(dLabels, denseBlock)
	t.dHasChild = bits.NewRankVector(dHasChild, denseBlock)
	t.dIsPrefix = bits.NewRankVector(dIsPrefix, denseBlock)
	t.sHasChild = bits.NewRankVector(sHasChild, sparseBlock)
	t.sLouds = bits.NewSelectVector(sLouds, sparseBlock, sample)
}

// regionValues is the value builders of both regions: a slot below nd is
// the dense region's, the rest the sparse region's.
type regionValues struct {
	fb [2]*bits.FORBuilder
	nd int
}

// of returns the builder of slot's region and the slot's index in it.
func (r *regionValues) of(slot int) (*bits.FORBuilder, int) {
	if slot < r.nd {
		return r.fb[0], slot
	}
	return r.fb[1], slot - r.nd
}

// frameValues sets t's level shifts and returns the value builders of both
// regions with every value framed: a pass over the keys that computes only
// each key's leaf level and, from the levels' first slots in slot, its slot.
func (b *builder) frameValues(t *Trie, slot []int) *regionValues {
	var rises [2]bool
	t.shift, rises = shiftLevels(b.levels, t.denseHeight)
	r := &regionValues{nd: t.numDenseLeaves, fb: [2]*bits.FORBuilder{
		bits.NewFORBuilder(t.numDenseLeaves, rises[0]),
		bits.NewFORBuilder(t.numSparseLeaves, rises[1]),
	}}
	next := slices.Clone(slot)
	q := 0
	for i := 0; i < b.n; i++ {
		p := q
		q = b.next(i)
		leaf := b.leafLevel(b.key(i), p, q)
		fb, j := r.of(next[leaf])
		next[leaf]++
		fb.Frame(j, b.value(i)+t.shiftOf(leaf))
	}
	return r
}

// shiftLevels returns the per-level constants that, added to the values, make
// each region whose levels all rise one rising sequence (shiftRegion), and
// reports per region (dense, sparse) whether its values rise. shift is nil
// when it is all zeros.
func shiftLevels(levels []levelCount, cutoff int) (shift []uint64, rises [2]bool) {
	shift = make([]uint64, len(levels))
	rises[0] = shiftRegion(levels[:cutoff], shift[:cutoff])
	rises[1] = shiftRegion(levels[cutoff:], shift[cutoff:])
	for _, sh := range shift {
		if sh != 0 {
			return shift, rises
		}
	}
	return nil, rises
}

// shiftRegion fills the shifts of one region's levels: its first level with
// leaves keeps its values, and every next one starts where the one before
// ended. It reports whether the values then rise, and leaves the shifts 0
// when a level falls or the values would pass 2^64.
func shiftRegion(levels []levelCount, shift []uint64) bool {
	var end uint64 // where the last level with leaves ended, once shifted
	started := false
	for l, c := range levels {
		if c.leaves == 0 {
			continue
		}
		if !started {
			end, started = c.first, true
		}
		var carry uint64
		shift[l] = end - c.first
		end, carry = mathbits.Add64(end, c.last-c.first, 0)
		if c.falls || carry != 0 {
			clear(shift)
			return false
		}
	}
	return true
}
