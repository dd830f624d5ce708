package hybrid

import (
	"mets/internal/art"
	"mets/internal/btree"
	"mets/internal/fst"
	"mets/internal/index"
	"mets/internal/masstree"
	"mets/internal/skiplist"
)

// NewBTree returns a Hybrid B+tree: dynamic STX-style B+tree over a Compact
// B+tree static stage (Fig 5.3).
func NewBTree(cfg Config) *Index {
	return New(
		func() index.Dynamic { return btree.New() },
		func(entries []index.Entry) (index.Static, error) { return btree.NewCompact(entries) },
		cfg)
}

// NewFST returns a dynamic STX-style B+tree over the thesis' own static
// structure, the Fast Succinct Trie (Ch. 3), as the static stage. Under
// Config.EpochReads the dynamic stage is the skip-list memtable and the
// B+tree factory is ignored.
func NewFST(cfg Config) *Index {
	return New(
		func() index.Dynamic { return btree.New() },
		func(entries []index.Entry) (index.Static, error) { return fst.NewStatic(entries) },
		cfg)
}

// NewCompressedBTree returns a Hybrid-Compressed B+tree: the static stage
// additionally applies the Compression rule (flate leaves + CLOCK cache).
// cacheBlocks <= 0 selects the default node-cache size; use 1 to approximate
// "no node cache" for the Fig 5.9 ablation.
func NewCompressedBTree(cfg Config, cacheBlocks int) *Index {
	return New(
		func() index.Dynamic { return btree.New() },
		func(entries []index.Entry) (index.Static, error) {
			return btree.NewCompressed(entries, cacheBlocks)
		},
		cfg)
}

// NewART returns a Hybrid ART (Fig 5.6).
func NewART(cfg Config) *Index {
	return New(
		func() index.Dynamic { return art.New() },
		func(entries []index.Entry) (index.Static, error) { return art.NewCompact(entries) },
		cfg)
}

// NewSkipList returns a Hybrid Skip List (Fig 5.5).
func NewSkipList(cfg Config) *Index {
	return New(
		func() index.Dynamic { return skiplist.New() },
		func(entries []index.Entry) (index.Static, error) { return skiplist.NewCompact(entries) },
		cfg)
}

// NewMasstree returns a Hybrid Masstree (Fig 5.4).
func NewMasstree(cfg Config) *Index {
	return New(
		func() index.Dynamic { return masstree.New() },
		func(entries []index.Entry) (index.Static, error) { return masstree.NewCompact(entries) },
		cfg)
}
