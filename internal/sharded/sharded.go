// Package sharded implements a range-partitioned sharded hybrid index: keys
// fan out across N disjoint key ranges, each backed by its own
// hybrid.Index — its own dynamic stage, writer mutex, Bloom filter, and
// independent background-merge schedule. Writers touching different
// shards proceed in parallel, and a merge pause on one shard never stalls
// readers or writers on the other N-1, so the worst-case pause shrinks with
// the shard count instead of growing with the total index size.
//
// Partitioning is boundary-based (internal/sharded.Router): boundaries are
// either learned from a key sample (RouterFromSample, quantile split) or
// spaced uniformly (UniformRouter). Range scans walk the shards in router
// order, each through its own Scan; because shard ranges are disjoint and
// ordered, the concatenated stream is globally sorted with no merge and no
// cross-shard deduplication.
//
// # Key compression
//
// With Config.Codec (or a Config.CodecTrainer-driven BulkLoad), the sharded
// layer owns the codec boundary: keys are encoded once here, split
// boundaries and routing live in encoded space, and the per-shard hybrid
// indexes store encoded keys natively (their own codec stays identity, so
// keys are never encoded twice). Scans route and merge encoded, decoding on
// emit. Because a BulkLoad-trained codec changes the encoded key space, the
// codec, router, and shards travel together in one immutable core swapped
// atomically — readers always see a mutually consistent triple.
package sharded

import (
	"fmt"
	"path"
	"sync/atomic"
	"time"

	"mets/internal/hybrid"
	"mets/internal/index"
	"mets/internal/keycodec"
	"mets/internal/obs"
	"mets/internal/par"
	"mets/internal/reconfig"
)

// Config tunes the sharded index.
type Config struct {
	// Shards is the shard count used when Router is nil (a UniformRouter is
	// built); default 8.
	Shards int
	// Router overrides the partitioning (e.g. RouterFromSample). Boundaries
	// are given in raw key space; with a codec they are translated into
	// encoded space at construction. The shard count is then
	// Router.NumShards().
	Router *Router
	// Hybrid is the per-shard dual-stage configuration. MinDynamic applies
	// per shard, so an N-shard index merges after roughly N*MinDynamic total
	// inserts spread evenly. Hybrid.Codec is ignored — the sharded layer
	// owns the codec boundary (Config.Codec).
	Hybrid hybrid.Config
	// Obs attaches every shard to the registry under a "shard<i>." prefix,
	// so snapshots expose per-shard op counters (skew), stage sizes, and
	// "shard<i>.merge" records. Overrides Hybrid.Obs. Nil disables
	// instrumentation.
	Obs *obs.Registry
	// Codec, when set (and not the identity), stores and routes keys in
	// encoded space (see the package comment).
	Codec keycodec.Codec
	// CodecTrainer, when set, makes BulkLoad train a fresh codec from its
	// sample pass over the load set, recompute the split boundaries as
	// quantiles in the new encoded space, and swap codec+router+shards in
	// one atomic step. Point and range operations concurrent with the swap
	// see either the old or the new generation, never a mix.
	// Incompatible with Dir (New panics): shard journals hold keys in
	// encoded space, so swapping the codec would invalidate them.
	CodecTrainer keycodec.Trainer
	// Dir, when non-empty, gives every shard an op journal under
	// Dir/shardNNN (see hybrid.Config.Dir): writes are journaled and a new
	// index over the same Dir replays them. Hybrid.Dir is ignored — the
	// sharded layer owns the per-shard directories. Hybrid.FS still selects
	// the filesystem. Use SyncJournals/Close as the durability barriers.
	Dir string
}

// DefaultConfig returns 8 uniform shards with background merges enabled.
func DefaultConfig() Config {
	hc := hybrid.DefaultConfig()
	hc.BackgroundMerge = true
	return Config{Shards: 8, Hybrid: hc}
}

// core is one immutable generation of the index: a codec, a router with
// boundaries in that codec's encoded space, and the shards holding encoded
// keys. Swapped wholesale by codec-retraining bulk loads; a reader loads the
// pointer once per operation and works on that triple, which nothing writes
// to after publication. A superseded core is garbage once the store has
// replaced it and the last such reader is done — it owns no journals (Dir
// excludes every core swap), so there is nothing to close.
type core struct {
	codec  keycodec.Codec // nil = identity (keys stored raw)
	router *Router
	shards []*hybrid.Index
}

// Index is a range-partitioned collection of hybrid indexes. All methods are
// safe for concurrent use; a write takes only the owning shard's writer
// mutex, a read none, and aggregate accessors visit shards one at a time (they are
// monotonic snapshots, not point-in-time cuts across shards).
type Index struct {
	core atomic.Pointer[core]

	obs       *obs.Registry
	hybridCfg hybrid.Config
	newShard  func(hybrid.Config) *hybrid.Index
	trainer   keycodec.Trainer
	nshards   int
	// dir is Config.Dir; each shard journals under dir/shardNNN.
	dir string
	// seam is the reconfiguration pipeline every BulkLoad publishes
	// through; concurrent bulk loads serialize on it.
	seam *reconfig.Seam
}

// New builds a sharded index; newShard creates one hybrid index per range
// (hybrid.NewBTree et al. match the signature).
func New(cfg Config, newShard func(hybrid.Config) *hybrid.Index) *Index {
	n := cfg.Shards
	if n <= 0 {
		n = 8
	}
	if cfg.Router != nil {
		n = cfg.Router.NumShards()
	}
	if cfg.Dir != "" && cfg.CodecTrainer != nil {
		panic("sharded: Dir cannot be combined with CodecTrainer (a codec swap would invalidate the encoded-space shard journals)")
	}
	hc := cfg.Hybrid
	hc.Codec = nil // the sharded layer owns the codec boundary
	hc.Dir = ""    // per-shard journal dirs are assigned in newCore
	s := &Index{
		obs:       cfg.Obs,
		hybridCfg: hc,
		newShard:  newShard,
		trainer:   cfg.CodecTrainer,
		nshards:   n,
		dir:       cfg.Dir,
	}
	var codec keycodec.Codec
	if !keycodec.IsIdentity(cfg.Codec) {
		codec = keycodec.Instrument(cfg.Codec, cfg.Obs)
	}
	r := cfg.Router
	if r == nil {
		r = UniformRouter(n)
	}
	if codec != nil {
		r = encodeRouter(r, codec)
	}
	s.seam = reconfig.New(reconfig.Options{Name: "sharded", Obs: cfg.Obs, FlightRec: cfg.Obs.FlightRecorder()})
	s.core.Store(s.newCore(codec, r))
	if cfg.Obs != nil {
		cfg.Obs.GaugeFunc("shards", func() float64 { return float64(s.NumShards()) })
	}
	return s
}

// NewBTree builds a sharded index whose shards keep a B+tree dynamic stage
// over an FST static stage (hybrid.NewFST). Under Hybrid.EpochReads, which
// mets-server and the gated benchmark set, the dynamic stage is the
// skip-list memtable and the B+tree is not built.
func NewBTree(cfg Config) *Index { return New(cfg, hybrid.NewFST) }

// NewART builds a sharded index with ART shards.
func NewART(cfg Config) *Index { return New(cfg, hybrid.NewART) }

// NewSkipList builds a sharded index with skip-list shards.
func NewSkipList(cfg Config) *Index { return New(cfg, hybrid.NewSkipList) }

// NewMasstree builds a sharded index with Masstree shards.
func NewMasstree(cfg Config) *Index { return New(cfg, hybrid.NewMasstree) }

// encodeRouter translates raw-space boundaries into codec space. Encoding is
// strictly monotone, so the encoded boundaries induce the same partition of
// the key set.
func encodeRouter(r *Router, codec keycodec.Codec) *Router {
	bs := make([][]byte, 0, len(r.Boundaries()))
	for _, b := range r.Boundaries() {
		bs = append(bs, codec.EncodeBound(b))
	}
	return NewRouter(bs)
}

// newCore builds the per-shard hybrid indexes for one generation. Metric
// names are stable across generations (same "shard<i>." prefixes), so a
// rebuild keeps appending to the same counters.
//
// With Config.Dir a shard's constructor replays its journal and rebuilds its
// static stage, which is all of a restart's cost, so the shards open side by
// side. A shard that cannot open panics (hybrid.New has no error return);
// the lowest such shard's panic is raised again here, on the caller's
// goroutine, where the serial loop raised it.
func (s *Index) newCore(codec keycodec.Codec, r *Router) *core {
	c := &core{codec: codec, router: r, shards: make([]*hybrid.Index, r.NumShards())}
	open := func(i int) {
		hc := s.hybridCfg
		if s.obs != nil {
			hc.Obs = s.obs.Sub(fmt.Sprintf("shard%d.", i))
		}
		if s.dir != "" {
			hc.Dir = path.Join(s.dir, fmt.Sprintf("shard%03d", i))
		}
		c.shards[i] = s.newShard(hc)
	}
	if s.dir == "" {
		for i := range c.shards {
			open(i)
		}
		return c
	}
	panics := make([]any, len(c.shards))
	fns := make([]func(), len(c.shards))
	for i := range c.shards {
		i := i
		fns[i] = func() {
			defer func() { panics[i] = recover() }()
			open(i)
		}
	}
	par.Run(fns...)
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	return c
}

// publish installs a rebuilt core. Its shards re-registered the "shard<i>."
// derived gauges they share with their predecessors, but a core with fewer
// shards leaves the higher-numbered ones behind, and each of those closures
// holds a retired hybrid.Index with its whole static stage: drop them.
func (s *Index) publish(next *core) {
	old := s.core.Swap(next)
	for i := len(next.shards); i < len(old.shards); i++ {
		s.obs.DropGaugeFuncs(fmt.Sprintf("shard%d.", i))
	}
}

// SyncJournals is the explicit durability barrier across every shard
// journal. It starts the barrier on every shard before waiting on any, so
// the shard journals' committers fsync side by side and the call costs the
// slowest journal with something new in it, not the sum over all of them; a
// journal nothing was written to since its last fsync is not touched. Every
// barrier is awaited even after one fails; the error returned is the first
// in shard order. A no-op without Config.Dir.
func (s *Index) SyncJournals() error {
	if s.dir == "" {
		return nil
	}
	shards := s.load().shards
	barriers := make([]hybrid.JournalBarrier, len(shards))
	for i, sh := range shards {
		barriers[i] = sh.StartJournalSync()
	}
	var first error
	for _, b := range barriers {
		if err := b.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// JournalErr reports the first shard journal's sticky failure, if any:
// non-nil means some op was not journaled and that shard's on-disk journal
// has diverged from its in-memory state (see hybrid.Index.JournalErr). A
// no-op (always nil) without Config.Dir.
func (s *Index) JournalErr() error {
	for _, sh := range s.load().shards {
		if err := sh.JournalErr(); err != nil {
			return err
		}
	}
	return nil
}

// Close settles background merges and closes every shard journal (each with
// a final fsync if it needs one).
func (s *Index) Close() error {
	var first error
	for _, sh := range s.load().shards {
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (s *Index) load() *core { return s.core.Load() }

// encodeKey maps key into c's encoded space (no-op without a codec).
func (c *core) encodeKey(key []byte) []byte {
	if c.codec == nil {
		return key
	}
	return c.codec.Encode(key)
}

// NumShards returns the shard count.
func (s *Index) NumShards() int { return len(s.load().shards) }

// Router returns the boundary router of the current generation. With a
// codec active its boundaries are in encoded space.
func (s *Index) Router() *Router { return s.load().router }

// shard loads the core, encodes key and routes it: the owning shard and the
// key in its encoded space. Every point operation starts here and takes no
// lock of the sharded layer; the shard's own writer mutex is the only one a
// write meets.
func (s *Index) shard(key []byte) (*hybrid.Index, []byte) {
	c := s.load()
	ek := c.encodeKey(key)
	return c.shards[c.router.Shard(ek)], ek
}

// Get returns the value stored under key, resolved in the owning shard's
// current generation.
func (s *Index) Get(key []byte) (uint64, bool) {
	sh, ek := s.shard(key)
	return sh.Get(ek)
}

// Insert adds a new entry (primary-index semantics: duplicates rejected).
func (s *Index) Insert(key []byte, value uint64) bool {
	sh, ek := s.shard(key)
	return sh.Insert(ek, value)
}

// Update overwrites the value of an existing key.
func (s *Index) Update(key []byte, value uint64) bool {
	sh, ek := s.shard(key)
	return sh.Update(ek, value)
}

// Delete removes key.
func (s *Index) Delete(key []byte) bool {
	sh, ek := s.shard(key)
	return sh.Delete(ek)
}

// Len returns the total number of live entries across shards.
func (s *Index) Len() int {
	n := 0
	for _, sh := range s.load().shards {
		n += sh.Len()
	}
	return n
}

// MemoryUsage sums all shards.
func (s *Index) MemoryUsage() int64 {
	var m int64
	for _, sh := range s.load().shards {
		m += sh.MemoryUsage()
	}
	return m
}

// Merge synchronously merges every shard's dynamic stage into its static
// stage, fanning the per-shard rebuilds out across GOMAXPROCS workers.
func (s *Index) Merge() {
	shards := s.load().shards
	fns := make([]func(), len(shards))
	for i := range shards {
		sh := shards[i]
		fns[i] = func() { sh.Merge() }
	}
	par.Run(fns...)
}

// WaitMerges blocks until no shard has a background merge in flight.
func (s *Index) WaitMerges() {
	for _, sh := range s.load().shards {
		sh.WaitMerges()
	}
}

// MergeStats aggregates across shards: total merge count, the longest
// single-shard last-merge time (the worst pause any one shard imposed), and
// summed merge work.
func (s *Index) MergeStats() (merges int, worstLast, total time.Duration) {
	for _, sh := range s.load().shards {
		m, last, t := sh.MergeStats()
		merges += m
		if last > worstLast {
			worstLast = last
		}
		total += t
	}
	return merges, worstLast, total
}

// bulkSampleCap bounds how many keys a codec-training BulkLoad samples.
const bulkSampleCap = 1 << 16

// BulkLoad replaces the index contents with the given sorted unique entries.
//
// Without a CodecTrainer, the entries are encoded with the current codec (a
// no-op for identity), partitioned by the current router (cheap binary
// searches at the boundaries), and each shard's static stage is built
// directly, with the per-shard builds fanned out across GOMAXPROCS workers.
//
// With a CodecTrainer, the load's sample pass first trains a fresh codec,
// the split boundaries are recomputed as even quantiles of the load in the
// new encoded space (so shards receive equal entry counts under the loaded
// distribution), fresh shards are built, and codec+router+shards swap in
// atomically. Readers still on the earlier core finish on it.
//
// Both paths run through the reconfiguration seam, which serializes them
// against each other and instruments the build/validate/publish pipeline.
func (s *Index) BulkLoad(entries []index.Entry) error {
	if s.trainer == nil {
		return s.seam.Apply(reconfig.Change{
			Kind: "bulkload",
			Build: func() (reconfig.Prepared, error) {
				c := s.load()
				enc := encodeEntries(entries, c.codec)
				return reconfig.Prepared{
					Publish: func() error { return bulkLoadCore(c, enc) },
					Attrs:   []obs.Attr{obs.I64("entries", int64(len(entries)))},
				}, nil
			},
		})
	}
	return s.seam.Apply(reconfig.Change{
		Kind: "bulkload.retrain",
		Build: func() (reconfig.Prepared, error) {
			sample := sampleKeys(entries, bulkSampleCap)
			codec, err := s.trainer(sample)
			if err != nil {
				return reconfig.Prepared{}, fmt.Errorf("sharded: codec training failed: %w", err)
			}
			if keycodec.IsIdentity(codec) {
				codec = nil
			} else {
				codec = keycodec.Instrument(codec, s.obs)
			}
			enc := encodeEntries(entries, codec)
			router := quantileRouter(enc, s.nshards)
			next := s.newCore(codec, router)
			if err := bulkLoadCore(next, enc); err != nil {
				return reconfig.Prepared{}, err
			}
			p := reconfig.Prepared{
				Publish: func() error { s.publish(next); return nil },
				Attrs: []obs.Attr{
					obs.I64("entries", int64(len(entries))),
					obs.I64("shards", int64(s.nshards)),
				},
			}
			if codec != nil {
				cc := codec
				p.Validate = func() error { return keycodec.Validate(cc, sample) }
			}
			return p, nil
		},
	})
}

// sampleKeys draws an evenly spaced key sample of at most cap entries.
func sampleKeys(entries []index.Entry, capN int) [][]byte {
	step := 1
	if len(entries) > capN {
		step = (len(entries) + capN - 1) / capN
	}
	out := make([][]byte, 0, min(len(entries), capN))
	for i := 0; i < len(entries); i += step {
		out = append(out, entries[i].Key)
	}
	return out
}

// encodeEntries maps sorted entries into codec space (the codec is strictly
// monotone, so the result is sorted too). Identity returns the input slice.
func encodeEntries(entries []index.Entry, codec keycodec.Codec) []index.Entry {
	if codec == nil {
		return entries
	}
	enc := make([]index.Entry, len(entries))
	for i, e := range entries {
		enc[i] = index.Entry{Key: codec.Encode(e.Key), Value: e.Value}
	}
	return enc
}

// quantileRouter splits sorted encoded entries into n equal-count ranges.
func quantileRouter(enc []index.Entry, n int) *Router {
	bs := make([][]byte, 0, n-1)
	for i := 1; i < n; i++ {
		q := i * len(enc) / n
		if q >= len(enc) {
			break
		}
		bs = append(bs, enc[q].Key)
	}
	return NewRouter(bs)
}

// bulkLoadCore partitions encoded entries by c's router and builds every
// shard's static stage in parallel.
func bulkLoadCore(c *core, entries []index.Entry) error {
	parts := partition(c, entries)
	errs := make([]error, len(c.shards))
	fns := make([]func(), len(c.shards))
	for i := range c.shards {
		i := i
		fns[i] = func() { errs[i] = c.shards[i].BulkLoad(parts[i]) }
	}
	par.Run(fns...)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// partition splits sorted encoded entries into per-shard sub-slices (no
// copying).
func partition(c *core, entries []index.Entry) [][]index.Entry {
	parts := make([][]index.Entry, len(c.shards))
	lo := 0
	for i := 0; i < len(c.shards); i++ {
		hi := len(entries)
		if i+1 < len(c.shards) {
			b := c.router.LowerBound(i + 1)
			hi = lo + sortSearchEntries(entries[lo:], b)
		}
		parts[i] = entries[lo:hi]
		lo = hi
	}
	return parts
}
