// Package sharded implements a range-partitioned sharded hybrid index: keys
// fan out across N disjoint key ranges, each backed by its own
// hybrid.Index — its own dynamic stage, writer mutex, Bloom filter, and
// independent background-merge schedule. Every shard is built the same way:
// the lock-free skip-list memtable over an FST static stage, merged in the
// background. Writers touching different shards proceed in parallel, and a
// merge pause on one shard never stalls readers or writers on the other N-1,
// so the worst-case pause shrinks with the shard count instead of growing
// with the total index size.
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
// With Config.Codec the sharded layer is the one codec boundary: keys are
// encoded once here, split boundaries and routing live in encoded space, and
// the per-shard hybrid indexes store encoded keys as given. Scans route and
// merge encoded, decoding on emit. The codec, the router and the shards are
// fixed when New runs (the codec is trained beforehand, from a sample), so a
// reader needs no consistent view of them: only each shard's generation
// changes.
package sharded

import (
	"fmt"
	"path"
	"sync"
	"time"

	"mets/internal/hybrid"
	"mets/internal/index"
	"mets/internal/keycodec"
	"mets/internal/keys"
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
	// inserts spread evenly. The sharded layer owns four of its fields and
	// ignores what the caller set in them: EpochReads and BackgroundMerge
	// are always on, and Obs and Dir come from the fields below.
	Hybrid hybrid.Config
	// Obs attaches every shard to the registry under a "shard<i>." prefix,
	// so snapshots expose per-shard op counters (skew), stage sizes, and
	// "shard<i>.merge" records. Nil disables instrumentation.
	Obs *obs.Registry
	// Codec, when set (and not the identity), stores and routes keys in
	// encoded space for the index's lifetime (see the package comment).
	Codec keycodec.Codec
	// Dir, when non-empty, gives every shard an op journal under
	// Dir/shardNNN (see hybrid.Config.Dir): writes are journaled and a new
	// index over the same Dir replays them. Hybrid.FS selects the
	// filesystem. Use SyncJournals/Close as the durability barriers.
	// The journals hold encoded keys, so reopen a Dir with the codec that
	// wrote it.
	Dir string
}

// Index is a range-partitioned collection of hybrid indexes. All methods are
// safe for concurrent use; a write takes only the owning shard's writer
// mutex, a read none, and aggregate accessors visit shards one at a time (they are
// monotonic snapshots, not point-in-time cuts across shards).
type Index struct {
	// codec, router and shards are set once in New and never replaced.
	codec  keycodec.Codec // nil = identity (keys stored raw)
	router *Router        // boundaries in the codec's encoded space
	shards []*hybrid.Index

	// journaled is whether Config.Dir gave every shard a journal.
	journaled bool
	// seam is the reconfiguration pipeline every BulkLoad publishes
	// through; concurrent bulk loads serialize on it.
	seam *reconfig.Seam
}

// New builds a sharded index whose shards are hybrid.NewFST indexes
// configured by shardConfig.
//
// With Config.Dir a shard's constructor replays its journal and rebuilds its
// static stage, which is all of a restart's cost, so the shards open side by
// side. A shard that cannot open panics (hybrid.New has no error return);
// the lowest such shard's panic is raised again here, on the caller's
// goroutine.
func New(cfg Config) *Index { return newIndex(cfg, hybrid.NewFST) }

// NewBTree is New under its former name.
//
// Deprecated: use New.
func NewBTree(cfg Config) *Index { return New(cfg) }

// newIndex is New with the shard constructor as a parameter, so a test can
// watch the static stages a shard builds; every shard gets shardConfig.
func newIndex(cfg Config, newShard func(hybrid.Config) *hybrid.Index) *Index {
	r := cfg.Router
	if r == nil {
		n := cfg.Shards
		if n <= 0 {
			n = 8
		}
		r = UniformRouter(n)
	}
	s := &Index{journaled: cfg.Dir != ""}
	if !keycodec.IsIdentity(cfg.Codec) {
		s.codec = keycodec.Instrument(cfg.Codec, cfg.Obs)
		r = encodeRouter(r, s.codec)
	}
	s.router = r
	s.shards = make([]*hybrid.Index, r.NumShards())
	open := func(i int) { s.shards[i] = newShard(shardConfig(cfg, i)) }
	if cfg.Dir == "" {
		for i := range s.shards {
			open(i)
		}
	} else {
		panics := make([]any, len(s.shards))
		fns := make([]func(), len(s.shards))
		for i := range s.shards {
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
	}
	s.seam = reconfig.New(reconfig.Options{Name: "sharded", Obs: cfg.Obs, FlightRec: cfg.Obs.FlightRecorder()})
	if cfg.Obs != nil {
		cfg.Obs.GaugeFunc("shards", func() float64 { return float64(s.NumShards()) })
	}
	return s
}

// shardConfig is shard i's hybrid configuration: the caller's Hybrid with
// the fields the sharded layer owns overridden. Reads are always wait-free
// (EpochReads) and merges always run in the background; the journal
// directory is Dir/shardNNN, or none without Dir; the registry is Obs's
// "shard<i>." view, or none without Obs.
func shardConfig(cfg Config, i int) hybrid.Config {
	hc := cfg.Hybrid
	hc.EpochReads = true
	hc.BackgroundMerge = true
	hc.Obs = cfg.Obs.Sub(fmt.Sprintf("shard%d.", i))
	hc.Dir = ""
	if cfg.Dir != "" {
		hc.Dir = path.Join(cfg.Dir, fmt.Sprintf("shard%03d", i))
	}
	return hc
}

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

// SyncJournals is the explicit durability barrier across every shard
// journal. It starts the barrier on every shard before waiting on any, so
// the shard journals' committers fsync side by side and the call costs the
// slowest journal with something new in it, not the sum over all of them; a
// journal nothing was written to since its last fsync is not touched. Every
// barrier is awaited even after one fails; the error returned is the first
// in shard order. A no-op without Config.Dir.
func (s *Index) SyncJournals() error {
	if !s.journaled {
		return nil
	}
	barriers := make([]hybrid.JournalBarrier, len(s.shards))
	for i, sh := range s.shards {
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
	for _, sh := range s.shards {
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
	for _, sh := range s.shards {
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NumShards returns the shard count.
func (s *Index) NumShards() int { return len(s.shards) }

// Router returns the boundary router. With a codec active its boundaries are
// in encoded space.
func (s *Index) Router() *Router { return s.router }

// Get returns the value stored under key, resolved in the owning shard's
// current generation.
func (s *Index) Get(key []byte) (uint64, bool) { return get(s.codec, s.router, s.shards, key) }

// keyBufs holds the buffers point operations encode their keys into.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// get is Get over the shards of the live index or of a snapshot. A read does
// not retain its key, so the key is encoded into a pooled buffer that goes
// back as soon as the shard answers: a point read allocates nothing.
func get[S interface{ Get([]byte) (uint64, bool) }](codec keycodec.Codec, r *Router, shards []S, key []byte) (uint64, bool) {
	if codec == nil {
		return shards[r.Shard(key)].Get(key)
	}
	buf := keyBufs.Get().(*[]byte)
	*buf = codec.EncodeAppend((*buf)[:0], key)
	v, ok := shards[r.Shard(*buf)].Get(*buf)
	keyBufs.Put(buf)
	return v, ok
}

// write applies op to key in the owning shard, encoded into a pooled buffer
// as a read's is: the shard copies what it keeps of the key (the memtable
// into its slab, the journal into its record). It takes no lock of the
// sharded layer; the shard's writer mutex is the only one a write meets.
func (s *Index) write(key []byte, value uint64, op func(*hybrid.Index, []byte, uint64) bool) bool {
	if s.codec == nil {
		return op(s.shards[s.router.Shard(key)], key, value)
	}
	buf := keyBufs.Get().(*[]byte)
	*buf = s.codec.EncodeAppend((*buf)[:0], key)
	ok := op(s.shards[s.router.Shard(*buf)], *buf, value)
	keyBufs.Put(buf)
	return ok
}

// Insert adds a new entry (primary-index semantics: duplicates rejected).
func (s *Index) Insert(key []byte, value uint64) bool {
	return s.write(key, value, (*hybrid.Index).Insert)
}

// Update overwrites the value of an existing key.
func (s *Index) Update(key []byte, value uint64) bool {
	return s.write(key, value, (*hybrid.Index).Update)
}

// Delete removes key.
func (s *Index) Delete(key []byte) bool { return s.write(key, 0, deleteOp) }

func deleteOp(h *hybrid.Index, key []byte, _ uint64) bool { return h.Delete(key) }

// Len returns the total number of live entries across shards.
func (s *Index) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// MemoryUsage sums all shards.
func (s *Index) MemoryUsage() int64 {
	var m int64
	for _, sh := range s.shards {
		m += sh.MemoryUsage()
	}
	return m
}

// Merge synchronously merges every shard's dynamic stage into its static
// stage, fanning the per-shard rebuilds out across GOMAXPROCS workers.
func (s *Index) Merge() {
	fns := make([]func(), len(s.shards))
	for i := range s.shards {
		sh := s.shards[i]
		fns[i] = func() { sh.Merge() }
	}
	par.Run(fns...)
}

// WaitMerges blocks until no shard has a background merge in flight.
func (s *Index) WaitMerges() {
	for _, sh := range s.shards {
		sh.WaitMerges()
	}
}

// MergeStats aggregates across shards: total merge count, the longest
// single-shard last-merge time (the worst pause any one shard imposed), and
// summed merge work.
func (s *Index) MergeStats() (merges int, worstLast, total time.Duration) {
	for _, sh := range s.shards {
		m, last, t := sh.MergeStats()
		merges += m
		if last > worstLast {
			worstLast = last
		}
		total += t
	}
	return merges, worstLast, total
}

// BulkLoad replaces the index contents with the given sorted unique entries:
// they are encoded with the index's codec (a no-op for identity), split at
// the router's boundaries (binary searches, no copying), and each shard's
// static stage is built directly, the per-shard builds fanned out across
// GOMAXPROCS workers. Entries that are not strictly ascending are rejected
// before any shard is touched, so a rejected load leaves the index as it
// was. Bulk loads run through the reconfiguration seam, which serializes
// them and records each one.
func (s *Index) BulkLoad(entries []index.Entry) error {
	return s.seam.Apply(reconfig.Change{
		Kind: "bulkload",
		Build: func() (reconfig.Prepared, error) {
			enc, err := encodeEntries(entries, s.codec)
			if err != nil {
				return reconfig.Prepared{}, err
			}
			return reconfig.Prepared{
				Publish: func() error { return s.bulkLoadShards(enc) },
				Attrs:   []obs.Attr{obs.I64("entries", int64(len(entries)))},
			}, nil
		},
	})
}

// encodeEntries maps entries into codec space (identity returns the input
// slice) and checks on the way that they are strictly ascending, which the
// partition and every shard's build rely on; the codec is strictly monotone,
// so the result is ascending too. The check rides the encode pass: each key
// is compared while its encoding has it in cache. Each key is encoded into
// one reused buffer and cut from a keys.Slab, so the pass allocates a few
// slab buffers, not one key per entry.
func encodeEntries(entries []index.Entry, codec keycodec.Codec) ([]index.Entry, error) {
	enc := entries
	if codec != nil {
		enc = make([]index.Entry, len(entries))
	}
	var slab keys.Slab
	var buf []byte
	for i, e := range entries {
		if i > 0 && keys.Compare(entries[i-1].Key, e.Key) >= 0 {
			return nil, fmt.Errorf("sharded: bulk-load entries must be sorted and unique (violated at index %d)", i)
		}
		if codec != nil {
			buf = codec.EncodeAppend(buf[:0], e.Key)
			enc[i] = index.Entry{Key: slab.Clone(buf), Value: e.Value}
		}
	}
	return enc, nil
}

// bulkLoadShards partitions sorted encoded entries by the router and builds
// every shard's static stage in parallel.
func (s *Index) bulkLoadShards(entries []index.Entry) error {
	parts := s.partition(entries)
	errs := make([]error, len(s.shards))
	fns := make([]func(), len(s.shards))
	for i := range s.shards {
		i := i
		fns[i] = func() { errs[i] = s.shards[i].BulkLoad(parts[i]) }
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
func (s *Index) partition(entries []index.Entry) [][]index.Entry {
	parts := make([][]index.Entry, len(s.shards))
	lo := 0
	for i := range s.shards {
		hi := len(entries)
		if i+1 < len(s.shards) {
			hi = lo + sortSearchEntries(entries[lo:], s.router.LowerBound(i+1))
		}
		parts[i] = entries[lo:hi]
		lo = hi
	}
	return parts
}
