package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mets/internal/keycodec"
	"mets/internal/keys"
	"mets/internal/obs"
)

// ErrClosed is returned by writes against a closed DB.
var ErrClosed = errors.New("lsm: db closed")

// Config tunes the engine.
type Config struct {
	// MemTableBytes triggers a flush to level 0 (default 4 MB as in
	// RocksDB's description in §4.2).
	MemTableBytes int64
	// BlockSize is the SSTable block payload size (default 4096).
	BlockSize int
	// L0CompactionTrigger is the number of level-0 tables that triggers
	// compaction into level 1 (default 4).
	L0CompactionTrigger int
	// LevelSizeMultiplier is the per-level size ratio (default 10).
	LevelSizeMultiplier int
	// TargetTableBytes caps individual tables at levels >= 1 (default 2 MB).
	TargetTableBytes int64
	// Filter builds per-table filters at flush/compaction time; nil = none.
	Filter FilterBuilder
	// BlockCacheBytes caps the block cache, charged serialized block bytes
	// (default 8 MB).
	BlockCacheBytes int64
	// IOLatency is charged per block fetch that misses the cache,
	// simulating the SSD of §4.4 (default 0: count only).
	IOLatency time.Duration
	// BackgroundCompaction moves flushes and compactions off the write path:
	// a full MemTable is sealed into an immutable sibling (at most one, with
	// cond-var backpressure) and flushed by a background goroutine, which in
	// turn hands level maintenance to a single background compactor. Reads
	// and writes proceed concurrently; call WaitIdle for a barrier. Off by
	// default, which keeps flush/compaction inline and deterministic for the
	// I/O-counting experiments.
	BackgroundCompaction bool
	// Codec, when set (and not the identity), stores keys in encoded space:
	// they are encoded once at the Put/Delete/Get/Seek/Count boundary, so
	// MemTable, blocks, fence keys, and filters all hold encoded keys
	// (filters built by Config.Filter therefore index encoded keys — pair
	// with SuRFFilterBuilderWithCodec so marshaled filters stay
	// self-describing). Seek decodes the winning key on emit. Open reads the
	// codec once: a DB holds keys of one codec for its whole life.
	Codec keycodec.Codec
	// Obs attaches the engine to a metrics registry under an "lsm." prefix:
	// I/O and filter-effectiveness gauges (including a live point-lookup FPR
	// derived from false positives vs filter negatives), MemTable/backlog
	// gauges, and a span per flush and per compaction job in the registry's
	// flight recorder. Nil disables instrumentation.
	Obs *obs.Registry
}

// DefaultConfig returns the §4.4-style configuration.
func DefaultConfig() Config {
	return Config{
		MemTableBytes:       4 << 20,
		BlockSize:           4096,
		L0CompactionTrigger: 4,
		LevelSizeMultiplier: 10,
		TargetTableBytes:    2 << 20,
		BlockCacheBytes:     8 << 20,
	}
}

// Stats counts simulated I/O. The counters are incremented atomically (reads
// happen under the shared read lock); read them when the DB is quiescent —
// single-threaded use, or after WaitIdle with no readers active.
type Stats struct {
	BlockReads      int64 // block fetches that missed the cache ("I/O")
	CacheHits       int64
	FilterNegatives int64 // I/Os avoided by a filter
	// FilterFalsePositives counts point lookups where a table's filter
	// passed but the block probe found no record — the numerator of the
	// live FPR gauge (denominator: FilterNegatives + FilterFalsePositives,
	// since filters have no false negatives).
	FilterFalsePositives int64
	Flushes              int64
	Compactions          int64
}

// DB is the storage engine. It supports any number of concurrent readers
// (Get, Seek, Count and the size accessors) plus a single writer at a time
// (Put, Delete, Flush) behind a readers-writer lock; see
// Config.BackgroundCompaction for the non-blocking maintenance path.
type DB struct {
	cfg Config

	mu sync.RWMutex
	// bgCond (on the write side of mu) is broadcast whenever background
	// state changes: the immutable MemTable slot clears or the compactor
	// goes idle.
	bgCond *sync.Cond

	mem *memTable
	// imm is the sealed MemTable currently being flushed by a background
	// goroutine; nil when no flush is in flight. Immutable while set.
	imm        *memTable
	levels     [][]*SSTable // levels[0] newest-last; levels >= 1 sorted by minKey, disjoint
	compacting bool         // a background compactor is running
	bg         sync.WaitGroup

	nextID atomic.Uint64
	cache  *blockCache
	Stats  Stats
	obs    *obs.Registry       // nil when Config.Obs is nil
	fr     *obs.FlightRecorder // Config.Obs's recorder; nil (no-op) without one

	codec keycodec.Codec // nil when identity: keys stored raw

	// err (under mu) is the sticky first failure — a filter build that
	// failed, or ErrClosed; once set, every write returns it.
	err error
}

// Open creates an empty DB.
func Open(cfg Config) *DB {
	def := DefaultConfig()
	if cfg.MemTableBytes == 0 {
		cfg.MemTableBytes = def.MemTableBytes
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = def.BlockSize
	}
	if cfg.L0CompactionTrigger == 0 {
		cfg.L0CompactionTrigger = def.L0CompactionTrigger
	}
	if cfg.LevelSizeMultiplier == 0 {
		cfg.LevelSizeMultiplier = def.LevelSizeMultiplier
	}
	if cfg.TargetTableBytes == 0 {
		cfg.TargetTableBytes = def.TargetTableBytes
	}
	if cfg.BlockCacheBytes == 0 {
		cfg.BlockCacheBytes = def.BlockCacheBytes
	}
	db := &DB{
		cfg:   cfg,
		mem:   newMemTable(),
		cache: newBlockCache(cfg.BlockCacheBytes),
		fr:    cfg.Obs.FlightRecorder(),
	}
	if !keycodec.IsIdentity(cfg.Codec) {
		db.codec = keycodec.Instrument(cfg.Codec, cfg.Obs)
	}
	db.bgCond = sync.NewCond(&db.mu)
	if cfg.Obs != nil {
		r := cfg.Obs.Sub("lsm.")
		db.obs = r
		stat := func(p *int64) func() float64 {
			return func() float64 { return float64(atomic.LoadInt64(p)) }
		}
		r.GaugeFunc("block_reads", stat(&db.Stats.BlockReads))
		r.GaugeFunc("cache_hits", stat(&db.Stats.CacheHits))
		r.GaugeFunc("filter_negatives", stat(&db.Stats.FilterNegatives))
		r.GaugeFunc("filter_false_positives", stat(&db.Stats.FilterFalsePositives))
		r.GaugeFunc("flushes", stat(&db.Stats.Flushes))
		r.GaugeFunc("compactions", stat(&db.Stats.Compactions))
		r.GaugeFunc("filter_fpr", func() float64 {
			fp := atomic.LoadInt64(&db.Stats.FilterFalsePositives)
			tn := atomic.LoadInt64(&db.Stats.FilterNegatives)
			if fp+tn == 0 {
				return 0
			}
			return float64(fp) / float64(fp+tn)
		})
		r.GaugeFunc("mem_bytes", func() float64 {
			db.mu.RLock()
			defer db.mu.RUnlock()
			return float64(db.mem.bytes)
		})
		// imm_pending exposes the flush backlog: 1 while a sealed MemTable
		// waits on (or is being) flushed, when writers may hit backpressure.
		r.GaugeFunc("imm_pending", func() float64 {
			db.mu.RLock()
			defer db.mu.RUnlock()
			if db.imm != nil {
				return 1
			}
			return 0
		})
		r.GaugeFunc("levels", func() float64 { return float64(db.NumLevels()) })
		r.GaugeFunc("disk_bytes", func() float64 { return float64(db.DiskUsage()) })
	}
	return db
}

// encodeKey maps key into the DB's stored key space (no-op without a
// codec). The codec is frozen, so encoding needs no lock.
func (db *DB) encodeKey(key []byte) []byte {
	if db.codec == nil {
		return key
	}
	return db.codec.Encode(key)
}

// encodeBound maps a range bound into stored key space, preserving nil
// (open bound). Encoding is strictly monotone, so encoded bounds select
// exactly the encodings of the raw keys the raw bounds would select.
func (db *DB) encodeBound(b []byte) []byte {
	if db.codec == nil || b == nil {
		return b
	}
	return db.codec.EncodeBound(b)
}

// Codec returns the DB's key codec (nil when keys are stored raw).
func (db *DB) Codec() keycodec.Codec { return db.codec }

// Put inserts or overwrites a record. The error is the DB's sticky failure
// (Err): a filter build that failed in a flush or compaction, or ErrClosed.
func (db *DB) Put(key, value []byte) error {
	key = db.encodeKey(key)
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.err != nil {
		return db.err
	}
	db.mem.put(key, value)
	return db.maybeFlushLocked()
}

// tombstoneMarker is the value stored for deleted keys until compaction
// drops them. Values are length-prefixed in blocks, so a nil-vs-marker
// distinction needs an out-of-band convention: user values are stored with
// a 1-byte 0x01 prefix, tombstones as the single byte 0x00. The prefix is
// added in put/encode paths and stripped on every read.
var tombstoneMarker = []byte{0}

func isTombstone(stored []byte) bool { return len(stored) == 1 && stored[0] == 0 }

// userValue strips the live-record tag.
func userValue(stored []byte) []byte { return stored[1:] }

// Delete removes key by writing a tombstone; the space is reclaimed when a
// compaction merges the tombstone past the key's last live version. The
// error is the sticky failure, as for Put.
func (db *DB) Delete(key []byte) error {
	key = db.encodeKey(key)
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.err != nil {
		return db.err
	}
	db.mem.putRaw(key, tombstoneMarker)
	return db.maybeFlushLocked()
}

// maybeFlushLocked checks the MemTable size trigger after a write.
func (db *DB) maybeFlushLocked() error {
	if db.mem.bytes < db.cfg.MemTableBytes {
		return nil
	}
	if !db.cfg.BackgroundCompaction {
		return db.flushLocked()
	}
	// Backpressure: with an immutable MemTable already in flight, wait for
	// the flusher rather than stacking sealed tables. Wait releases the
	// lock, so another writer may seal (or drain) the MemTable meanwhile.
	for db.imm != nil {
		if db.err != nil {
			return db.err
		}
		if db.mem.bytes < db.cfg.MemTableBytes {
			return nil
		}
		db.bgCond.Wait()
	}
	db.sealLocked()
	return nil
}

// sealLocked moves the MemTable into the immutable slot (which must be
// free) and hands it to a background flusher.
func (db *DB) sealLocked() {
	if db.mem.bytes == 0 {
		return
	}
	// The flush span starts at the seal: its ID is the causal handle linking
	// the built table and any compaction the flush triggers.
	sp := db.obs.StartSpan("flush")
	sp.Phase("seal")
	db.fr.RecordSpan("flush.seal", sp.ID(), obs.I64("mem_bytes", db.mem.bytes))
	db.imm = db.mem
	db.mem = newMemTable()
	db.bg.Add(1)
	go db.flushWorker(db.imm, sp)
}

// Flush forces the MemTable to level 0. With background compaction enabled
// it is a full barrier: it returns once the flush and any triggered
// compactions have settled.
func (db *DB) Flush() error {
	db.mu.Lock()
	if !db.cfg.BackgroundCompaction {
		defer db.mu.Unlock()
		if db.err != nil {
			return db.err
		}
		return db.flushLocked()
	}
	for db.imm != nil && db.err == nil {
		db.bgCond.Wait()
	}
	if db.err == nil {
		db.sealLocked()
	}
	db.mu.Unlock()
	db.WaitIdle()
	return db.Err()
}

// WaitIdle blocks until no background flush or compaction is in flight (or
// the DB has failed). The level shape and Stats are stable afterwards
// (until the next write).
func (db *DB) WaitIdle() {
	db.mu.Lock()
	for (db.imm != nil || db.compacting) && db.err == nil {
		db.bgCond.Wait()
	}
	db.mu.Unlock()
}

// flushLocked is the inline (foreground) flush + compaction path. The
// MemTable is replaced only once its table is built, so a failed build
// leaves its records readable.
func (db *DB) flushLocked() error {
	entries := db.mem.sorted()
	if len(entries) == 0 {
		return nil
	}
	sp := db.obs.StartSpan("flush")
	defer sp.End()
	sp.Phase("seal")
	db.fr.RecordSpan("flush.seal", sp.ID(), obs.I64("entries", int64(len(entries))))
	sp.Phase("build")
	t, err := db.buildTable(entries)
	if err != nil {
		return db.failLocked(err)
	}
	sp.Phase("install")
	db.mem = newMemTable()
	db.installFlushedLocked(t)
	db.fr.RecordSpan("flush.commit", sp.ID(), obs.I64("table", int64(t.id)))
	return db.compactUntilCleanLocked(sp.ID())
}

// flushWorker builds the SSTable from the sealed MemTable off-lock, installs
// it under a short write lock, and kicks the compactor if needed. A failed
// build leaves the immutable MemTable in place (reads keep seeing its
// records) and marks the DB failed.
func (db *DB) flushWorker(imm *memTable, sp *obs.Span) {
	defer db.bg.Done()
	sp.Phase("build")
	t, err := db.buildTable(imm.sorted())
	sp.Phase("install")
	db.mu.Lock()
	if err != nil {
		db.failLocked(err)
	} else {
		db.installFlushedLocked(t)
		db.fr.RecordSpan("flush.commit", sp.ID(), obs.I64("table", int64(t.id)))
		db.imm = nil
		if !db.compacting && db.hasCompactionWorkLocked() {
			db.compacting = true
			db.bg.Add(1)
			// The compactor's spans are parented to the flush that woke it.
			go db.compactWorker(sp.ID())
		}
		db.bgCond.Broadcast()
	}
	db.mu.Unlock()
	sp.End()
}

// buildTable builds one table; only its filter build can fail.
func (db *DB) buildTable(entries []Entry) (*SSTable, error) {
	t, err := buildSSTable(db.nextID.Add(1)-1, entries, db.cfg.BlockSize, db.cfg.Filter)
	if err != nil {
		return nil, fmt.Errorf("lsm: filter build: %w", err)
	}
	return t, nil
}

func (db *DB) installFlushedLocked(t *SSTable) {
	if len(db.levels) == 0 {
		db.levels = append(db.levels, nil)
	}
	db.levels[0] = append(db.levels[0], t)
	atomic.AddInt64(&db.Stats.Flushes, 1)
}

// readBlock fetches one serialized block, consulting the cache; callers read
// it in place with a blockReader. A miss is the simulated disk read: it is
// counted (and charged Config.IOLatency) and caches the table's own block.
// Callers hold at least the read lock; the cache has its own mutex.
func (db *DB) readBlock(t *SSTable, idx int) []byte {
	if raw := db.cache.get(t.id, idx); raw != nil {
		atomic.AddInt64(&db.Stats.CacheHits, 1)
		return raw
	}
	atomic.AddInt64(&db.Stats.BlockReads, 1)
	if db.cfg.IOLatency > 0 {
		time.Sleep(db.cfg.IOLatency)
	}
	raw := t.blocks[idx]
	db.cache.put(t.id, idx, raw, int64(len(raw)))
	return raw
}

// memGet resolves key against the mutable then the immutable MemTable.
func (db *DB) memGet(key []byte) ([]byte, bool) {
	if v, ok := db.mem.get(key); ok {
		return v, true
	}
	if db.imm != nil {
		return db.imm.get(key)
	}
	return nil, false
}

// Get returns the value stored under key (Fig 4.3 left path). Tombstones
// shadow older versions across all levels.
func (db *DB) Get(key []byte) ([]byte, bool) {
	key = db.encodeKey(key)
	db.mu.RLock()
	defer db.mu.RUnlock()
	if v, ok := db.memGet(key); ok {
		if isTombstone(v) {
			return nil, false
		}
		return userValue(v), true
	}
	probe := func(t *SSTable) ([]byte, bool, bool) {
		if keys.Compare(key, t.minKey) < 0 || keys.Compare(key, t.maxKey) > 0 {
			return nil, false, false
		}
		filtered := t.filter != nil
		if filtered && !t.filter.Lookup(key) {
			atomic.AddInt64(&db.Stats.FilterNegatives, 1)
			return nil, false, false
		}
		b := t.blockFor(key)
		if b < 0 {
			if filtered {
				atomic.AddInt64(&db.Stats.FilterFalsePositives, 1)
			}
			return nil, false, false
		}
		v, ok := blockGet(db.readBlock(t, b), key)
		if filtered && !ok {
			atomic.AddInt64(&db.Stats.FilterFalsePositives, 1)
		}
		return v, ok, true
	}
	if len(db.levels) > 0 {
		l0 := db.levels[0]
		for i := len(l0) - 1; i >= 0; i-- { // newest first
			if v, ok, _ := probe(l0[i]); ok {
				if isTombstone(v) {
					return nil, false
				}
				return userValue(v), true
			}
		}
	}
	for l := 1; l < len(db.levels); l++ {
		tables := db.levels[l]
		i := sort.Search(len(tables), func(i int) bool {
			return keys.Compare(tables[i].maxKey, key) >= 0
		})
		if i < len(tables) {
			if v, ok, _ := probe(tables[i]); ok {
				if isTombstone(v) {
					return nil, false
				}
				return userValue(v), true
			}
		}
	}
	return nil, false
}

// seekCandidate is one source in the Seek merge.
type seekCandidate struct {
	key   []byte
	value []byte
	table *SSTable
	exact bool // key/value read from a block (or the MemTable)
	prio  int  // version order: MemTable > newer L0 > older L0 > L1 > L2 ...
}

// candLess orders candidates for resolution: by key; on ties approximate
// candidates first (they must be resolved before an exact winner can be
// declared), then newer sources first.
func candLess(a, b *seekCandidate) bool {
	if c := keys.Compare(a.key, b.key); c != 0 {
		return c < 0
	}
	if a.exact != b.exact {
		return !a.exact
	}
	return a.prio > b.prio
}

// Seek returns the smallest record with key >= lo and (when hi != nil)
// key < hi, following the Fig 4.3 Seek path: with SuRF filters, candidate
// keys come from the filters and only the winning table's block is fetched;
// a closed seek whose candidates all fall past hi costs no I/O.
// With a codec the whole candidate resolution runs in encoded space (filter
// candidates, fence keys, and blocks all hold encoded keys) and only the
// winning key is decoded on emit.
func (db *DB) Seek(lo, hi []byte) (Entry, bool) {
	lo, hi = db.encodeBound(lo), db.encodeBound(hi)
	db.mu.RLock()
	defer db.mu.RUnlock()
	// A seek that lands on a tombstone restarts past it; iterate instead of
	// recursing so the read lock is taken once.
	for lo != nil {
		e, ok, next := db.seekOnceLocked(lo, hi)
		if next == nil {
			if ok && db.codec != nil {
				e.Key = db.codec.Decode(e.Key)
			}
			return e, ok
		}
		lo = next
	}
	return Entry{}, false
}

// seekOnceLocked performs one candidate-resolution pass. A non-nil next
// means the winner was a tombstone and the search must restart at next.
func (db *DB) seekOnceLocked(lo, hi []byte) (Entry, bool, []byte) {
	var cands []seekCandidate
	if k, v, ok := db.mem.seek(lo); ok {
		cands = append(cands, seekCandidate{key: k, value: v, exact: true, prio: 1 << 30})
	}
	if db.imm != nil {
		if k, v, ok := db.imm.seek(lo); ok {
			cands = append(cands, seekCandidate{key: k, value: v, exact: true, prio: 1<<30 - 1})
		}
	}
	addTable := func(t *SSTable, prio int) {
		if !t.overlaps(lo, nil) {
			return
		}
		if t.filter != nil {
			c, _, ok := t.filter.SeekCandidate(lo)
			if !ok {
				atomic.AddInt64(&db.Stats.FilterNegatives, 1)
				return
			}
			cands = append(cands, seekCandidate{key: c, table: t, prio: prio})
			return
		}
		cands = append(cands, seekCandidate{key: t.minKey, table: t, prio: prio})
	}
	if len(db.levels) > 0 {
		for i, t := range db.levels[0] {
			addTable(t, 1000+i) // newer level-0 tables shadow older ones
		}
	}
	for l := 1; l < len(db.levels); l++ {
		tables := db.levels[l]
		i := sort.Search(len(tables), func(i int) bool {
			return keys.Compare(tables[i].maxKey, lo) >= 0
		})
		if i < len(tables) {
			addTable(tables[i], -l)
		}
	}
	// Resolve: repeatedly take the first candidate in (key, approx-first,
	// newest-first) order. An approximate candidate at the front must be
	// replaced by the exact first-match from its table's block; once the
	// front is exact, every other source's key is strictly greater (their
	// truncated keys lower-bound their true keys), so it wins.
	for len(cands) > 0 {
		best := 0
		for i := 1; i < len(cands); i++ {
			if candLess(&cands[i], &cands[best]) {
				best = i
			}
		}
		c := cands[best]
		if c.exact {
			if hi != nil && keys.Compare(c.key, hi) >= 0 {
				return Entry{}, false, nil
			}
			if isTombstone(c.value) {
				// The newest version of this key is a delete: restart at its
				// immediate successor, suppressing older versions in other
				// tables (Successor would also skip live keys that extend
				// the deleted one).
				return Entry{}, false, keys.Next(c.key)
			}
			return Entry{Key: c.key, Value: userValue(c.value)}, true, nil
		}
		// Candidate keys from filters are truncated: when the candidate
		// already sorts at or past hi, only a prefix of hi can still hide a
		// boundary false positive (§4.2); check cheaply before an I/O.
		if hi != nil && keys.Compare(c.key, hi) >= 0 && !bytes.HasPrefix(hi, c.key) {
			cands = append(cands[:best], cands[best+1:]...)
			continue
		}
		// Fetch the table's exact first record >= lo.
		e, ok := db.tableSeek(c.table, lo)
		if !ok {
			cands = append(cands[:best], cands[best+1:]...)
			continue
		}
		cands[best] = seekCandidate{key: e.Key, value: e.Value, exact: true, prio: c.prio}
	}
	return Entry{}, false, nil
}

// tableSeek reads the first record with key >= lo from t.
func (db *DB) tableSeek(t *SSTable, lo []byte) (Entry, bool) {
	b := t.blockFor(lo)
	if b < 0 {
		if keys.Compare(lo, t.minKey) < 0 {
			b = 0
		} else {
			return Entry{}, false
		}
	}
	for ; b < t.numBlocks(); b++ {
		r := blockReader{raw: db.readBlock(t, b)}
		if r.seek(lo) {
			return Entry{Key: r.key, Value: r.value}, true
		}
	}
	return Entry{}, false
}

// Count approximates the number of records in [lo, hi]: with counting
// filters it is pure in-memory work (plus the MemTable); otherwise blocks
// are scanned (Fig 4.3 right path).
func (db *DB) Count(lo, hi []byte) int {
	lo, hi = db.encodeBound(lo), db.encodeBound(hi)
	db.mu.RLock()
	defer db.mu.RUnlock()
	total := db.mem.count(lo, hi)
	if db.imm != nil {
		total += db.imm.count(lo, hi)
	}
	each := func(t *SSTable) {
		if !t.overlaps(lo, hi) {
			return
		}
		if t.filter != nil {
			if n, ok := t.filter.Count(lo, hi); ok {
				total += n
				return
			}
		}
		for b := t.blockFor(lo); b >= 0 && b < t.numBlocks(); b++ {
			r := blockReader{raw: db.readBlock(t, b)}
			for ok := r.seek(lo); ok; ok = r.next() {
				if keys.Compare(r.key, hi) > 0 {
					return
				}
				if !isTombstone(r.value) {
					total++
				}
			}
		}
	}
	if len(db.levels) > 0 {
		for _, t := range db.levels[0] {
			each(t)
		}
	}
	for l := 1; l < len(db.levels); l++ {
		for _, t := range db.levels[l] {
			each(t)
		}
	}
	return total
}

// compactJob is one unit of level maintenance, picked under the lock and
// executed (merge + table build) without it: every input table is immutable,
// and the target level is only ever mutated by the single compactor.
type compactJob struct {
	srcLevel int
	inputs   []*SSTable // tables leaving srcLevel (for L0: the whole level at pick time)
	merge    []*SSTable // overlapping tables at srcLevel+1 folded into the merge
	keep     []*SSTable // srcLevel+1 tables carried over untouched
	bottom   bool       // output is the bottom level: drop tombstones
}

// hasCompactionWorkLocked reports whether any shape invariant is violated.
func (db *DB) hasCompactionWorkLocked() bool {
	if len(db.levels) > 0 && len(db.levels[0]) >= db.cfg.L0CompactionTrigger {
		return true
	}
	for l := 1; l < len(db.levels); l++ {
		if db.levelBytes(l) > db.levelTarget(l) {
			return true
		}
	}
	return false
}

// pickCompactionLocked selects the next compaction: level 0 first, then the
// first oversized level. Returns nil when the shape invariants hold.
func (db *DB) pickCompactionLocked() *compactJob {
	if len(db.levels) > 0 && len(db.levels[0]) >= db.cfg.L0CompactionTrigger {
		job := &compactJob{srcLevel: 0, inputs: append([]*SSTable(nil), db.levels[0]...)}
		var lo, hi []byte
		for _, t := range job.inputs {
			if lo == nil || keys.Compare(t.minKey, lo) < 0 {
				lo = t.minKey
			}
			if hi == nil || keys.Compare(t.maxKey, hi) > 0 {
				hi = t.maxKey
			}
		}
		if len(db.levels) > 1 {
			for _, t := range db.levels[1] {
				if t.overlaps(lo, hi) {
					job.merge = append(job.merge, t)
				} else {
					job.keep = append(job.keep, t)
				}
			}
		}
		job.bottom = len(db.levels) <= 2 || len(db.levels[2]) == 0
		atomic.AddInt64(&db.Stats.Compactions, 1)
		return job
	}
	for l := 1; l < len(db.levels); l++ {
		if db.levelBytes(l) <= db.levelTarget(l) {
			continue
		}
		t := db.levels[l][0]
		job := &compactJob{srcLevel: l, inputs: []*SSTable{t}}
		if l+1 < len(db.levels) {
			for _, u := range db.levels[l+1] {
				if u.overlaps(t.minKey, t.maxKey) {
					job.merge = append(job.merge, u)
				} else {
					job.keep = append(job.keep, u)
				}
			}
		}
		job.bottom = l+2 >= len(db.levels) || len(db.levels[l+2]) == 0
		atomic.AddInt64(&db.Stats.Compactions, 1)
		return job
	}
	return nil
}

// executeJob merges the job's inputs and builds the output tables. L0 inputs
// are newest-last, so later tables correctly win on duplicate keys.
func (db *DB) executeJob(job *compactJob) ([]*SSTable, error) {
	return db.splitIntoTables(mergeTables(append(append([]*SSTable(nil), job.merge...), job.inputs...), job.bottom))
}

// installLocked swaps the job's output into the level structure. Tables
// flushed to L0 while an L0 job was merging sit after the consumed prefix
// and survive the swap.
func (db *DB) installLocked(job *compactJob, out []*SSTable) {
	if job.srcLevel == 0 {
		db.levels[0] = append([]*SSTable(nil), db.levels[0][len(job.inputs):]...)
	} else {
		db.levels[job.srcLevel] = db.levels[job.srcLevel][1:]
	}
	for len(db.levels) <= job.srcLevel+1 {
		db.levels = append(db.levels, nil)
	}
	db.levels[job.srcLevel+1] = sortTables(append(append([]*SSTable(nil), job.keep...), out...))
}

// compactUntilCleanLocked runs compactions inline until the shape invariants
// hold (the foreground path). parent links the compaction spans and events to
// the flush that triggered them (0 for none).
func (db *DB) compactUntilCleanLocked(parent uint64) error {
	for {
		job := db.pickCompactionLocked()
		if job == nil {
			return nil
		}
		sp := db.obs.StartSpanChild("compaction", parent)
		sp.Phase("merge")
		out, err := db.executeJob(job)
		if err != nil {
			sp.End()
			return db.failLocked(err)
		}
		sp.Phase("install")
		db.installLocked(job, out)
		db.recordCompaction(sp.ID(), job, out)
		sp.End()
	}
}

// recordCompaction emits an installed compaction's commit event, linked to
// its span (whose record, with the merge and install durations, follows).
func (db *DB) recordCompaction(span uint64, job *compactJob, out []*SSTable) {
	db.fr.RecordSpan("compaction.commit", span,
		obs.I64("src_level", int64(job.srcLevel)),
		obs.I64("inputs", int64(len(job.inputs)+len(job.merge))),
		obs.I64("outputs", int64(len(out))))
}

// compactWorker is the single background compactor: it picks a job under
// the lock, merges off-lock while readers and the writer proceed, installs
// the result under a short lock, and repeats until the shape is clean.
// parent is the span ID of the flush that woke it.
func (db *DB) compactWorker(parent uint64) {
	defer db.bg.Done()
	for {
		db.mu.Lock()
		job := db.pickCompactionLocked()
		if job == nil {
			db.compacting = false
			db.bgCond.Broadcast()
			db.mu.Unlock()
			return
		}
		db.mu.Unlock()
		sp := db.obs.StartSpanChild("compaction", parent)
		sp.Phase("merge")
		out, err := db.executeJob(job)
		sp.Phase("install")
		db.mu.Lock()
		if err != nil {
			db.failLocked(err)
			db.compacting = false
			db.bgCond.Broadcast()
			db.mu.Unlock()
			sp.End()
			return
		}
		db.installLocked(job, out)
		db.recordCompaction(sp.ID(), job, out)
		db.mu.Unlock()
		sp.End()
	}
}

func (db *DB) levelBytes(l int) int64 {
	var m int64
	for _, t := range db.levels[l] {
		m += t.DiskUsage()
	}
	return m
}

func (db *DB) levelTarget(l int) int64 {
	t := int64(10) << 20 // level 1 target: 10 MB
	for i := 1; i < l; i++ {
		t *= int64(db.cfg.LevelSizeMultiplier)
	}
	return t
}

// mergeTables merges tables (later tables win on equal keys) without
// charging I/O: compaction reads are sequential background work, not the
// foreground I/O the experiments count. When the output is the bottom
// level, tombstones are garbage-collected.
func mergeTables(tables []*SSTable, dropTombstones bool) []Entry {
	var all []Entry
	seen := make(map[string]int)
	for _, t := range tables {
		for _, raw := range t.blocks {
			for r := (blockReader{raw: raw}); r.next(); {
				e := Entry{Key: r.key, Value: r.value}
				if i, ok := seen[string(e.Key)]; ok {
					all[i] = e
					continue
				}
				seen[string(e.Key)] = len(all)
				all = append(all, e)
			}
		}
	}
	if dropTombstones {
		live := all[:0]
		for _, e := range all {
			if !isTombstone(e.Value) {
				live = append(live, e)
			}
		}
		all = live
	}
	sort.Slice(all, func(i, j int) bool { return keys.Compare(all[i].Key, all[j].Key) < 0 })
	return all
}

func (db *DB) splitIntoTables(entries []Entry) ([]*SSTable, error) {
	var out []*SSTable
	var size int64
	start := 0
	for i, e := range entries {
		size += int64(len(e.Key) + len(e.Value))
		if size >= db.cfg.TargetTableBytes || i == len(entries)-1 {
			t, err := db.buildTable(entries[start : i+1])
			if err != nil {
				return nil, err
			}
			out = append(out, t)
			start = i + 1
			size = 0
		}
	}
	return out, nil
}

func sortTables(ts []*SSTable) []*SSTable {
	sort.Slice(ts, func(i, j int) bool { return keys.Compare(ts[i].minKey, ts[j].minKey) < 0 })
	return ts
}

// NumLevels returns the number of levels currently in use.
func (db *DB) NumLevels() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.levels)
}

// TablesAt returns the number of tables at level l.
func (db *DB) TablesAt(l int) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if l >= len(db.levels) {
		return 0
	}
	return len(db.levels[l])
}

// FilterMemory totals the resident filter bytes.
func (db *DB) FilterMemory() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var m int64
	for _, level := range db.levels {
		for _, t := range level {
			if t.filter != nil {
				m += t.filter.MemoryUsage()
			}
		}
	}
	return m
}

// DiskUsage totals serialized table bytes.
func (db *DB) DiskUsage() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var m int64
	for _, level := range db.levels {
		for _, t := range level {
			m += t.DiskUsage()
		}
	}
	return m
}

// ResetStats clears the I/O counters; call it only on a quiescent DB.
func (db *DB) ResetStats() {
	db.mu.Lock()
	db.Stats = Stats{}
	db.mu.Unlock()
}

// failLocked records the first failure; every later write observes it, and
// waiters on bgCond wake to see it.
func (db *DB) failLocked(err error) error {
	if db.err == nil {
		db.err = err
		db.fr.Record("lsm.error", obs.Str("err", err.Error()))
	}
	db.bgCond.Broadcast()
	return err
}

// Err returns the DB's sticky failure, if any.
func (db *DB) Err() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.err
}

// Close waits for background flushes and compactions to settle and marks
// the DB closed: later writes return ErrClosed, reads keep serving. It
// returns the failure the DB had before closing, if any.
func (db *DB) Close() error {
	db.bg.Wait()
	db.mu.Lock()
	defer db.mu.Unlock()
	if errors.Is(db.err, ErrClosed) {
		return nil
	}
	first := db.err
	if first == nil {
		db.err = ErrClosed
	}
	return first
}
