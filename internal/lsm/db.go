package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"path"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mets/internal/keycodec"
	"mets/internal/keys"
	"mets/internal/obs"
	"mets/internal/reconfig"
	"mets/internal/vfs"
	"mets/internal/wal"
)

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
	// self-describing). Seek decodes the winning key on emit. The codec is
	// frozen for the DB's lifetime; every SSTable is stamped with its ID and
	// compactions refuse to merge tables from different codec generations.
	Codec keycodec.Codec
	// Obs attaches the engine to a metrics registry under an "lsm." prefix:
	// I/O and filter-effectiveness gauges (including a live point-lookup FPR
	// derived from false positives vs filter negatives), MemTable/backlog
	// gauges, and a span per background flush and per compaction job. Nil
	// disables instrumentation. The durable engine adds "wal." counters
	// (appends, bytes, fsyncs, rotations, a group-commit latency histogram)
	// and a "recovery" span on open.
	Obs *obs.Registry
	// Dir, when non-empty, makes the engine durable: writes go through a
	// write-ahead log in Dir (group-committed, fsynced per WALSync),
	// SSTables persist as checksummed files, and OpenDurable recovers the
	// exact acked state after a crash. Empty keeps the historical in-memory
	// engine. Use OpenDurable to open with a Dir; Put/Delete/Flush report
	// I/O errors through their error returns.
	Dir string
	// FS is the filesystem under Dir (default the real OS). Tests inject
	// vfs.MemFS to simulate crashes and corruption.
	FS vfs.FS
	// WALSync is the WAL ack durability contract (default wal.SyncEach: an
	// acked write survives any crash). See wal.SyncMode.
	WALSync wal.SyncMode
	// WALSegmentBytes is the WAL rotation threshold (default 4 MB).
	WALSegmentBytes int64
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
	obs    *obs.Registry // nil when Config.Obs is nil
	// fr is the always-on flight recorder (shared with Config.Obs's when a
	// registry is attached, private otherwise): the ring of lifecycle events
	// dumped as <dir>/flightrec.json on recovery, sticky failure, and close.
	fr *obs.FlightRecorder
	// quarantined counts table files renamed aside as *.corrupt (recovery
	// increments it; the lsm.quarantined gauge reads it).
	quarantined atomic.Int64

	codec   keycodec.Codec // nil when identity: keys stored raw
	codecID string         // stamped into every SSTable this DB builds

	// seam routes manifest commits through the shared reconfiguration
	// pipeline (publication counters, the "manifest.commit" event): each
	// commit is a generation publication of the durable tree shape.
	seam *reconfig.Seam

	// dur is non-nil for a durable DB (Config.Dir set); durErr (under mu)
	// is the sticky first hard failure — once set, every write returns it.
	dur    *durableState
	durErr error
	// Recovery describes what OpenDurable found on disk; informational.
	Recovery RecoveryStats
}

// Open creates a DB, panicking on error — the historical constructor, fine
// for in-memory use where opening cannot fail. Durable callers (Config.Dir
// set) should prefer OpenDurable, whose recovery can legitimately fail.
func Open(cfg Config) *DB {
	db, err := OpenDurable(cfg)
	if err != nil {
		panic("lsm: open: " + err.Error())
	}
	return db
}

// OpenDurable creates a DB; with Config.Dir set it first recovers the
// on-disk state: manifest, table files (corrupt ones quarantined as
// *.corrupt rather than failing the open), orphan GC, then WAL replay into
// the memtable — stopping at a torn tail, which under the crash model is
// never behind an acked write.
func OpenDurable(cfg Config) (*DB, error) {
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
		cfg:     cfg,
		mem:     newMemTable(),
		cache:   newBlockCache(cfg.BlockCacheBytes),
		codecID: keycodec.IdentityID,
	}
	if !keycodec.IsIdentity(cfg.Codec) {
		db.codec = keycodec.Instrument(cfg.Codec, cfg.Obs)
		db.codecID = cfg.Codec.ID()
	}
	db.bgCond = sync.NewCond(&db.mu)
	// The flight recorder is always on — a durable engine must leave a
	// postmortem even when nobody attached a registry. With a registry, share
	// its recorder so one dump covers every layer writing to it.
	if fr := cfg.Obs.FlightRecorder(); fr != nil {
		db.fr = fr
	} else {
		db.fr = obs.NewFlightRecorder(obs.DefaultFlightEvents)
	}
	db.seam = reconfig.New(reconfig.Options{
		Name:      "lsm.manifest",
		Obs:       cfg.Obs,
		FlightRec: db.fr,
	})
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
		// Durability health in every snapshot: quarantined table files are
		// no longer silent renames, and a sticky durable error shows up as a
		// flag any scraper can alert on.
		r.GaugeFunc("quarantined", func() float64 { return float64(db.quarantined.Load()) })
		r.GaugeFunc("durable_err", func() float64 {
			db.mu.RLock()
			defer db.mu.RUnlock()
			if db.durErr != nil && !errors.Is(db.durErr, ErrClosed) {
				return 1
			}
			return 0
		})
	}
	if cfg.Dir != "" {
		fs := cfg.FS
		if fs == nil {
			fs = vfs.OS{}
		}
		if err := db.recoverLocked(fs, cfg.Dir); err != nil {
			return nil, err
		}
	}
	return db, nil
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

// keyTag truncates an (encoded) key to a short exemplar tag. Non-UTF-8
// bytes are fine — JSON encoding escapes them.
func keyTag(key []byte) string {
	const n = 8
	if len(key) > n {
		key = key[:n]
	}
	return string(key)
}

// Put inserts or overwrites a record. On a durable DB the write is
// WAL-logged and the returned error is the durability verdict: nil means
// the record is acked per Config.WALSync (fsynced, by default) and will
// survive a crash. In-memory DBs always return nil.
//
// The record is applied to the memtable before the WAL ack resolves (so
// WAL order equals apply order under one lock hold). When the ack fails,
// the DB is marked failed — every later write returns the sticky error —
// but the never-durable record remains visible to this process's reads
// until restart. Callers that must not serve a failed write check Err()
// before trusting reads; after a restart the recovered state is exactly
// the acked prefix. See the read-your-failed-write note on Get.
func (db *DB) Put(key, value []byte) error {
	key = db.encodeKey(key)
	db.mu.Lock()
	if db.durErr != nil {
		err := db.durErr
		db.mu.Unlock()
		return err
	}
	var ack *wal.Ack
	if db.dur != nil {
		// Enqueue under mu so WAL order matches memtable apply order; the
		// blocking Wait happens after unlock (group commit runs elsewhere).
		// With a registry attached, tag the record with a key prefix so the
		// group-commit histogram's slow-op exemplar names a concrete op.
		if db.obs != nil {
			ack = db.dur.wal.EnqueueTagged(encodeWALPut(key, value), keyTag(key))
		} else {
			ack = db.dur.wal.Enqueue(encodeWALPut(key, value))
		}
	}
	db.mem.put(key, value)
	ferr := db.maybeFlushLocked()
	db.mu.Unlock()
	if ack != nil {
		if err := ack.Wait(); err != nil {
			db.fail(err)
			return err
		}
	}
	return ferr
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
// error is the durability verdict, as for Put.
func (db *DB) Delete(key []byte) error {
	key = db.encodeKey(key)
	db.mu.Lock()
	if db.durErr != nil {
		err := db.durErr
		db.mu.Unlock()
		return err
	}
	var ack *wal.Ack
	if db.dur != nil {
		if db.obs != nil {
			ack = db.dur.wal.EnqueueTagged(encodeWALDelete(key), keyTag(key))
		} else {
			ack = db.dur.wal.Enqueue(encodeWALDelete(key))
		}
	}
	db.mem.putRaw(key, tombstoneMarker)
	ferr := db.maybeFlushLocked()
	db.mu.Unlock()
	if ack != nil {
		if err := ack.Wait(); err != nil {
			db.fail(err)
			return err
		}
	}
	return ferr
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
		if db.durErr != nil {
			return db.durErr
		}
		if db.mem.bytes < db.cfg.MemTableBytes {
			return nil
		}
		db.bgCond.Wait()
	}
	return db.sealLocked()
}

// sealLocked rotates the WAL (durable mode: every logged record covering
// the sealed MemTable now sits in fsynced segments <= sealed), moves the
// MemTable into the immutable slot (which must be free), and hands it to a
// background flusher.
func (db *DB) sealLocked() error {
	if db.mem.bytes == 0 {
		return nil
	}
	// The flush span starts at the seal: its ID is the causal handle linking
	// the WAL rotation, the built table, the manifest commit, and any
	// compaction the flush triggers.
	sp := db.obs.StartSpan("flush")
	sp.Phase("seal")
	var sealed uint64
	if db.dur != nil {
		s, err := db.dur.wal.Rotate()
		if err != nil {
			sp.End()
			return db.failLocked(err)
		}
		sealed = s
	}
	db.fr.RecordSpan("flush.seal", sp.ID(),
		obs.I64("mem_bytes", db.mem.bytes), obs.I64("wal_sealed", int64(sealed)))
	db.imm = db.mem
	db.mem = newMemTable()
	db.bg.Add(1)
	go db.flushWorker(db.imm, sealed, sp)
	return nil
}

// Flush forces the MemTable to level 0. With background compaction enabled
// it is a full barrier: it returns once the flush and any triggered
// compactions have settled.
func (db *DB) Flush() error {
	if !db.cfg.BackgroundCompaction {
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.durErr != nil {
			return db.durErr
		}
		return db.flushLocked()
	}
	db.mu.Lock()
	for db.imm != nil && db.durErr == nil {
		db.bgCond.Wait()
	}
	if db.durErr != nil {
		err := db.durErr
		db.mu.Unlock()
		return err
	}
	err := db.sealLocked()
	db.mu.Unlock()
	if err != nil {
		return err
	}
	db.WaitIdle()
	db.mu.Lock()
	err = db.durErr
	db.mu.Unlock()
	return err
}

// WaitIdle blocks until no background flush or compaction is in flight (or
// the DB has failed). The level shape and Stats are stable afterwards
// (until the next write).
func (db *DB) WaitIdle() {
	db.mu.Lock()
	for (db.imm != nil || db.compacting) && db.durErr == nil {
		db.bgCond.Wait()
	}
	db.mu.Unlock()
}

// flushLocked is the inline (foreground) flush + compaction path.
func (db *DB) flushLocked() error {
	entries := db.mem.sorted()
	if len(entries) == 0 {
		return nil
	}
	sp := db.obs.StartSpan("flush")
	defer sp.End()
	sp.Phase("seal")
	var sealed uint64
	if db.dur != nil {
		s, err := db.dur.wal.Rotate()
		if err != nil {
			return db.failLocked(err)
		}
		sealed = s
	}
	db.fr.RecordSpan("flush.seal", sp.ID(),
		obs.I64("entries", int64(len(entries))), obs.I64("wal_sealed", int64(sealed)))
	db.mem = newMemTable()
	sp.Phase("build")
	t, err := db.buildTable(entries)
	if err != nil {
		return db.failLocked(err)
	}
	sp.Phase("install")
	db.installFlushedLocked(t)
	if db.dur != nil {
		// The memtable's covering segments (<= sealed) are no longer needed
		// once the table's membership is manifest-committed.
		if err := db.advanceWALLocked(sealed + 1); err != nil {
			return db.failLocked(err)
		}
	}
	db.fr.RecordSpan("flush.commit", sp.ID(),
		obs.I64("table", int64(t.id)), obs.I64("wal_min", int64(sealed+1)))
	return db.compactUntilCleanLocked(sp.ID())
}

// flushWorker builds the SSTable from the sealed MemTable off-lock, installs
// it under a short write lock, and kicks the compactor if needed. On a hard
// failure the immutable MemTable stays in place (reads keep seeing its
// records; recovery replays them from the sealed WAL segments) and the DB
// is marked failed.
func (db *DB) flushWorker(imm *memTable, sealed uint64, sp *obs.Span) {
	defer db.bg.Done()
	sp.Phase("build")
	t, err := db.buildTable(imm.sorted())
	sp.Phase("install")
	db.mu.Lock()
	if err == nil {
		db.installFlushedLocked(t)
		if db.dur != nil {
			err = db.advanceWALLocked(sealed + 1)
		}
	}
	if err != nil {
		db.failLocked(err)
		db.mu.Unlock()
		sp.End()
		return
	}
	db.fr.RecordSpan("flush.commit", sp.ID(),
		obs.I64("table", int64(t.id)), obs.I64("wal_min", int64(sealed+1)))
	db.imm = nil
	if !db.compacting && db.hasCompactionWorkLocked() {
		db.compacting = true
		db.bg.Add(1)
		// The compactor's spans are parented to the flush that woke it.
		go db.compactWorker(sp.ID())
	}
	db.bgCond.Broadcast()
	db.mu.Unlock()
	sp.End()
}

// buildTable builds (and, in durable mode, persists and fsyncs) one table.
func (db *DB) buildTable(entries []Entry) (*SSTable, error) {
	t, err := buildSSTable(db.nextID.Add(1)-1, entries, db.cfg.BlockSize, db.cfg.Filter)
	if err != nil {
		return nil, fmt.Errorf("lsm: filter build: %w", err)
	}
	t.codecID = db.codecID
	if db.dur == nil {
		return t, nil
	}
	return writeSSTableFile(db.dur.fs, db.dur.dir, t)
}

func (db *DB) installFlushedLocked(t *SSTable) {
	if len(db.levels) == 0 {
		db.levels = append(db.levels, nil)
	}
	db.levels[0] = append(db.levels[0], t)
	atomic.AddInt64(&db.Stats.Flushes, 1)
}

// readBlock fetches one serialized block, consulting the cache; callers read
// it in place with a blockReader. Callers hold at least the read lock; the
// cache has its own mutex. A read I/O failure or a block that fails its
// checksum after passing open-time validation is unrecoverable mid-read
// (Get/Seek have no error channel) and panics; the recovery path
// re-validates every block before serving.
func (db *DB) readBlock(t *SSTable, idx int) []byte {
	if raw := db.cache.get(t.id, idx); raw != nil {
		atomic.AddInt64(&db.Stats.CacheHits, 1)
		return raw
	}
	atomic.AddInt64(&db.Stats.BlockReads, 1)
	if db.cfg.IOLatency > 0 {
		time.Sleep(db.cfg.IOLatency)
	}
	raw, err := t.readBlockRaw(idx)
	if err != nil {
		panic(fmt.Sprintf("lsm: table %d: %v", t.id, err))
	}
	db.cache.put(t.id, idx, raw, t.blockBytes(idx))
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
//
// Read-your-failed-write window: on a durable DB whose WAL has failed
// (Err() != nil), Get/Seek/Count still serve the in-memory state — which
// can include records whose Put/Delete returned an error and which will
// not survive a restart. Reads have no error channel by design (the hot
// path stays allocation- and branch-light); callers that need
// durable-only reads must check Err() and treat a failed DB's contents
// as advisory.
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
	merged, err := db.mergeTables(append(append([]*SSTable(nil), job.merge...), job.inputs...), job.bottom)
	if err != nil {
		return nil, err
	}
	return db.splitIntoTables(merged)
}

// installLocked swaps the job's output into the level structure. Tables
// flushed to L0 while an L0 job was merging sit after the consumed prefix
// and survive the swap. In durable mode the new shape is manifest-committed
// before the replaced input files are deleted: a crash between the two
// leaves orphan files that open-time GC removes, never a manifest pointing
// at missing tables.
func (db *DB) installLocked(job *compactJob, out []*SSTable) error {
	if job.srcLevel == 0 {
		db.levels[0] = append([]*SSTable(nil), db.levels[0][len(job.inputs):]...)
	} else {
		db.levels[job.srcLevel] = db.levels[job.srcLevel][1:]
	}
	for len(db.levels) <= job.srcLevel+1 {
		db.levels = append(db.levels, nil)
	}
	db.levels[job.srcLevel+1] = sortTables(append(append([]*SSTable(nil), job.keep...), out...))
	if db.dur == nil {
		return nil
	}
	if err := db.commitManifestLocked(); err != nil {
		return err
	}
	for _, t := range append(append([]*SSTable(nil), job.inputs...), job.merge...) {
		t.Close()
		// Best-effort: a failed remove just leaves an orphan for GC.
		_ = db.dur.fs.Remove(path.Join(db.dur.dir, sstName(t.id)))
	}
	return nil
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
		if err := db.installLocked(job, out); err != nil {
			sp.End()
			return db.failLocked(err)
		}
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
		if err == nil {
			err = db.installLocked(job, out)
		}
		if err != nil {
			db.failLocked(err)
			db.compacting = false
			db.bgCond.Broadcast()
			db.mu.Unlock()
			sp.End()
			return
		}
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
func (db *DB) mergeTables(tables []*SSTable, dropTombstones bool) ([]Entry, error) {
	var all []Entry
	seen := make(map[string]int)
	for _, t := range tables {
		// Keys only compare meaningfully within one codec generation; a
		// mismatch here means a table from another generation leaked into
		// this DB's level structure — corrupt state, not a recoverable
		// condition.
		if t.codecID != db.codecID {
			panic(fmt.Sprintf("lsm: compaction mixing codec generations %q and %q",
				t.codecID, db.codecID))
		}
		for b := 0; b < t.numBlocks(); b++ {
			raw, err := t.readBlockRaw(b)
			if err != nil {
				return nil, fmt.Errorf("lsm: compaction read table %d: %w", t.id, err)
			}
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
	return all, nil
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
