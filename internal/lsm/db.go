package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

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
	// Obs attaches the engine to a metrics registry under an "lsm." prefix:
	// I/O and filter-effectiveness gauges (including a live point-lookup FPR
	// derived from false positives vs filter negatives), MemTable and level
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
// no reader or writer active.
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
// (Put, Delete, Flush) behind a readers-writer lock. A write that fills the
// MemTable flushes it and runs the compactions it triggers inline, so the
// level shape, and the I/O the experiments count, are deterministic.
type DB struct {
	cfg Config

	mu     sync.RWMutex
	mem    *memTable
	levels [][]*SSTable // levels[0] newest-last; levels >= 1 sorted by minKey, disjoint

	nextID atomic.Uint64
	cache  *blockCache
	Stats  Stats
	obs    *obs.Registry       // nil when Config.Obs is nil
	fr     *obs.FlightRecorder // Config.Obs's recorder; nil (no-op) without one

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
		r.GaugeFunc("levels", func() float64 { return float64(db.NumLevels()) })
		r.GaugeFunc("disk_bytes", func() float64 { return float64(db.DiskUsage()) })
		r.GaugeFunc("index_bytes", func() float64 { return float64(db.indexBytes()) })
	}
	return db
}

// Put inserts or overwrites a record. The error is the DB's sticky failure:
// a filter build that failed in a flush or compaction, or ErrClosed.
func (db *DB) Put(key, value []byte) error {
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
	return db.flushLocked()
}

// Flush forces the MemTable to level 0 and runs the compactions it triggers.
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.err != nil {
		return db.err
	}
	return db.flushLocked()
}

// flushLocked flushes the MemTable and compacts until the level shape is
// clean. The MemTable is replaced only once its table is built, so a failed
// build leaves its records readable.
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
// counted and caches the table's own block.
// Callers hold at least the read lock; the cache has its own mutex.
func (db *DB) readBlock(t *SSTable, idx int) []byte {
	if raw := db.cache.get(t.id, idx); raw != nil {
		atomic.AddInt64(&db.Stats.CacheHits, 1)
		return raw
	}
	atomic.AddInt64(&db.Stats.BlockReads, 1)
	raw := t.blocks[idx]
	db.cache.put(t.id, idx, raw, int64(len(raw)))
	return raw
}

// Get returns the value stored under key (Fig 4.3 left path). Tombstones
// shadow older versions across all levels.
func (db *DB) Get(key []byte) ([]byte, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if v, ok := db.mem.get(key); ok {
		if isTombstone(v) {
			return nil, false
		}
		return userValue(v), true
	}
	kp := keys.Prefix8(key)
	probe := func(t *SSTable) ([]byte, bool, bool) {
		if comparePfx(kp, key, t.minPfx, t.minKey) < 0 || comparePfx(kp, key, t.maxPfx, t.maxKey) > 0 {
			return nil, false, false
		}
		filtered := t.filter != nil
		if filtered && !t.filter.Lookup(key) {
			atomic.AddInt64(&db.Stats.FilterNegatives, 1)
			return nil, false, false
		}
		b := t.blockFor(key, kp)
		if b < 0 {
			if filtered {
				atomic.AddInt64(&db.Stats.FilterFalsePositives, 1)
			}
			return nil, false, false
		}
		v, ok := t.blockGet(b, db.readBlock(t, b), key)
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
		if t := tableFor(db.levels[l], key, kp); t != nil {
			if v, ok, _ := probe(t); ok {
				if isTombstone(v) {
					return nil, false
				}
				return userValue(v), true
			}
		}
	}
	return nil, false
}

// tableFor returns the table of a level >= 1 (sorted, disjoint) whose range
// can hold key, whose prefix is kp: the first one whose max key is >= key.
func tableFor(tables []*SSTable, key []byte, kp uint64) *SSTable {
	i := sort.Search(len(tables), func(i int) bool {
		return comparePfx(tables[i].maxPfx, tables[i].maxKey, kp, key) >= 0
	})
	if i < len(tables) {
		return tables[i]
	}
	return nil
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
func (db *DB) Seek(lo, hi []byte) (Entry, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	// A seek that lands on a tombstone restarts past it; iterate instead of
	// recursing so the read lock is taken once.
	for lo != nil {
		e, ok, next := db.seekOnceLocked(lo, hi)
		if next == nil {
			return e, ok
		}
		lo = next
	}
	return Entry{}, false
}

// seekOnceLocked performs one candidate-resolution pass. A non-nil next
// means the winner was a tombstone and the search must restart at next.
func (db *DB) seekOnceLocked(lo, hi []byte) (Entry, bool, []byte) {
	// One candidate per source — the MemTable, each level-0 table and one
	// table per deeper level — fits the stack array in the default shape;
	// more sources spill to the heap.
	var stack [16]seekCandidate
	cands := stack[:0]
	if k, v, ok := db.mem.seek(lo); ok {
		cands = append(cands, seekCandidate{key: k, value: v, exact: true, prio: 1 << 30})
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
	lp := keys.Prefix8(lo)
	for l := 1; l < len(db.levels); l++ {
		if t := tableFor(db.levels[l], lo, lp); t != nil {
			addTable(t, -l)
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

// tableSeek reads the first record with key >= lo from t. When the block
// that may hold lo has no such record, it is the next block's first.
func (db *DB) tableSeek(t *SSTable, lo []byte) (Entry, bool) {
	b := t.blockFor(lo, keys.Prefix8(lo))
	if b < 0 {
		return Entry{}, false
	}
	r, ok := t.seekBlock(b, db.readBlock(t, b), lo)
	if !ok && b+1 < t.numBlocks() {
		r = blockReader{raw: db.readBlock(t, b+1)}
		ok = r.next()
	}
	if !ok {
		return Entry{}, false
	}
	return Entry{Key: r.key, Value: r.value}, true
}

// Count approximates the number of records in [lo, hi]; nil hi means
// +infinity, as for Seek. With counting filters it is pure in-memory work
// (plus the MemTable); otherwise blocks are scanned (Fig 4.3 right path).
func (db *DB) Count(lo, hi []byte) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	total := db.mem.count(lo, hi)
	each := func(t *SSTable) {
		if !t.overlaps(lo, hi) {
			return
		}
		// An open range ends, within one table, at the table's last key.
		thi := hi
		if thi == nil {
			thi = t.maxKey
		}
		if t.filter != nil {
			if n, ok := t.filter.Count(lo, thi); ok {
				total += n
				return
			}
		}
		b := t.blockFor(lo, keys.Prefix8(lo))
		if b < 0 {
			return
		}
		r, ok := t.seekBlock(b, db.readBlock(t, b), lo)
		for {
			for ; ok; ok = r.next() {
				if keys.Compare(r.key, thi) > 0 {
					return
				}
				if !isTombstone(r.value) {
					total++
				}
			}
			if b++; b == t.numBlocks() {
				return
			}
			r = blockReader{raw: db.readBlock(t, b)}
			ok = r.next()
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

// compactJob is one unit of level maintenance: the tables it merges and the
// level it installs the output into.
type compactJob struct {
	srcLevel int
	inputs   []*SSTable // tables leaving srcLevel (for L0: the whole level at pick time)
	merge    []*SSTable // overlapping tables at srcLevel+1 folded into the merge
	keep     []*SSTable // srcLevel+1 tables carried over untouched
	bottom   bool       // output is the bottom level: drop tombstones
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

// executeJob merges the job's inputs and builds the output tables. The
// overlapping tables of the level below are one sorted run, older than every
// input; L0 inputs are newest-last, so later runs correctly win on duplicate
// keys.
func (db *DB) executeJob(job *compactJob) ([]*SSTable, error) {
	var below [][]byte
	for _, t := range job.merge {
		below = append(below, t.blocks...)
	}
	runs := [][][]byte{below}
	for _, t := range job.inputs {
		runs = append(runs, t.blocks)
	}
	return db.splitIntoTables(mergeTables(runs, job.bottom))
}

// installLocked swaps the job's output into the level structure.
func (db *DB) installLocked(job *compactJob, out []*SSTable) {
	if job.srcLevel == 0 {
		db.levels[0] = nil
	} else {
		db.levels[job.srcLevel] = db.levels[job.srcLevel][1:]
	}
	for len(db.levels) <= job.srcLevel+1 {
		db.levels = append(db.levels, nil)
	}
	db.levels[job.srcLevel+1] = sortTables(append(append([]*SSTable(nil), job.keep...), out...))
}

// compactUntilCleanLocked runs compactions until the shape invariants hold.
// parent links the compaction spans and events to
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

// mergeTables merges sorted runs, each the blocks of one or more disjoint
// tables in key order, record by record; later runs win on equal keys. It
// charges no I/O:
// compaction reads are sequential maintenance work, not the point and range
// I/O the experiments count. When the output is the bottom level, tombstones
// are garbage-collected.
func mergeTables(runs [][][]byte, dropTombstones bool) []Entry {
	var its []runIter
	for _, blocks := range runs {
		if it := (runIter{blocks: blocks}); it.next() {
			its = append(its, it)
		}
	}
	var out []Entry
	for len(its) > 0 {
		best := 0 // the smallest key, from the latest run that holds it
		for i := 1; i < len(its); i++ {
			if keys.Compare(its[i].r.key, its[best].r.key) <= 0 {
				best = i
			}
		}
		e := Entry{Key: its[best].r.key, Value: its[best].r.value}
		if !dropTombstones || !isTombstone(e.Value) {
			out = append(out, e)
		}
		for i := 0; i < len(its); { // step every run past e.Key, keeping run order
			if bytes.Equal(its[i].r.key, e.Key) && !its[i].next() {
				its = append(its[:i], its[i+1:]...)
				continue
			}
			i++
		}
	}
	return out
}

// runIter walks one sorted run's records, block after block.
type runIter struct {
	blocks [][]byte // the blocks after r's
	r      blockReader
}

func (it *runIter) next() bool {
	for !it.r.next() {
		if len(it.blocks) == 0 {
			return false
		}
		it.r, it.blocks = blockReader{raw: it.blocks[0]}, it.blocks[1:]
	}
	return true
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

// FilterMemory totals the resident filter bytes.
func (db *DB) FilterMemory() int64 {
	return db.sumTables(func(t *SSTable) int64 {
		if t.filter == nil {
			return 0
		}
		return t.filter.MemoryUsage()
	})
}

// indexBytes totals the tables' in-memory indexes: fences, their prefixes
// and the restart points.
func (db *DB) indexBytes() int64 { return db.sumTables((*SSTable).indexBytes) }

// DiskUsage totals serialized table bytes.
func (db *DB) DiskUsage() int64 { return db.sumTables((*SSTable).DiskUsage) }

// sumTables totals f over every table of every level.
func (db *DB) sumTables(f func(*SSTable) int64) int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var m int64
	for _, level := range db.levels {
		for _, t := range level {
			m += f(t)
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

// failLocked records the first failure; every later write observes it.
func (db *DB) failLocked(err error) error {
	if db.err == nil {
		db.err = err
		db.fr.Record("lsm.error", obs.Str("err", err.Error()))
	}
	return err
}

// Close marks the DB closed: later writes return ErrClosed, reads keep
// serving. It returns the failure the DB had before closing, if any.
func (db *DB) Close() error {
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
