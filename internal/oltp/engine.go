// Package oltp implements a miniature main-memory OLTP engine in the style
// of H-Store (§5.4): serially-executed stored-procedure transactions over
// partition-local tables, pluggable index types (B+tree, Hybrid B+tree,
// Hybrid-Compressed B+tree), and an anti-caching component that evicts cold
// tuple payloads to a simulated disk store while indexes stay in memory.
//
// The engine exists to reproduce the index-memory measurements of Table 1.1
// and the throughput/memory curves of Figs 5.11–5.16; it is single-threaded
// per partition by design, as H-Store is.
package oltp

import (
	"fmt"
	"sync"

	"mets/internal/btree"
	"mets/internal/hybrid"
	"mets/internal/index"
	"mets/internal/obs"
)

// IndexType selects the data structure backing all of a database's indexes.
type IndexType int

const (
	// BTreeIndex is H-Store's default B+tree.
	BTreeIndex IndexType = iota
	// HybridIndex is the dual-stage Hybrid B+tree.
	HybridIndex
	// HybridCompressedIndex additionally compresses the static stage.
	HybridCompressedIndex
)

// String names the index type as in the figures.
func (t IndexType) String() string {
	switch t {
	case BTreeIndex:
		return "B+tree"
	case HybridIndex:
		return "Hybrid"
	case HybridCompressedIndex:
		return "Hybrid-Compressed"
	}
	return "?"
}

// Config tunes the engine.
type Config struct {
	IndexType IndexType
	// EvictionThreshold enables anti-caching: when total memory exceeds it,
	// cold tuple payloads are evicted to the disk store. Zero disables.
	EvictionThreshold int64
	// EvictBatch is the number of tuples evicted per eviction pass.
	EvictBatch int
	// Obs attaches the engine to a metrics registry under an "oltp." prefix:
	// transaction/eviction/disk-read counters and memory-breakdown gauges.
	// Nil disables instrumentation.
	Obs *obs.Registry
}

// Stats counts engine activity.
type Stats struct {
	Transactions int64
	Evictions    int64
	DiskReads    int64
}

// secondaryIndex is the non-unique index contract.
type secondaryIndex interface {
	Insert(key []byte, value uint64) bool
	GetAll(key []byte) []uint64
	MemoryUsage() int64
}

// Engine is one partition's execution engine. Transactions submitted through
// ExecuteTx from any number of goroutines execute serially, exactly as
// H-Store runs one partition on one thread; direct Table method calls bypass
// that serialization and are only safe single-threaded (setup/measurement
// code).
type Engine struct {
	cfg Config
	// mu is the partition's execution lock: one transaction at a time.
	mu         sync.Mutex
	tables     map[string]*Table
	order      []string
	evictCheck int // insert countdown until the next eviction check
	Stats      Stats

	// Metric handles (nil when Config.Obs is nil).
	obsTx        *obs.Counter
	obsEvictions *obs.Counter
	obsDiskReads *obs.Counter
}

// New creates an empty engine.
func New(cfg Config) *Engine {
	if cfg.EvictBatch == 0 {
		cfg.EvictBatch = 1024
	}
	e := &Engine{cfg: cfg, tables: make(map[string]*Table)}
	if cfg.Obs != nil {
		r := cfg.Obs.Sub("oltp.")
		e.obsTx = r.Counter("transactions")
		e.obsEvictions = r.Counter("evictions")
		e.obsDiskReads = r.Counter("disk_reads")
		// Memory gauges walk the indexes; they are evaluated at snapshot
		// time, not per transaction. ExecuteTx holds the partition lock, so
		// a snapshot racing a transaction waits like any other client.
		r.GaugeFunc("mem_tuples", func() float64 { return float64(e.lockedMemory().Tuples) })
		r.GaugeFunc("mem_primary", func() float64 { return float64(e.lockedMemory().Primary) })
		r.GaugeFunc("mem_secondary", func() float64 { return float64(e.lockedMemory().Secondary) })
	}
	return e
}

// lockedMemory takes the partition lock and returns the memory breakdown
// (snapshot-time gauge path; measurement code uses MemoryUsage directly).
func (e *Engine) lockedMemory() Memory {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.MemoryUsage()
}

// Table holds tuples and their indexes.
type Table struct {
	name    string
	eng     *Engine
	tuples  [][]byte // payload per tuple id; nil = evicted or free
	evicted []bool
	ref     []bool // CLOCK reference bits for anti-caching
	hand    int
	disk    map[uint64][]byte // the anti-cache
	live    int

	primary     index.Dynamic
	secondaries map[string]secondaryIndex
	tupleBytes  int64
}

// CreateTable registers a table with a primary index and the named
// secondary indexes.
func (e *Engine) CreateTable(name string, secondaryNames ...string) *Table {
	t := &Table{
		name:        name,
		eng:         e,
		disk:        make(map[uint64][]byte),
		secondaries: make(map[string]secondaryIndex),
	}
	t.primary = e.newPrimary()
	for _, s := range secondaryNames {
		t.secondaries[s] = e.newSecondary()
	}
	e.tables[name] = t
	e.order = append(e.order, name)
	return t
}

func (e *Engine) newPrimary() index.Dynamic {
	switch e.cfg.IndexType {
	case HybridIndex:
		return hybrid.NewBTree(hybrid.DefaultConfig())
	case HybridCompressedIndex:
		return hybrid.NewCompressedBTree(hybrid.DefaultConfig(), 0)
	default:
		return btree.New()
	}
}

func (e *Engine) newSecondary() secondaryIndex {
	switch e.cfg.IndexType {
	case HybridIndex, HybridCompressedIndex:
		return hybrid.NewSecondary(hybrid.DefaultConfig())
	default:
		return btree.NewMulti()
	}
}

// Table returns a registered table.
func (e *Engine) Table(name string) *Table { return e.tables[name] }

// Insert adds a tuple, returning false when the primary key exists.
// secondaryKeys maps secondary index name to that index's key.
func (t *Table) Insert(key, payload []byte, secondaryKeys map[string][]byte) bool {
	id := uint64(len(t.tuples))
	if !t.primary.Insert(key, id) {
		return false
	}
	t.tuples = append(t.tuples, append([]byte(nil), payload...))
	t.evicted = append(t.evicted, false)
	t.ref = append(t.ref, true)
	t.tupleBytes += int64(len(payload) + len(key))
	t.live++
	for name, sk := range secondaryKeys {
		t.secondaries[name].Insert(sk, id)
	}
	t.eng.maybeEvict()
	return true
}

// fetch returns the tuple payload, un-evicting from the anti-cache when
// needed (the paper's abort-and-restart is modelled as a counted disk read).
func (t *Table) fetch(id uint64) []byte {
	if t.evicted[id] {
		t.eng.Stats.DiskReads++
		t.eng.obsDiskReads.Inc()
		payload := t.disk[id]
		delete(t.disk, id)
		t.tuples[id] = payload
		t.evicted[id] = false
		t.tupleBytes += int64(len(payload))
	}
	t.ref[id] = true
	return t.tuples[id]
}

// Get returns the payload stored under the primary key.
func (t *Table) Get(key []byte) ([]byte, bool) {
	id, ok := t.primary.Get(key)
	if !ok {
		return nil, false
	}
	return t.fetch(id), true
}

// Update overwrites the payload under the primary key.
func (t *Table) Update(key, payload []byte) bool {
	id, ok := t.primary.Get(key)
	if !ok {
		return false
	}
	t.fetch(id) // un-evict before overwrite
	t.tupleBytes += int64(len(payload) - len(t.tuples[id]))
	t.tuples[id] = append(t.tuples[id][:0], payload...)
	t.ref[id] = true
	return true
}

// GetBySecondary returns the payloads matching a secondary key.
func (t *Table) GetBySecondary(name string, key []byte) [][]byte {
	ids := t.secondaries[name].GetAll(key)
	out := make([][]byte, len(ids))
	for i, id := range ids {
		out[i] = t.fetch(id)
	}
	return out
}

// CountBySecondary returns the number of matches without fetching payloads.
func (t *Table) CountBySecondary(name string, key []byte) int {
	return len(t.secondaries[name].GetAll(key))
}

// Scan visits tuples in primary-key order from the smallest key >= start.
// The key is lent: valid only for the duration of the callback.
func (t *Table) Scan(start []byte, fn func(key, payload []byte) bool) int {
	return t.primary.Scan(start, func(k []byte, id uint64) bool { return fn(k, t.fetch(id)) })
}

// Len returns the number of live tuples.
func (t *Table) Len() int { return t.live }

// Memory breakdown per Table 1.1.
type Memory struct {
	Tuples    int64
	Primary   int64
	Secondary int64
}

// Total returns the sum of all components.
func (m Memory) Total() int64 { return m.Tuples + m.Primary + m.Secondary }

// MemoryUsage returns the table's in-memory breakdown (evicted payloads are
// on disk and not counted; every tuple slot costs 8 bytes).
func (t *Table) MemoryUsage() Memory {
	m := Memory{Tuples: t.tupleBytes + int64(len(t.tuples))*8, Primary: t.primary.MemoryUsage()}
	for _, s := range t.secondaries {
		m.Secondary += s.MemoryUsage()
	}
	return m
}

// MemoryUsage sums every table.
func (e *Engine) MemoryUsage() Memory {
	var m Memory
	for _, t := range e.tables {
		tm := t.MemoryUsage()
		m.Tuples += tm.Tuples
		m.Primary += tm.Primary
		m.Secondary += tm.Secondary
	}
	return m
}

// maybeEvict runs the anti-caching eviction manager. Computing the exact
// memory breakdown walks the indexes, so the check runs periodically (as
// H-Store's eviction manager does) rather than per insert.
func (e *Engine) maybeEvict() {
	if e.cfg.EvictionThreshold == 0 {
		return
	}
	if e.evictCheck > 0 {
		e.evictCheck--
		return
	}
	e.evictCheck = 512
	if e.MemoryUsage().Total() <= e.cfg.EvictionThreshold {
		return
	}
	// Evict cold tuples round-robin across tables via CLOCK sweeps.
	for _, name := range e.order {
		t := e.tables[name]
		evictedHere := t.evictCold(e.cfg.EvictBatch)
		e.Stats.Evictions += int64(evictedHere)
		e.obsEvictions.Add(int64(evictedHere))
	}
}

// evictCold sweeps the CLOCK hand, evicting up to n unreferenced payloads.
func (t *Table) evictCold(n int) int {
	if len(t.tuples) == 0 {
		return 0
	}
	evicted := 0
	sweeps := 0
	for evicted < n && sweeps < 2*len(t.tuples) {
		if t.hand >= len(t.tuples) {
			t.hand = 0
		}
		id := uint64(t.hand)
		t.hand++
		sweeps++
		if t.tuples[id] == nil || t.evicted[id] {
			continue
		}
		if t.ref[id] {
			t.ref[id] = false
			continue
		}
		t.disk[id] = t.tuples[id]
		t.tupleBytes -= int64(len(t.tuples[id]))
		t.tuples[id] = nil
		t.evicted[id] = true
		evicted++
	}
	return evicted
}

// ExecuteTx runs one stored procedure under the partition's execution lock,
// counting it in the stats. Safe to call from concurrent client goroutines:
// transactions queue on the lock and run one at a time (serial execution,
// §5.4). The procedure must touch tables only through this engine.
func (e *Engine) ExecuteTx(fn func() error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	err := fn()
	if err == nil {
		e.Stats.Transactions++
		e.obsTx.Inc()
	}
	return err
}

// String summarizes the engine.
func (e *Engine) String() string {
	m := e.MemoryUsage()
	return fmt.Sprintf("oltp[%v]: %d tables, %d tx, mem tuples=%dMB primary=%dMB secondary=%dMB",
		e.cfg.IndexType, len(e.tables), e.Stats.Transactions,
		m.Tuples>>20, m.Primary>>20, m.Secondary>>20)
}
