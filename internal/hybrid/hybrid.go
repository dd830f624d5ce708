// Package hybrid implements the dual-stage hybrid index architecture of
// Chapter 5: a small dynamic stage absorbs all writes while a compact,
// read-optimized static stage holds the bulk of the entries. A ratio-based
// trigger periodically merges the dynamic stage into the static stage
// (merge-all strategy, §5.2.2), and a Bloom filter in front of the dynamic
// stage lets most point reads touch a single stage (§5.1). A generation's
// filter is allocated at its first write, sized for the merge window —
// max(4096, (static + frozen) / MergeRatio) keys at BloomBitsPerKey — so a
// bulk-loaded or freshly merged index holds none, and until that write a
// point read skips the empty dynamic stage without hashing the key.
//
// # Concurrency
//
// One core serves every configuration. Everything a reader can reach lives
// in an immutable generation (gen.go) published through an atomic pointer:
// a reader loads the pointer and resolves against the stages. It takes no
// lock of the index's and announces itself to nobody, so no merge —
// foreground or background — no seal, swap or bulk load ever blocks a read.
// Writers (Insert, Update, Delete, Merge, BulkLoad) serialize on one mutex
// and publish structural changes as new generations through the
// reconfiguration seam. Nothing retires a superseded generation: the
// publishing store drops the index's reference to it, a reader that loaded
// it keeps it (and the stages it names) alive for as long as it needs, and
// the garbage collector frees it after the last of them. With
// Config.BackgroundMerge the dynamic stage is sealed into a frozen stage by
// one such publication, the static stage is rebuilt on a background
// goroutine while reads and writes continue (writes land in a fresh dynamic
// stage), and the result is swapped in by another.
//
// The dynamic stage is a memtable (memtable.go). Config.EpochReads picks
// which: the lock-free concurrent skip list, or a thesis structure from the
// caller's factory behind a readers-writer lock private to the memtable.
// That lock is the only thing the two configurations do not share.
//
// Scan callbacks run with nothing held but a reference to the generation the
// scan started on, so they may call back into the same Index.
package hybrid

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mets/internal/bloom"
	"mets/internal/index"
	"mets/internal/keys"
	"mets/internal/obs"
	"mets/internal/reconfig"
	"mets/internal/skiplist"
	"mets/internal/vfs"
	"mets/internal/wal"
)

// Config tunes the dual-stage behaviour.
type Config struct {
	// MergeRatio R triggers a merge when static/dynamic size falls to R
	// (default 10, the §5.3.3 sweet spot).
	MergeRatio int
	// MinDynamic is the dynamic-stage entry count below which merges never
	// trigger (keeps tiny indexes from thrashing).
	MinDynamic int
	// DisableBloom removes the dynamic-stage Bloom filter (Fig 5.9).
	DisableBloom bool
	// BloomBitsPerKey sizes the filter (default 10).
	BloomBitsPerKey float64
	// BackgroundMerge makes ratio-triggered merges run on a background
	// goroutine instead of blocking the triggering writer: writes are sealed
	// into a frozen stage and replayed logically via the stage order while
	// the rebuild happens off the critical path. Merge() remains synchronous
	// either way.
	BackgroundMerge bool
	// Obs attaches the index to a metrics registry: per-operation counters,
	// Bloom-filter effectiveness counters, stage-size gauges, and a "merge"
	// record with the seal/build/swap durations per merge. Nil disables
	// instrumentation — the hot-path cost is then a single nil check per
	// counter site. Use Registry.Sub to prefix per-shard instances.
	Obs *obs.Registry
	// EpochReads makes the dynamic stage the built-in concurrent skip-list
	// memtable: reads are then wait-free end to end — load the generation
	// pointer and resolve, with no lock anywhere — and the newDynamic factory
	// passed to New is ignored. Unset, the dynamic stage is the factory's
	// thesis structure behind the memtable's own readers-writer lock: a read
	// can wait for one concurrent write to that memtable, but still never for
	// a merge. The name is historical: it picks the memtable and nothing
	// else; generations are published the same way in both.
	EpochReads bool
	// Dir, when non-empty, makes the index journal every successful write to
	// a segmented op journal in that directory and replay it on New, so the
	// in-memory index survives restarts (journal.go). The journal is
	// buffered: StartJournalSync (or Close) is the durability barrier. New panics
	// if the directory cannot be opened or replayed.
	Dir string
	// FS overrides the journal's filesystem (default the real OS). Tests
	// inject a fault-injecting in-memory filesystem here.
	FS vfs.FS
}

// DefaultConfig returns the thesis defaults.
func DefaultConfig() Config {
	return Config{MergeRatio: 10, MinDynamic: 4096, BloomBitsPerKey: 10}
}

// StaticBuilder constructs a static-stage structure from sorted entries.
type StaticBuilder func(entries []index.Entry) (index.Static, error)

// Index is a single logical index made of two physical stages (three while a
// background merge is in flight).
type Index struct {
	cfg        Config
	newDynamic func() index.Dynamic
	build      StaticBuilder

	// gen is the current generation. Readers Load it; only publishLocked
	// Stores it, and that store is what retires the previous one.
	gen atomic.Pointer[gen]
	// seam is the shared reconfiguration pipeline every generation swap
	// publishes through (seals, merge commits, bulk loads). It owns the
	// generation counter and the publication event vocabulary.
	seam *reconfig.Seam

	mu        sync.Mutex // serializes writers and generation publication
	mergeDone *sync.Cond // on mu; signalled when a background merge lands
	merging   bool       // a background merge is in flight (guarded by mu)

	live atomic.Int64 // exact live-entry count, writer-maintained

	// Merge telemetry for the Chapter 5 experiments, under mu; MergeStats
	// reads it.
	merges                int
	lastMerge, totalMerge time.Duration

	// jl is the op journal, nil without Config.Dir (journal.go).
	jl *wal.Log
	// JournalRecovery reports what New's journal replay found. Written once
	// in New, read-only afterwards.
	JournalRecovery wal.ReplayStats

	// Metric handles, resolved once from cfg.Obs (all nil when disabled).
	obsGet       *obs.Counter
	obsInsert    *obs.Counter
	obsUpdate    *obs.Counter
	obsDelete    *obs.Counter
	obsScan      *obs.Counter
	obsBloomSkip *obs.Counter // dynamic-stage probes the Bloom filter skipped
	obsMerges    *obs.Counter
	obsReg       *obs.Registry

	// fr is the flight recorder: shared with Config.Obs's when a registry is
	// attached, private when only Config.Dir is set (a durable index always
	// leaves a postmortem), nil for a plain in-memory index without obs.
	fr *obs.FlightRecorder
	// jDumpOnce guards the one-shot journal-failure event + dump (the
	// journal's error is sticky, so every later op would re-report it).
	jDumpOnce sync.Once
}

// New creates a hybrid index from a dynamic-stage factory and a
// static-stage builder.
func New(newDynamic func() index.Dynamic, build StaticBuilder, cfg Config) *Index {
	if cfg.MergeRatio <= 0 {
		cfg.MergeRatio = 10
	}
	if cfg.BloomBitsPerKey == 0 {
		cfg.BloomBitsPerKey = 10
	}
	h := &Index{
		cfg:        cfg,
		newDynamic: newDynamic,
		build:      build,
	}
	h.mergeDone = sync.NewCond(&h.mu)
	if r := cfg.Obs; r != nil {
		h.obsReg = r
		h.obsGet = r.Counter("get")
		h.obsInsert = r.Counter("insert")
		h.obsUpdate = r.Counter("update")
		h.obsDelete = r.Counter("delete")
		h.obsScan = r.Counter("scan")
		h.obsBloomSkip = r.Counter("bloom_skip")
		h.obsMerges = r.Counter("merges")
	}
	if fr := cfg.Obs.FlightRecorder(); fr != nil {
		h.fr = fr
	} else if cfg.Dir != "" {
		h.fr = obs.NewFlightRecorder(obs.DefaultFlightEvents)
	}
	h.gen.Store(h.newGen(nil))
	h.seam = reconfig.New(reconfig.Options{Name: "hybrid", Obs: cfg.Obs, FlightRec: h.fr})
	if cfg.Dir != "" {
		if err := h.openJournal(); err != nil {
			panic(fmt.Sprintf("hybrid: journal open: %v", err))
		}
	}
	// Derived gauges register last: a registry snapshot may evaluate them
	// from another goroutine the moment they land in the gauge map (a
	// scrape can run concurrently with construction), so the index must
	// be fully constructed first — and the registry's own lock publishes
	// everything written above to the snapshotting goroutine.
	if r := h.obsReg; r != nil {
		flag := func(name string, f func() bool) {
			r.GaugeFunc(name, func() float64 {
				if f() {
					return 1
				}
				return 0
			})
		}
		r.GaugeFunc("dynamic_len", func() float64 { return float64(h.DynamicLen()) })
		r.GaugeFunc("static_len", func() float64 { return float64(h.StaticLen()) })
		flag("merging", h.Merging)
		flag("merge_behind", h.MergeBehind)
		// A sticky journal failure is otherwise invisible until the next
		// explicit barrier; surface it in every snapshot.
		flag("journal_err", func() bool { return h.JournalErr() != nil })
		r.GaugeFunc("epoch_gens", func() float64 { return float64(h.seam.Generation()) })
	}
	return h
}

// newMem builds an empty dynamic stage: the one place Config.EpochReads is
// consulted.
func (h *Index) newMem() memtable {
	if h.cfg.EpochReads {
		return skiplist.NewConcurrent()
	}
	return newLockedMem(h.newDynamic)
}

// newGen makes a generation over a fresh memtable and static. Its filter
// comes with its first write (feedLocked); under DisableBloom it has none,
// and reads probe the memtable.
func (h *Index) newGen(static index.Static) *gen {
	g := &gen{mem: h.newMem(), static: static}
	if h.cfg.DisableBloom {
		g.filter.Store(unfiltered)
	}
	return g
}

// feedLocked adds key to the filter of g's memtable ahead of a write of key
// there. At the generation's first write it publishes the filter first: a
// reader that finds none skips the memtable, so the filter must be in place
// before the memtable entry is. Requires mu.
func (h *Index) feedLocked(g *gen, key []byte) {
	f := g.filter.Load()
	if f == unfiltered {
		return
	}
	if f == nil {
		n := g.staticLen()
		if g.frozen != nil {
			n += g.frozen.Len()
		}
		f = bloom.New(max(n/h.cfg.MergeRatio, 4096), h.cfg.BloomBitsPerKey)
		g.filter.Store(f)
	}
	f.AddAtomic(key)
}

// publishLocked swaps in the next generation through the shared
// reconfiguration seam. The store is also the previous generation's
// retirement: it held the index's only reference to that generation, so what
// keeps it alive from here on is whichever readers loaded it before the
// store, and the collector frees it after the last of them — nothing is
// nil-ed, closed, pooled or reused on the way. p carries the publication's
// event name, span and attributes. Requires mu.
func (h *Index) publishLocked(next *gen, p reconfig.Prepared) {
	p.Publish = func() error { h.gen.Store(next); return nil }
	_ = h.seam.PublishLocked("generation", p) // only Publish can fail
}

// Len returns the total number of live entries.
func (h *Index) Len() int { return int(h.live.Load()) }

// DynamicLen and StaticLen expose the per-stage sizes (the frozen stage, if
// any, counts as dynamic).
func (h *Index) DynamicLen() int { return h.gen.Load().dynamicLen() }

func (h *Index) StaticLen() int { return h.gen.Load().staticLen() }

// Get returns the value stored under key, searching the stages of the
// current generation in order.
func (h *Index) Get(key []byte) (uint64, bool) {
	h.obsGet.Inc()
	return h.gen.Load().get(key, h.obsBloomSkip)
}

// Insert adds a new entry (primary-index semantics: duplicate keys are
// rejected after checking all stages). It may trigger a merge. Readers are
// never blocked: the memtable write and the atomic filter bits publish the
// entry incrementally.
func (h *Index) Insert(key []byte, value uint64) bool {
	h.obsInsert.Inc()
	h.mu.Lock()
	defer h.mu.Unlock()
	g := h.gen.Load()
	if _, ok := g.get(key, h.obsBloomSkip); ok {
		return false
	}
	h.putLocked(g, key, value)
	h.live.Add(1)
	h.jlog(jopInsert, key, value)
	h.maybeMergeLocked(g)
	return true
}

// putLocked feeds the filter and writes key into the memtable.
func (h *Index) putLocked(g *gen, key []byte, value uint64) {
	h.feedLocked(g, key)
	g.mem.Put(key, value)
}

// memStateLocked probes the memtable through the filter, counting a skip.
func (h *Index) memStateLocked(g *gen, key []byte) (live, tomb bool) {
	if !mayHold(g.filter.Load(), key) {
		h.obsBloomSkip.Inc()
		return false, false
	}
	_, live, tomb = g.mem.Get(key)
	return live, tomb
}

// Update overwrites the value of an existing key. Following §5.1, an update
// whose target lives below the dynamic stage inserts a fresh entry into the
// dynamic stage, which shadows the older copy until the next merge.
func (h *Index) Update(key []byte, value uint64) bool {
	h.obsUpdate.Inc()
	h.mu.Lock()
	defer h.mu.Unlock()
	g := h.gen.Load()
	live, tomb := h.memStateLocked(g, key)
	if tomb {
		return false
	}
	if live {
		g.mem.Put(key, value)
		h.jlog(jopUpdate, key, value)
		return true
	}
	if _, ok := g.lower(key); !ok {
		return false
	}
	h.putLocked(g, key, value)
	h.jlog(jopUpdate, key, value)
	h.maybeMergeLocked(g)
	return true
}

// Delete tombstones key in the memtable; one tombstone suppresses the
// memtable copy and any shadowed lower-stage copy at once, and the merge
// garbage-collects both. When the live copy sits below the memtable the key
// MUST also be fed to the filter, otherwise a later read would skip the
// memtable on a filter miss and resurrect the stale lower-stage value.
func (h *Index) Delete(key []byte) bool {
	h.obsDelete.Inc()
	h.mu.Lock()
	defer h.mu.Unlock()
	g := h.gen.Load()
	live, tomb := h.memStateLocked(g, key)
	if tomb {
		return false
	}
	if live {
		g.mem.Tomb(key)
	} else if _, ok := g.lower(key); ok {
		h.feedLocked(g, key)
		g.mem.Tomb(key)
	} else {
		return false
	}
	h.live.Add(-1)
	h.jlog(jopDelete, key, 0)
	return true
}

// Scan visits live entries in key order from the smallest key >= start,
// merging the stages on the fly (gen.go, walk). Upper-stage entries shadow
// lower-stage entries with equal keys; tombstones suppress lower-stage
// entries. The scan stays on the generation it loaded for its whole duration
// — that keeps the generation's stages alive, blocks nobody, and fn may call
// back into h. The static stage of that generation is immutable and is read
// as it stood; the memtables above it are read in chunks, each an atomic view
// of its memtable, so what the scan sees of concurrent writes is consistent
// per chunk, not across its whole length. The key is lent, as in
// index.Static.Scan: valid only until fn returns (it lives in a buffer the
// stage scan reuses) and not to be modified — copy it to
// retain it, or use ScanN.
func (h *Index) Scan(start []byte, fn func(key []byte, value uint64) bool) int {
	h.obsScan.Inc()
	return h.gen.Load().scan(start, fn)
}

// mergeDue is the ratio-based merge trigger, the one predicate the write
// path and MergeBehind share: the memtable has reached MinDynamic and
// static/dynamic has fallen to MergeRatio. It weighs raw nodes, so
// accumulated tombstones push toward a merge too.
func (h *Index) mergeDue(g *gen) bool {
	d := g.mem.Nodes()
	return d > 0 && d >= h.cfg.MinDynamic && d*h.cfg.MergeRatio >= g.staticLen()
}

// MergeBehind reports that the current generation's dynamic stage sits past
// the merge trigger: the next write that grows the memtable merges, and until
// it lands reads pay extra stage lookups. It never takes the writer mutex.
func (h *Index) MergeBehind() bool { return h.mergeDue(h.gen.Load()) }

// maybeMergeLocked fires the trigger after a write that grew the memtable.
func (h *Index) maybeMergeLocked(g *gen) {
	switch {
	case !h.mergeDue(g):
	case h.cfg.BackgroundMerge:
		h.sealLocked(g)
	default:
		h.mergeLocked(g)
	}
}

// mergeChunk is how many memtable states a merge pulls per refill: large, so
// the per-refill seek (and, for the locked memtable, lock round trip) is
// noise against the rebuild.
const mergeChunk = 1024

// mergeStages produces the sorted live entries of mem layered over static —
// the walk a scan does (gen.go), from the beginning and keeping every key:
// the keys the static stage lends are cloned into one slab. The memtable is
// streamed, never materialized; it must be quiescent (sealed, or the caller
// holds mu).
func mergeStages(mem memtable, static index.Static) []index.Entry {
	n := mem.Len()
	if static != nil {
		n += static.Len()
	}
	merged := make([]index.Entry, 0, n)
	var slab keys.Slab
	walk(memStack{newCursor(mem.ScanStates, nil, mergeChunk)}, static, nil, &slab, func(k []byte, v uint64) bool {
		merged = append(merged, index.Entry{Key: k, Value: v})
		return true
	})
	return merged
}

// rebuild merges mem over static and builds the next static stage, returning
// it with its entry count.
func (h *Index) rebuild(mem memtable, static index.Static) (index.Static, int) {
	merged := mergeStages(mem, static)
	st, err := h.build(merged)
	if err != nil {
		panic("hybrid: static build failed: " + err.Error())
	}
	return st, len(merged)
}

// commitLocked publishes a finished merge and records its telemetry.
func (h *Index) commitLocked(next *gen, entries int, startT time.Time, sp *obs.Span) {
	h.publishLocked(next, reconfig.Prepared{
		Event: "merge.commit",
		Span:  sp.ID(),
		Attrs: []obs.Attr{obs.I64("entries", int64(entries))},
	})
	h.lastMerge = time.Since(startT)
	h.totalMerge += h.lastMerge
	h.merges++
	h.obsMerges.Inc()
}

// Merge synchronously migrates every dynamic-stage entry into a rebuilt
// static stage (merge-all, §5.2.2), applying shadowing updates and
// tombstones. An in-flight background merge is waited out first.
func (h *Index) Merge() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.merging {
		h.mergeDone.Wait()
	}
	h.mergeLocked(h.gen.Load())
}

// mergeLocked rebuilds the static stage from the current memtable layered
// over the old static stage, then publishes a fresh-memtable generation. It
// blocks writers (the caller holds mu); readers continue on the old
// generation until the store. Requires no merge in flight.
func (h *Index) mergeLocked(g *gen) {
	startT := time.Now()
	sp := h.obsReg.StartSpan("merge")
	sp.Phase("seal") // with mu held the memtable is as good as sealed; ready its successor
	next := h.newGen(nil)
	sp.Phase("build")
	st, n := h.rebuild(g.mem, g.static)
	sp.Phase("swap")
	next.static = st
	h.commitLocked(next, n, startT, sp)
	sp.End()
}

// sealLocked publishes a generation whose memtable is fresh and whose
// previous memtable (with its filter) is sealed as the frozen stage — never
// an empty one, so a frozen stage always has a filter — then
// hands the rebuild to a background goroutine. The seal is one pointer
// store — writers pause for an allocation, readers not at all. A seal while
// a merge is in flight is skipped: the next write past the trigger retries.
// Requires mu.
func (h *Index) sealLocked(g *gen) {
	if h.merging || g.mem.Nodes() == 0 {
		return
	}
	sp := h.obsReg.StartSpan("merge")
	sp.Phase("seal")
	h.merging = true
	next := h.newGen(g.static)
	next.frozen, next.frozenFilter = g.mem, g.filter.Load()
	h.publishLocked(next, reconfig.Prepared{
		Event: "merge.seal",
		Span:  sp.ID(),
		Attrs: []obs.Attr{obs.I64("frozen", int64(g.mem.Len()))},
	})
	go h.backgroundMerge(next.frozen, next.static, time.Now(), sp)
}

// backgroundMerge streams the sealed memtable (stable: its writer moved on to
// the fresh one) into a rebuilt static stage with no lock held, and publishes
// a generation without the frozen tier under a short writer-mutex section.
// Writes that landed in the fresh memtable during the build replay logically
// over the new static stage through the stage order.
func (h *Index) backgroundMerge(frozen memtable, static index.Static, startT time.Time, sp *obs.Span) {
	sp.Phase("build")
	st, n := h.rebuild(frozen, static)
	sp.Phase("swap") // includes the wait for the writer mutex
	h.mu.Lock()
	cur := h.gen.Load()
	next := &gen{mem: cur.mem, static: st}
	next.filter.Store(cur.filter.Load()) // still nil if no write landed during the build
	h.commitLocked(next, n, startT, sp)
	h.merging = false
	h.mergeDone.Broadcast()
	h.mu.Unlock()
	sp.End()
}

// WaitMerges blocks until no background merge is in flight.
func (h *Index) WaitMerges() {
	h.mu.Lock()
	for h.merging {
		h.mergeDone.Wait()
	}
	h.mu.Unlock()
}

// Merging reports whether a background merge is currently running.
func (h *Index) Merging() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.merging
}

// MergeStats returns the merge telemetry under the writer mutex, safe to
// call concurrently with merges.
func (h *Index) MergeStats() (merges int, last, total time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.merges, h.lastMerge, h.totalMerge
}

// MemoryUsage sums all stages and the Bloom filters (tombstones are part of
// the memtable accounting); a generation that has taken no write holds no
// filter.
func (h *Index) MemoryUsage() int64 {
	g := h.gen.Load()
	m := g.mem.MemoryUsage() + filterBytes(g.filter.Load()) + filterBytes(g.frozenFilter)
	if g.frozen != nil {
		m += g.frozen.MemoryUsage()
	}
	if g.static != nil {
		m += g.static.MemoryUsage()
	}
	return m
}
