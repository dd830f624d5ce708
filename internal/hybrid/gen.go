package hybrid

import (
	"sync/atomic"

	"mets/internal/bloom"
	"mets/internal/index"
	"mets/internal/keycodec"
	"mets/internal/keys"
	"mets/internal/obs"
	"mets/internal/skiplist"
)

// gen is one generation of the index: everything a reader can reach. The
// struct is immutable once published, for as long as anything references it,
// but for filter, which the writer publishes once, at the generation's first
// write; the current mem and filter follow the memtable's single-writer
// contract, frozen and static are sealed. The live index and every Snapshot
// resolve reads through the same get and scan below.
//
// Bloom filters are probed and fed with atomic bit operations: the writer
// feeds the live filter while readers probe it with no lock between them.
type gen struct {
	mem memtable
	// filter fronts mem. Nil while mem has taken no write: a read skips mem
	// without hashing the key, so an idle generation (after a bulk load or
	// a merge) holds no filter. unfiltered when nothing fronts mem
	// (DisableBloom, a Snapshot's drained states): a read always probes it.
	filter atomic.Pointer[bloom.Filter]

	// Sealed former memtable (with the filter sealed beside it) while a
	// background merge rebuilds the static stage from it; nil otherwise. A
	// sealed memtable has taken writes (sealLocked skips empty ones), so its
	// filter is never nil.
	frozen       memtable
	frozenFilter *bloom.Filter

	static index.Static // nil before the first merge
}

// dynamicLen counts live entries above the static stage (frozen included).
func (g *gen) dynamicLen() int {
	n := g.mem.Len()
	if g.frozen != nil {
		n += g.frozen.Len()
	}
	return n
}

func (g *gen) staticLen() int {
	if g.static == nil {
		return 0
	}
	return g.static.Len()
}

// unfiltered is the filter of a memtable nothing fronts: a read always
// probes it. It is only ever compared, never probed or fed.
var unfiltered = new(bloom.Filter)

// mayHold reports whether the memtable behind filter f may know key.
func mayHold(f *bloom.Filter, key []byte) bool {
	return f == unfiltered || f != nil && f.ContainsAtomic(key)
}

// filterBytes is what f charges to MemoryUsage.
func filterBytes(f *bloom.Filter) int64 {
	if f == nil || f == unfiltered {
		return 0
	}
	return f.MemoryUsage()
}

// get resolves key against the stages in order; the uppermost stage that
// knows the key — as a value or as a tombstone — decides.
func (g *gen) get(key []byte, bloomSkip *obs.Counter) (uint64, bool) {
	if mayHold(g.filter.Load(), key) {
		if v, live, tomb := g.mem.Get(key); live || tomb {
			return v, live
		}
	} else {
		bloomSkip.Inc()
	}
	return g.lower(key)
}

// lower resolves key against everything below the current memtable.
func (g *gen) lower(key []byte) (uint64, bool) {
	if g.frozen != nil && mayHold(g.frozenFilter, key) {
		if v, live, tomb := g.frozen.Get(key); live || tomb {
			return v, live
		}
	}
	if g.static != nil {
		return g.static.Get(key)
	}
	return 0, false
}

// dynChunk caps how many states a memtable cursor buffers at a time. A cursor
// starts at memChunk and doubles up to the cap: the dynamic stage holds about
// 1/MergeRatio of the entries, so a short scan (the YCSB-E common case)
// consumes few of its states, and each one visited is a cache miss.
const (
	dynChunk = 64
	memChunk = 8
)

// stateScan is the ordered-iteration shape a memtable is read through
// (memtable.ScanStates).
type stateScan func(start []byte, fn func(key []byte, value uint64, tomb bool) bool) int

// cursor pulls a memtable's sorted states lazily in chunks, so no memtable
// lock is ever held while the scan's consumer runs. Each refill is an atomic
// view of its memtable.
type cursor struct {
	scan  stateScan
	buf   []skiplist.StateEntry
	i     int
	next  []byte // resume point
	chunk int    // size of the next refill
	done  bool
}

func newCursor(scan stateScan, start []byte, chunk int) *cursor {
	c := &cursor{scan: scan, next: start, chunk: chunk}
	c.fill()
	return c
}

func (c *cursor) fill() {
	c.buf = c.buf[:0]
	c.i = 0
	limit := c.chunk
	if c.chunk < dynChunk { // a merge's cursor starts above the cap and stays there
		c.chunk *= 2
	}
	c.scan(c.next, func(k []byte, v uint64, tomb bool) bool {
		if c.buf == nil { // sized once, and not at all for an empty memtable
			c.buf = make([]skiplist.StateEntry, 0, limit)
		}
		c.buf = append(c.buf, skiplist.StateEntry{Key: k, Value: v, Tomb: tomb})
		return len(c.buf) < limit
	})
	if len(c.buf) < limit {
		c.done = true
		return
	}
	// Resume at the immediate successor of the last buffered key; Successor
	// would skip keys extending it (e.g. "aba" after a chunk ending at "ab").
	c.next = keys.Next(c.buf[len(c.buf)-1].Key)
}

// peek returns the current state, or nil when exhausted. The pointer is
// valid until the peek after the next advance.
func (c *cursor) peek() *skiplist.StateEntry {
	if c.i == len(c.buf) {
		if c.done {
			return nil
		}
		c.fill()
		if len(c.buf) == 0 {
			return nil
		}
	}
	return &c.buf[c.i]
}

func (c *cursor) advance() { c.i++ }

// memStack is the memtables above a static stage, uppermost first, read as
// one sorted stream of states: on equal keys the uppermost memtable's state
// is the one seen and the copies below it are consumed with it.
type memStack []*cursor

// peek returns the smallest state at the head of the stack, or nil when every
// memtable is exhausted; the strict comparison keeps the uppermost on ties.
func (ms memStack) peek() *skiplist.StateEntry {
	var best *skiplist.StateEntry
	for _, c := range ms {
		if e := c.peek(); e != nil && (best == nil || keys.Compare(e.Key, best.Key) < 0) {
			best = e
		}
	}
	return best
}

// pop consumes s, the state peek just returned, and the copies of its key in
// the memtables below the one it came from.
func (ms memStack) pop(s *skiplist.StateEntry) {
	for _, c := range ms {
		if p := c.peek(); p == s || (p != nil && keys.Compare(p.Key, s.Key) == 0) {
			c.advance()
		}
	}
}

// walker is the state of one walk.
type walker struct {
	ms memStack
	// next is ms.peek(): the smallest memtable state not yet consumed, nil
	// when there is none. Kept here, not re-derived per static key — most
	// static keys sort below it and cost one comparison.
	next  *skiplist.StateEntry
	fn    func(key []byte, value uint64) bool
	count int  // entries fn has seen
	more  bool // fn has not stopped the walk
}

// walk is the one ordered walk over a generation's stages, shared by scans
// and merges: it visits, in key order from the smallest key >= start, every
// live entry of the memtables in ms layered over static (nil: no static
// stage), and returns how many fn saw. A memtable state shadows the static
// entry with the same key — replacing it when live, deleting it when a
// tombstone. The static stage drives: it is immutable, so it is scanned once,
// from one seek, and pushes its entries, while the memtable cursors are
// pulled beside it; whatever they still hold when the stage ends is drained
// after it. fn runs with no memtable lock held and stops the walk by
// returning false. own, when non-nil, clones the keys the static stage lends
// before fn sees them (a merge keeps every key; a memtable's keys may be kept
// as they are); otherwise fn gets the lent key (index.Static.Scan).
func walk(ms memStack, static index.Static, start []byte, own *keys.Slab, fn func(key []byte, value uint64) bool) int {
	w := &walker{ms: ms, next: ms.peek(), fn: fn, more: true}
	if static != nil {
		// For each static key: the memtable states below it go first, and one
		// equal to it shadows it.
		static.Scan(start, func(k []byte, v uint64) bool {
			for w.next != nil {
				c := keys.Compare(w.next.Key, k)
				if c > 0 {
					break
				}
				if w.take(); !w.more || c == 0 {
					return w.more
				}
			}
			if own != nil {
				k = own.Clone(k)
			}
			w.emit(k, v)
			return w.more
		})
	}
	for w.more && w.next != nil {
		w.take()
	}
	return w.count
}

func (w *walker) emit(key []byte, value uint64) {
	w.count++
	w.more = w.fn(key, value)
}

// take emits the memtable state next, unless it is a tombstone, and consumes
// it in every memtable.
func (w *walker) take() {
	if s := w.next; !s.Tomb {
		w.emit(s.Key, s.Value)
	}
	w.ms.pop(w.next)
	w.next = w.ms.peek()
}

// scan visits the generation's live entries from the smallest key >= start
// and returns how many fn saw. Keys are lent for the callback: one that comes
// from the static stage is rebuilt in a buffer the stage scan reuses.
func (g *gen) scan(start []byte, fn func(key []byte, value uint64) bool) int {
	ms := memStack{newCursor(g.mem.ScanStates, start, memChunk)}
	if g.frozen != nil {
		ms = append(ms, newCursor(g.frozen.ScanStates, start, memChunk))
	}
	return walk(ms, g.static, start, nil, fn)
}

// scanN collects up to n live entries from the smallest key >= start as
// copies the caller may keep.
func (g *gen) scanN(start []byte, n int) []index.Entry {
	if n <= 0 {
		return nil
	}
	col := keycodec.NewCollector(nil, n)
	g.scan(start, col.Emit)
	return col.Entries()
}
