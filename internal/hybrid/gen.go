package hybrid

import (
	"mets/internal/bloom"
	"mets/internal/index"
	"mets/internal/keys"
	"mets/internal/obs"
	"mets/internal/skiplist"
)

// gen is one generation of the index: everything a reader can reach. The
// struct is immutable once published, for as long as anything references it;
// the current mem and filter follow the memtable's single-writer contract,
// frozen and static are sealed. The live index and every Snapshot resolve reads through
// the same get and scan below.
//
// Bloom filters are probed and fed with atomic bit operations: the writer
// feeds the live filter while readers probe it with no lock between them.
type gen struct {
	mem    memtable
	filter *bloom.Filter // nil when DisableBloom

	// Sealed former memtable (with the filter sealed beside it) while a
	// background merge rebuilds the static stage from it; nil otherwise.
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

// get resolves key against the stages in order; the uppermost stage that
// knows the key — as a value or as a tombstone — decides.
func (g *gen) get(key []byte, bloomSkip *obs.Counter) (uint64, bool) {
	if g.filter == nil || g.filter.ContainsAtomic(key) {
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
	if g.frozen != nil && (g.frozenFilter == nil || g.frozenFilter.ContainsAtomic(key)) {
		if v, live, tomb := g.frozen.Get(key); live || tomb {
			return v, live
		}
	}
	if g.static != nil {
		return g.static.Get(key)
	}
	return 0, false
}

// dynChunk is how many entries a scan cursor buffers at a time; short scans
// (the YCSB-E common case) then touch only O(scan length) entries. A
// memtable cursor starts at memChunk and doubles up to dynChunk: the dynamic
// stage holds about 1/MergeRatio of the entries, so a short scan consumes
// few of its states, and each one visited is a cache miss.
const (
	dynChunk = 64
	memChunk = 8
)

// stateScan is the ordered-iteration shape every stage is read through
// (memtable.ScanStates; a static stage adapts with no tombstones).
type stateScan func(start []byte, fn func(key []byte, value uint64, tomb bool) bool) int

// cloneKey copies a key a stage only lends for the duration of a callback.
// make+copy rather than append: no size-class rounding on the scan hot path.
func cloneKey(k []byte) []byte {
	kk := make([]byte, len(k))
	copy(kk, k)
	return kk
}

// keySlab clones the keys a static stage lends (index.Static) into shared
// buffers: one allocation per slab, not one per key — a million fewer in a
// full merge, 64 fewer in a scan-cursor refill. A slab that cannot take the
// next key is left to the keys already cut from it and a larger one started,
// so every clone stays valid for as long as it is referenced; the keys of one
// slab are collected together.
type keySlab struct{ buf []byte }

const (
	slabMin = 1 << 10 // a 64-entry refill of short keys fits
	slabMax = 1 << 20
)

func (s *keySlab) clone(k []byte) []byte {
	if len(k) > cap(s.buf)-len(s.buf) {
		size := min(max(2*cap(s.buf), slabMin), slabMax)
		s.buf = make([]byte, 0, max(size, len(k)))
	}
	n := len(s.buf)
	s.buf = append(s.buf, k...)
	return s.buf[n:len(s.buf):len(s.buf)]
}

// staticStates adapts a static stage to the cursor's shape; one slab serves
// all of a cursor's refills.
func staticStates(st index.Static) stateScan {
	var slab keySlab
	return func(start []byte, fn func([]byte, uint64, bool) bool) int {
		return st.Scan(start, func(k []byte, v uint64) bool {
			return fn(slab.clone(k), v, false)
		})
	}
}

// cursor pulls a stage's sorted states lazily in chunks, so no stage lock is
// ever held while the scan's consumer runs.
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
	if c.chunk < dynChunk { // only a memtable cursor starts below the cap
		c.chunk *= 2
	}
	c.scan(c.next, func(k []byte, v uint64, tomb bool) bool {
		if c.buf == nil { // sized once, and not at all for an empty stage
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

// scan merges the stages on the fly from the smallest key >= start: on equal
// keys the uppermost stage wins, and a tombstone there suppresses the key
// altogether. Each cursor refill is an atomic view of its stage; fn runs
// with no stage lock held.
func (g *gen) scan(start []byte, fn func(key []byte, value uint64) bool) int {
	curs := make([]*cursor, 0, 3)
	curs = append(curs, newCursor(g.mem.ScanStates, start, memChunk))
	if g.frozen != nil {
		curs = append(curs, newCursor(g.frozen.ScanStates, start, memChunk))
	}
	if g.static != nil {
		curs = append(curs, newCursor(staticStates(g.static), start, dynChunk))
	}
	count := 0
	for {
		// Smallest head key; the strict comparison keeps the uppermost stage
		// on ties.
		var best *skiplist.StateEntry
		for _, c := range curs {
			if e := c.peek(); e != nil && (best == nil || keys.Compare(e.Key, best.Key) < 0) {
				best = e
			}
		}
		if best == nil {
			return count
		}
		e := *best
		// Consume the winner and every shadowed copy of the same key.
		for _, c := range curs {
			if p := c.peek(); p != nil && keys.Compare(p.Key, e.Key) == 0 {
				c.advance()
			}
		}
		if e.Tomb {
			continue
		}
		count++
		if !fn(e.Key, e.Value) {
			return count
		}
	}
}
