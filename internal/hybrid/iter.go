package hybrid

import (
	"mets/internal/index"
	"mets/internal/keys"
	"mets/internal/reconfig"
)

// This file exports the stage-snapshot hooks that layered consumers (the
// range-sharded index in internal/sharded, bulk loaders) build on: a chunked
// Iterator that holds no generation across user code, the bounded ScanN,
// direct frozen-stage introspection, and BulkLoad.

// ScanN collects up to n live entries in key order starting at the smallest
// key >= start. One call reads one generation, and the returned entries are
// copies the caller may retain.
func (h *Index) ScanN(start []byte, n int) []index.Entry {
	h.obsScan.Inc()
	return h.gen.Load().scanN(h.codec, start, n)
}

// LowerBound returns the smallest live entry with key >= start (the
// range-query primitive the sharded fan-out and the encoded-space
// equivalence tests exercise). The returned key is a fresh copy.
func (h *Index) LowerBound(start []byte) (index.Entry, bool) {
	es := h.ScanN(start, 1)
	if len(es) == 0 {
		return index.Entry{}, false
	}
	return es[0], true
}

// Iterator chunk sizing: each refill restarts a cursor seek on the static
// and dynamic stages, so the first fill is sized to satisfy a typical short
// range scan (YCSB-E draws 50-100 entries) in a single pass, then
// doubles up to the cap so long scans amortize further refills.
const (
	iterFirstChunk = 128
	iterChunk      = 512
)

// Iterator walks the live entries of the index in key order, pulling one
// chunk of entries per generation load. Unlike Scan — which stays on one
// generation for its whole duration — an Iterator holds nothing between
// chunks, so an arbitrarily long iteration never keeps a superseded
// generation's stages alive. The trade-off is chunk granularity consistency:
// each chunk reads one generation, but entries inserted behind the cursor
// after a refill are not revisited.
type Iterator struct {
	h     *Index
	buf   []index.Entry
	i     int
	next  []byte // resume key for the next refill
	chunk int    // next refill size (doubles up to iterChunk)
	done  bool   // no more refills
}

// NewIterator returns an iterator positioned at the smallest key >= start
// (nil starts at the beginning).
func (h *Index) NewIterator(start []byte) *Iterator {
	it := &Iterator{h: h, next: start, chunk: iterFirstChunk}
	if it.next == nil {
		it.next = []byte{}
	}
	it.fill()
	return it
}

func (it *Iterator) fill() {
	it.i = 0
	if it.done {
		it.buf = nil
		return
	}
	it.buf = it.h.ScanN(it.next, it.chunk)
	if len(it.buf) < it.chunk {
		it.done = true
		return
	}
	it.next = keys.Next(it.buf[len(it.buf)-1].Key)
	if it.chunk < iterChunk {
		it.chunk *= 2
	}
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool { return it.i < len(it.buf) }

// Entry returns the current entry; the key is owned by the caller.
func (it *Iterator) Entry() index.Entry { return it.buf[it.i] }

// Key returns the current key.
func (it *Iterator) Key() []byte { return it.buf[it.i].Key }

// Value returns the current value.
func (it *Iterator) Value() uint64 { return it.buf[it.i].Value }

// Next advances to the next entry, refilling from the index as needed.
func (it *Iterator) Next() {
	it.i++
	if it.i >= len(it.buf) && !it.done {
		it.fill()
	}
}

// FrozenLen returns the entry count of the sealed frozen stage, or 0 when no
// background merge is in flight.
func (h *Index) FrozenLen() int {
	if f := h.gen.Load().frozen; f != nil {
		return f.Len()
	}
	return 0
}

// BulkLoad replaces the index contents with the given sorted unique entries,
// building the static stage directly instead of funnelling every entry
// through the dynamic stage and a merge, and publishes a generation holding
// only that stage. An in-flight background merge is waited out first. The
// entries slice is handed to the static builder and must not be modified
// afterwards (with a codec configured the builder receives a fresh encoded
// copy and the input is left untouched; encoding preserves the sort order).
// With Config.Dir the journal is reset to the loaded entries crash-atomically
// (journal.go); an error from that reset is returned after the load has taken
// effect in memory, like every other journal failure.
func (h *Index) BulkLoad(entries []index.Entry) error {
	if h.codec != nil {
		enc := make([]index.Entry, len(entries))
		for i, e := range entries {
			enc[i] = index.Entry{Key: h.codec.Encode(e.Key), Value: e.Value}
		}
		entries = enc
	}
	st, err := h.build(entries)
	if err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.merging {
		h.mergeDone.Wait()
	}
	next := &gen{mem: h.newMem(), filter: h.newFilter(len(entries) / h.cfg.MergeRatio), static: st}
	h.publishLocked(next, reconfig.Prepared{})
	h.live.Store(int64(len(entries)))
	return h.jresetLocked(entries)
}
