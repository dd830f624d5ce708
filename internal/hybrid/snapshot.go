package hybrid

import "mets/internal/index"

// This file implements point-in-time snapshot reads over the dual-stage
// architecture — the MVCC layer the server's SNAPSHOT_* protocol ops build
// on. The static (and, mid-merge, frozen) stages are immutable once
// published, so a snapshot captures them by reference: the generation swap
// that a later merge performs replaces *pointers*, never mutates the stages
// a snapshot already holds, and Go's GC keeps the captured structures alive
// for as long as the snapshot references them — exactly as it does for a
// live reader still on a superseded generation. Only the live
// write stage needs copying, and its size is bounded by the merge trigger
// (~1/MergeRatio of the index), so a snapshot costs O(dynamic stage), not
// O(index).
//
// The capture drains the memtable under the index's writer mutex, so no
// write lands while it runs: a snapshot is a cut, holding every write that
// returned before it began and none that began after it returned. Readers
// take no lock; a write that arrives during a capture waits for its drain.
// Cut extends the same instant over several indexes — the sharded engine's
// shards.
//
// A Snapshot holds no lock once captured: a long-running snapshot scan
// therefore never blocks writers and never goes stale-unsafe — the worst it
// can do is keep a superseded static stage alive until it is released.

// Snapshot is an immutable point-in-time view of the index. Reads against
// it are unsynchronized with the live index: Get/Scan/ScanN observe exactly
// the entries that were live when Cut returned, regardless of
// concurrent writes, merges, seals, or bulk loads. Release drops the stage
// references early (optional; the GC would reclaim them with the Snapshot
// either way).
//
// It is a cut: a write that returned before Cut was called is in it, and so
// is every write that came before one it holds.
type Snapshot struct {
	// g is a private generation nobody publishes: the live memtable's
	// drained states as its mem, unfiltered, the captured frozen stage (when
	// a background merge was in flight) with its sealed filter, and the
	// captured static stage. Reads go through the same gen.get / gen.scan as
	// the live index.
	g *gen
}

// Cut captures one point-in-time view of each index, all at one instant:
// the current generation's sealed stages by reference, and the live
// memtable drained. It takes every index's writer mutex in argument order,
// drains every memtable, then releases them; one index's snapshot is
// Cut(h)[0]. Nothing else holds two writer mutexes, so cuts that list
// shared indexes in one order — the sharded engine passes its shards in
// shard order — cannot deadlock.
func Cut(hs ...*Index) []*Snapshot {
	for _, h := range hs {
		h.mu.Lock()
	}
	snaps := make([]*Snapshot, len(hs))
	for i, h := range hs {
		cur := h.gen.Load()
		g := &gen{
			mem:          sliceMem{states: cur.mem.SnapshotStates()},
			frozen:       cur.frozen,
			frozenFilter: cur.frozenFilter,
			static:       cur.static,
		}
		g.filter.Store(unfiltered)
		snaps[i] = &Snapshot{g: g}
	}
	for _, h := range hs {
		h.mu.Unlock()
	}
	return snaps
}

// Release drops the captured stage references, leaving an empty view.
// Calling it is optional but lets large static stages be reclaimed before
// the Snapshot value itself goes out of scope.
func (s *Snapshot) Release() { s.g = &gen{mem: sliceMem{}} }

// Get returns the value stored under key at snapshot time.
func (s *Snapshot) Get(key []byte) (uint64, bool) {
	return s.g.get(key, nil)
}

// Scan visits the snapshot's live entries in key order from the smallest
// key >= start, merging the captured stages exactly as the live Scan does;
// the key is lent for the callback, as there.
func (s *Snapshot) Scan(start []byte, fn func(key []byte, value uint64) bool) int {
	return s.g.scan(start, fn)
}

// ScanN collects up to n snapshot entries from the smallest key >= start;
// the returned entries are fresh copies the caller may retain.
func (s *Snapshot) ScanN(start []byte, n int) []index.Entry {
	return s.g.scanN(start, n)
}
