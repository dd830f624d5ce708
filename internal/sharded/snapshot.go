package sharded

import (
	"mets/internal/hybrid"
	"mets/internal/index"
	"mets/internal/keycodec"
)

// Snapshot is a read-only view of the sharded index assembled from one
// per-shard hybrid.Snapshot each, all captured at one instant (hybrid.Cut):
// every shard's writer mutex is held while the memtables are drained, so the
// view is a cut across shards — it holds every write that returned before
// Snapshot() was called, and every write that came before one it holds,
// whichever shard took it. Once Snapshot() returns, no concurrent write,
// merge, or bulk load changes what any read against it observes, and reads
// hold no lock, so arbitrarily long snapshot scans never block writers; a
// write that arrives during a capture waits for it.
type Snapshot struct {
	codec  keycodec.Codec
	router *Router
	shards []*hybrid.Snapshot
}

// Snapshot captures a read-only view of every shard at one instant.
func (s *Index) Snapshot() *Snapshot {
	return &Snapshot{codec: s.codec, router: s.router, shards: hybrid.Cut(s.shards...)}
}

// Get returns the value stored under key at capture time.
func (s *Snapshot) Get(key []byte) (uint64, bool) { return get(s.codec, s.router, s.shards, key) }

// Scan visits the snapshot's entries in key order from the smallest key >=
// start. Shard ranges are disjoint and ordered, so concatenating the
// per-shard snapshot scans in shard order is the ordered merge (as in the
// live Scan). The key is lent, as in Index.Scan: valid only during the
// callback.
func (s *Snapshot) Scan(start []byte, fn func(key []byte, value uint64) bool) int {
	return scan(s.codec, s.router, s.shards, start, fn)
}

// ScanN collects up to n snapshot entries from the smallest key >= start;
// returned keys are fresh copies in raw (decoded) space.
func (s *Snapshot) ScanN(start []byte, n int) []index.Entry {
	return scanN(s.codec, s.router, s.shards, start, n)
}

// Release drops every shard's captured stage references (see
// hybrid.Snapshot.Release).
func (s *Snapshot) Release() {
	for _, hs := range s.shards {
		hs.Release()
	}
}
