package sharded

import (
	"sort"

	"mets/internal/index"
	"mets/internal/keycodec"
	"mets/internal/keys"
)

// Range scans walk the shards in router order. Because the Router assigns
// shards disjoint, ordered key ranges, visiting shards in index order and
// concatenating their streams IS the ordered merge. Scan and ScanN both
// exploit that lazily: a shard is touched only once the shards before it are
// exhausted, so a short scan satisfied by one shard never reads the others.
//
// Both walk each shard with that shard's own Scan (hybrid.Index.Scan, or
// hybrid.Snapshot.Scan under a sharded Snapshot), which holds nothing but a
// reference to the one generation of its shard it reads: the callback may call
// back into the index, no writer or merge waits for it, and the generation
// stays reachable — is not garbage — for as long as the walk of that shard
// runs. Scan hands the lent key on to the caller's callback; ScanN runs no
// caller code and lends the keys to one collector (scanN), which copies only
// what it returns.
//
// With a codec active the routing and the walk happen in encoded space
// (encoding is strictly monotone, so encoded order IS key order); keys are
// decoded once on emit, through keycodec's run decoder.

// Scan visits live entries in key order from the smallest key >= start,
// walking the shards lazily in range order (see the file comment for why
// concatenation is the ordered merge here). Each shard is read at one
// generation, loaded when the walk reaches it, and fn may call back into the
// index. The key is lent, with or without a codec: it lives in a buffer the
// stage scan or the decoder reuses, is valid only until fn returns and is not
// to be modified — copy it to retain it, or use ScanN.
func (s *Index) Scan(start []byte, fn func(key []byte, value uint64) bool) int {
	return scan(s.codec, s.router, s.shards, start, fn)
}

// shardScanner is a shard of the live index or of a snapshot.
type shardScanner interface {
	Scan(start []byte, fn func(key []byte, value uint64) bool) int
}

// scan is Scan over the shards of the live index or of a snapshot.
func scan[S shardScanner](codec keycodec.Codec, r *Router, shards []S, start []byte, fn func(key []byte, value uint64) bool) int {
	start, fn = keycodec.ScanEncoded(codec, start, fn)
	first := 0
	if start != nil {
		first = r.Shard(start)
	}
	count := 0
	stopped := false
	each := func(k []byte, v uint64) bool {
		stopped = !fn(k, v)
		return !stopped
	}
	// start precedes every key of the shards after the first, so it is a
	// valid (if loose) lower bound for all of them.
	for i := first; i < len(shards) && !stopped; i++ {
		count += shards[i].Scan(start, each)
	}
	return count
}

// ScanN returns up to n live entries in key order from the smallest key >=
// start: the owning shard first, then each following shard for the entries
// still missing, stopping at n. This is the bounded-scan fast path (YCSB-E
// style short scans with a known limit); use Scan for unbounded iteration.
// Returned keys are fresh copies in raw (decoded) space.
func (s *Index) ScanN(start []byte, n int) []index.Entry {
	return scanN(s.codec, s.router, s.shards, start, n)
}

// scanN is ScanN over the shards of the live index or of a snapshot: each shard
// in turn lends its (encoded) keys to one collector, which decodes and copies
// only what is returned — no shard materializes entries of its own.
func scanN[S shardScanner](codec keycodec.Codec, r *Router, shards []S, start []byte, n int) []index.Entry {
	if n <= 0 {
		return nil
	}
	col := keycodec.NewCollector(codec, n)
	start = keycodec.Bound(codec, start)
	first := 0
	if start != nil {
		first = r.Shard(start)
	}
	// start precedes every key of the shards after the first, so it is a
	// valid (if loose) lower bound for all of them.
	for i := first; i < len(shards) && !col.Full(); i++ {
		shards[i].Scan(start, col.Emit)
	}
	return col.Entries()
}

// sortSearchEntries returns the index of the first entry with Key >= b.
func sortSearchEntries(es []index.Entry, b []byte) int {
	return sort.Search(len(es), func(i int) bool { return keys.Compare(es[i].Key, b) >= 0 })
}
