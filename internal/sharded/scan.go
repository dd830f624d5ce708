package sharded

import (
	"sort"

	"mets/internal/index"
	"mets/internal/keycodec"
	"mets/internal/keys"
	"mets/internal/par"
)

// Range scans fan out across the shards and re-merge into one ordered
// stream. Each shard is walked through a chunked hybrid.Iterator that pins
// its shard's generation only during a refill, so no shard state is held
// while the caller's callback runs and the callback may call back into the
// index. Consistency is chunk-granular: each refill reads one generation of
// its shard.
//
// Because the Router assigns shards disjoint, ordered key ranges, the merge
// of the per-shard streams degenerates for sequential consumption: visiting
// shards in index order and concatenating their streams IS the ordered
// merge. Scan exploits that and creates each shard's iterator lazily — a
// short scan satisfied by one shard never touches the others. ScanN instead
// prefetches all candidate shards in parallel and runs a real k-way merge
// over the buffers, trading extra fetched entries for fan-out parallelism.
//
// With a codec active the fan-out, routing, and merge all happen in encoded
// space (encoding is strictly monotone, so encoded order IS key order); keys
// are decoded once on emit.

// entrySource is one sorted stream feeding the k-way merge.
type entrySource interface {
	peek() *index.Entry
	advance()
}

// sliceSource replays a pre-fetched sorted slice.
type sliceSource struct {
	es []index.Entry
	i  int
}

func (s *sliceSource) peek() *index.Entry {
	if s.i >= len(s.es) {
		return nil
	}
	return &s.es[s.i]
}

func (s *sliceSource) advance() { s.i++ }

// kwayMerge drives fn over the union of the sources in ascending key order
// until fn returns false, returning the number of entries visited. Sources
// need not be disjoint: on equal keys the lowest-indexed source wins and the
// duplicates are skipped (with the disjoint ranges the Router guarantees,
// ties never actually occur). The shard counts in play are small, so a
// linear min-scan beats a heap.
func kwayMerge(srcs []entrySource, fn func(key []byte, value uint64) bool) int {
	count := 0
	for {
		var best *index.Entry
		bestIdx := -1
		for i, s := range srcs {
			e := s.peek()
			if e == nil {
				continue
			}
			if best == nil || keys.Compare(e.Key, best.Key) < 0 {
				best, bestIdx = e, i
			}
		}
		if best == nil {
			return count
		}
		key, value := best.Key, best.Value
		for i := bestIdx; i < len(srcs); i++ {
			if e := srcs[i].peek(); e != nil && keys.Compare(e.Key, key) == 0 {
				srcs[i].advance()
			}
		}
		count++
		if !fn(key, value) {
			return count
		}
	}
}

// Scan visits live entries in key order from the smallest key >= start,
// walking the shards lazily in range order (see the file comment for why
// concatenation is the ordered merge here). No shard state is held while fn
// runs. Without a codec, keys handed to fn are fresh copies the callback may
// retain; with a codec they are decoded into a reused scratch buffer and are
// valid only for the duration of the callback (copy to retain).
func (s *Index) Scan(start []byte, fn func(key []byte, value uint64) bool) int {
	// One pin for the whole scan keeps the core triple (codec, router,
	// shards) from being reclaimed mid-iteration under a concurrent
	// codec-retraining bulk load.
	defer s.epochs.Pin().Unpin()
	c := s.load()
	start, fn = keycodec.ScanEncoded(c.codec, start, fn)
	first := 0
	if start != nil {
		first = c.router.Shard(start)
	}
	count := 0
	for i := first; i < len(c.shards); i++ {
		// start precedes every key of the shards after the first, so it is a
		// valid (if loose) lower bound for all of them.
		for it := c.shards[i].NewIterator(start); it.Valid(); it.Next() {
			e := it.Entry()
			count++
			if !fn(e.Key, e.Value) {
				return count
			}
		}
	}
	return count
}

// ScanN returns up to n live entries in key order from the smallest key >=
// start, fanning the per-shard prefetch out in parallel: every shard that
// can contribute collects up to n entries concurrently (each under its own
// pin), and the k-way merge then keeps the globally smallest n. This
// is the bounded-scan fast path (YCSB-E style short scans with a known
// limit); use Scan for unbounded iteration. Returned keys are fresh copies
// in raw (decoded) space.
func (s *Index) ScanN(start []byte, n int) []index.Entry {
	if n <= 0 {
		return nil
	}
	defer s.epochs.Pin().Unpin()
	c := s.load()
	if c.codec != nil && start != nil {
		start = c.codec.EncodeBound(start)
	}
	first := 0
	if start != nil {
		first = c.router.Shard(start)
	}
	nsrc := len(c.shards) - first
	var out []index.Entry
	if nsrc == 1 {
		out = c.shards[first].ScanN(start, n)
	} else {
		bufs := make([][]index.Entry, nsrc)
		fns := make([]func(), nsrc)
		for i := 0; i < nsrc; i++ {
			i := i
			fns[i] = func() { bufs[i] = c.shards[first+i].ScanN(start, n) }
		}
		par.Run(fns...)
		srcs := make([]entrySource, nsrc)
		for i, b := range bufs {
			srcs[i] = &sliceSource{es: b}
		}
		out = make([]index.Entry, 0, minInt(n, 1024))
		kwayMerge(srcs, func(k []byte, v uint64) bool {
			out = append(out, index.Entry{Key: k, Value: v})
			return len(out) < n
		})
	}
	if c.codec != nil {
		for i := range out {
			out[i].Key = c.codec.Decode(out[i].Key)
		}
	}
	return out
}

// LowerBound returns the smallest live entry with key >= start; the key is a
// fresh copy in raw space.
func (s *Index) LowerBound(start []byte) (index.Entry, bool) {
	es := s.ScanN(start, 1)
	if len(es) == 0 {
		return index.Entry{}, false
	}
	return es[0], true
}

// sortSearchEntries returns the index of the first entry with Key >= b.
func sortSearchEntries(es []index.Entry, b []byte) int {
	return sort.Search(len(es), func(i int) bool { return keys.Compare(es[i].Key, b) >= 0 })
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
