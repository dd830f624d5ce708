package sharded

import (
	"sort"

	"mets/internal/keys"
)

// Router maps keys onto contiguous, disjoint key ranges ("shards") using
// n-1 sorted boundary keys: shard i covers [boundary[i-1], boundary[i]), with
// shard 0 open below and the last shard open above. Because the ranges are
// disjoint and ordered, the concatenation of the shards in index order is the
// whole key space in key order — which is what lets range scans walk the
// shards one after the other with no merge and no inter-shard deduplication.
type Router struct {
	boundaries [][]byte // strictly increasing
}

// NewRouter builds a router from explicit boundary keys. Boundaries are
// copied, sorted, and deduplicated; the resulting router has
// len(boundaries)+1 shards.
func NewRouter(boundaries [][]byte) *Router {
	bs := make([][]byte, 0, len(boundaries))
	for _, b := range boundaries {
		bs = append(bs, append([]byte(nil), b...))
	}
	bs = keys.Dedup(bs)
	return &Router{boundaries: bs}
}

// UniformRouter splits the key space into n shards at evenly spaced one-byte
// prefixes — the sample-free default, reasonable for keys whose first byte is
// roughly uniform (random integers, hashes). n is capped at 256.
func UniformRouter(n int) *Router {
	if n > 256 {
		n = 256
	}
	if n < 1 {
		n = 1
	}
	bs := make([][]byte, 0, n-1)
	for i := 1; i < n; i++ {
		bs = append(bs, []byte{byte(i * 256 / n)})
	}
	return &Router{boundaries: bs}
}

// RouterFromSample learns n-1 boundaries as the quantiles of a key sample,
// so shards receive roughly equal key counts under the sampled distribution
// (the "learned-from-sample splitter"). The sample is copied and may contain
// duplicates; when it has fewer than n distinct keys the router degrades to
// fewer shards rather than emitting empty ranges.
func RouterFromSample(sample [][]byte, n int) *Router {
	if n < 1 {
		n = 1
	}
	ss := make([][]byte, 0, len(sample))
	for _, k := range sample {
		ss = append(ss, append([]byte(nil), k...))
	}
	ss = keys.Dedup(ss)
	bs := make([][]byte, 0, n-1)
	for i := 1; i < n; i++ {
		q := i * len(ss) / n
		if q >= len(ss) {
			break
		}
		b := ss[q]
		if len(bs) > 0 && keys.Compare(bs[len(bs)-1], b) >= 0 {
			continue
		}
		bs = append(bs, b)
	}
	return &Router{boundaries: bs}
}

// NumShards returns the number of key ranges the router distinguishes.
func (r *Router) NumShards() int { return len(r.boundaries) + 1 }

// Shard returns the index of the range containing key.
func (r *Router) Shard(key []byte) int {
	// First boundary strictly greater than key; the key belongs to the range
	// just below it.
	return sort.Search(len(r.boundaries), func(i int) bool {
		return keys.Compare(r.boundaries[i], key) > 0
	})
}

// LowerBound returns the smallest key of shard i (nil for shard 0, meaning
// unbounded below).
func (r *Router) LowerBound(i int) []byte {
	if i == 0 {
		return nil
	}
	return r.boundaries[i-1]
}

// Boundaries returns the router's boundary keys (not a copy; treat as
// read-only).
func (r *Router) Boundaries() [][]byte { return r.boundaries }
