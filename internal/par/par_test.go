package par

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// TestChunksPartition is the contract callers rely on: for every worker count
// and size, the ranges fn sees are non-empty, disjoint, cover [0, n) exactly,
// carry their own position as the chunk index, and number NumChunks — callers
// size per-chunk result slices from it and slice their input by [lo, hi).
func TestChunksPartition(t *testing.T) {
	type span struct{ chunk, lo, hi int }
	for workers := 1; workers <= 130; workers++ {
		for _, n := range []int{0, 1, 2047, 2048, 2049, 4096, 65537} {
			var mu sync.Mutex
			var seen []span
			Chunks(workers, n, func(chunk, lo, hi int) {
				mu.Lock()
				seen = append(seen, span{chunk, lo, hi})
				mu.Unlock()
			})
			if got, want := len(seen), NumChunks(workers, n); got != want {
				t.Fatalf("workers=%d n=%d: fn ran %d times, NumChunks says %d", workers, n, got, want)
			}
			if len(seen) > workers {
				t.Fatalf("workers=%d n=%d: %d chunks", workers, n, len(seen))
			}
			sort.Slice(seen, func(i, j int) bool { return seen[i].chunk < seen[j].chunk })
			next := 0
			for i, s := range seen {
				if s.chunk != i || s.lo != next || s.hi <= s.lo {
					t.Fatalf("workers=%d n=%d: chunk %d is %+v, want lo=%d and a non-empty range", workers, n, i, s, next)
				}
				next = s.hi
			}
			if next != n {
				t.Fatalf("workers=%d n=%d: chunks end at %d", workers, n, next)
			}
		}
	}
}

func TestRun(t *testing.T) {
	Run() // no functions: returns
	for _, n := range []int{1, 7} {
		var ran atomic.Int64
		fns := make([]func(), n)
		for i := range fns {
			fns[i] = func() { ran.Add(1) }
		}
		Run(fns...)
		if ran.Load() != int64(n) {
			t.Fatalf("Run of %d functions ran %d", n, ran.Load())
		}
	}
}
