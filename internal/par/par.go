// Package par provides the small deterministic fan-out helpers used by the
// bulk static-structure builders (btree.NewCompact, art.NewCompact). Work is
// split into contiguous chunks processed by a bounded set of goroutines;
// callers assemble results in chunk order, so the output is byte-identical
// regardless of the worker count.
package par

import (
	"runtime"
	"sync"
)

// Workers normalizes a configured worker count: 0 means GOMAXPROCS, anything
// below 1 means serial.
func Workers(n int) int {
	if n == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		return 1
	}
	return n
}

// minParallelItems is the work size below which fan-out overhead (goroutine
// startup, cache ping-pong) exceeds the gain and Chunks degrades to serial.
const minParallelItems = 2048

// Chunks splits [0, n) into at most `workers` contiguous chunks and runs fn
// on each concurrently. fn receives the chunk index and its [lo, hi) item
// range, which is never empty. With workers <= 1 (or small n) everything runs
// inline on the calling goroutine. NumChunks(workers, n) reports how many
// chunks fn will see.
func Chunks(workers, n int, fn func(chunk, lo, hi int)) {
	nc, per := split(workers, n)
	if nc <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	var wg sync.WaitGroup
	for c := 0; c < nc; c++ {
		lo := c * per
		hi := lo + per
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			fn(c, lo, hi)
		}(c, lo, hi)
	}
	wg.Wait()
}

// NumChunks returns the number of chunks Chunks will use for n items.
func NumChunks(workers, n int) int {
	nc, _ := split(workers, n)
	return nc
}

// split returns the chunk count and chunk size for n items. The size is
// ceil(n/workers) and the count is however many chunks of that size cover n,
// not workers: 2049 items over 64 workers are 63 chunks of 33, and a 64th
// would start past the end.
func split(workers, n int) (nc, per int) {
	if workers <= 1 || n < minParallelItems {
		if n == 0 {
			return 0, 0
		}
		return 1, n
	}
	per = (n + workers - 1) / workers
	return (n + per - 1) / per, per
}

// Run executes the given functions concurrently and waits for all of them.
// With one function it runs inline.
func Run(fns ...func()) {
	if len(fns) == 1 {
		fns[0]()
		return
	}
	var wg sync.WaitGroup
	for _, fn := range fns {
		wg.Add(1)
		go func(fn func()) {
			defer wg.Done()
			fn()
		}(fn)
	}
	wg.Wait()
}
