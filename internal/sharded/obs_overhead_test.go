//go:build !race

package sharded

import (
	"testing"
	"time"

	"mets/internal/obs"
)

// TestObsOverheadGuard is internal/hybrid's instrumentation-cost gate on the
// configuration the gated benchmark's lib-read workload runs — sharded, epoch
// reads, HOPE 3-Grams, registry attached — where the codec's latency
// histograms and byte counters sit on every Get and on every entry a scan
// emits. The enabled-registry mix of point reads and 50-entry scans must
// stay within 10% of the nil-registry one. Same methodology as the hybrid
// guard: interleaved A/B rounds, minimum per-op time of each side, a few
// attempts; run by `make obs-overhead`, excluded under the race detector and
// skipped with -short.
func TestObsOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}

	const (
		nKeys    = 100_000
		iters    = 100_000 // nine in ten are Gets, one in ten a ScanN(50)
		rounds   = 5
		attempts = 5 // the codec's counters and sampled timers cost 6-8% here
		maxRatio = 1.10
	)
	plain, ks := newLibReadIndex(t, nKeys, nil, true)
	instr, _ := newLibReadIndex(t, nKeys, obs.NewRegistry(), true)

	var sink uint64
	measure := func(s *Index) float64 {
		state := uint64(29)
		var acc uint64
		start := time.Now()
		for i := 0; i < iters; i++ {
			state = state*2862933555777941757 + 3037000493
			k := ks[state%uint64(len(ks))]
			if i%10 == 0 {
				acc += uint64(len(s.ScanN(k, 50)))
			} else {
				v, _ := s.Get(k)
				acc += v
			}
		}
		el := time.Since(start)
		sink += acc
		return float64(el.Nanoseconds()) / float64(iters)
	}

	measure(plain)
	measure(instr)

	var lastPlain, lastInstr float64
	for attempt := 1; attempt <= attempts; attempt++ {
		minPlain, minInstr := 0.0, 0.0
		for r := 0; r < rounds; r++ {
			p := measure(plain)
			q := measure(instr)
			if r == 0 || p < minPlain {
				minPlain = p
			}
			if r == 0 || q < minInstr {
				minInstr = q
			}
		}
		lastPlain, lastInstr = minPlain, minInstr
		t.Logf("attempt %d: disabled %.1f ns/op, enabled %.1f ns/op (%.1f%% overhead)",
			attempt, minPlain, minInstr, 100*(minInstr/minPlain-1))
		if minInstr <= minPlain*maxRatio {
			_ = sink
			return
		}
	}
	t.Fatalf("instrumentation overhead above %.0f%%: disabled %.1f ns/op, enabled %.1f ns/op",
		100*(maxRatio-1), lastPlain, lastInstr)
}
