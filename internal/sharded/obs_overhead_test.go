//go:build !race

package sharded

import (
	"sort"
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
// guard: 31 back-to-back A/B pairs, alternating which side runs first, and
// the median per-pair ratio decides, once; run by `make obs-overhead`,
// excluded under the race detector and skipped with -short.
func TestObsOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}

	const (
		nKeys    = 100_000
		iters    = 100_000 // nine in ten are Gets, one in ten a ScanN(50)
		pairs    = 31
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

	judgeOverhead(t, pairs, maxRatio, func() float64 { return measure(plain) }, func() float64 { return measure(instr) })
	_ = sink
}

// judgeOverhead times the disabled and enabled sides in pairs back to back,
// alternating which goes first, logs the quartiles of the enabled/disabled
// ratios, and fails t when their median is above maxRatio.
func judgeOverhead(t *testing.T, pairs int, maxRatio float64, disabled, enabled func() float64) {
	t.Helper()
	ratios := make([]float64, pairs)
	for i := range ratios {
		var off, on float64
		if i%2 == 0 {
			off, on = disabled(), enabled()
		} else {
			on, off = enabled(), disabled()
		}
		ratios[i] = on / off
	}
	sort.Float64s(ratios)
	median := ratios[pairs/2]
	t.Logf("enabled/disabled over %d pairs: median %.3f, quartiles %.3f / %.3f, range %.3f..%.3f",
		pairs, median, ratios[pairs/4], ratios[3*pairs/4], ratios[0], ratios[pairs-1])
	if median > maxRatio {
		t.Fatalf("instrumentation overhead above %.0f%%: median enabled/disabled ratio %.3f", 100*(maxRatio-1), median)
	}
}
