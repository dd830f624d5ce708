//go:build !race

package hybrid

import (
	"sort"
	"testing"
	"time"

	"mets/internal/keys"
	"mets/internal/obs"
)

// TestObsOverheadGuard is the instrumentation-cost gate run by
// `make obs-overhead` (CI property job): the read hot path of a hybrid index
// with an enabled registry must stay within 10% of the nil-registry no-op
// path. It is excluded under the race detector (timing there is meaningless)
// and skipped with -short.
//
// Methodology: two identical merged indexes, one instrumented, timed in 31
// back-to-back A/B pairs, alternating which side runs first; the verdict is
// the median of the per-pair ratios, decided once. A pair shares the host's
// state of the moment, so a burst of noise moves one ratio, not the median,
// and real overhead moves every ratio.
func TestObsOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}

	const (
		nKeys    = 1 << 15
		iters    = 200_000
		pairs    = 31
		maxRatio = 1.10
	)
	ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(nKeys+2000, 23)))[:nKeys]

	build := func(reg *obs.Registry) *Index {
		cfg := DefaultConfig()
		cfg.Obs = reg
		h := NewBTree(cfg)
		for i, k := range ks {
			h.Insert(k, uint64(i))
		}
		h.Merge()
		return h
	}
	plain := build(nil)
	instr := build(obs.NewRegistry())

	var sink uint64
	measure := func(h *Index) float64 {
		start := time.Now()
		var acc uint64
		for i := 0; i < iters; i++ {
			v, _ := h.Get(ks[i&(nKeys-1)])
			acc += v
		}
		el := time.Since(start)
		sink += acc
		return float64(el.Nanoseconds()) / float64(iters)
	}

	// Warm both paths (page in the static stage, settle the branch
	// predictors) before any timed round.
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
