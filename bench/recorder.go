package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a quantile before it is
// reported: with fewer, the figure is the position of a handful of outliers,
// not a property of the distribution.
const minBeyond = 10

// recorder keeps the raw latency samples of one op class in one round. Raw
// samples make every quantile exact (the log2 obs.Histogram this benchmark
// replaces can only answer 2^k-1); one round of one class is at most a few
// hundred thousand int64s.
type recorder struct {
	ns     []int64
	sorted bool
}

func (r *recorder) add(d time.Duration) {
	r.ns = append(r.ns, int64(d))
	r.sorted = false
}

func (r *recorder) merge(o *recorder) {
	r.ns = append(r.ns, o.ns...)
	r.sorted = false
}

func (r *recorder) count() int { return len(r.ns) }

// quantile returns the nearest-rank q-quantile. It fails when fewer than
// minBeyond samples lie beyond it, so a workload too small to support the
// quantile it reports stops the run instead of printing noise.
func (r *recorder) quantile(q float64) (float64, error) {
	n := len(r.ns)
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	if !r.sorted {
		sort.Slice(r.ns, func(i, j int) bool { return r.ns[i] < r.ns[j] })
		r.sorted = true
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if beyond := n - 1 - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	return float64(r.ns[rank]), nil
}

// summary is a metric over the rounds of one run: the median of the
// per-round statistic, its quartiles, and how many rounds and raw samples it
// rests on.
type summary struct {
	Median  float64 `json:"value"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	Rounds  int     `json:"rounds"`
	Samples int     `json:"samples"`
}

// summarize reduces per-round values. Quartiles use the same inclusive
// linear interpolation on both sides of the median, so a constant series has
// zero spread.
func summarize(vals []float64, samples int) summary {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return summary{Median: interp(s, 0.5), Q1: interp(s, 0.25), Q3: interp(s, 0.75), Rounds: len(s), Samples: samples}
}

func interp(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return summarize(vals, 0).Median }

// medianDur times fn batches times, each over n calls, and returns the median
// per-call cost in ns. Batching keeps the two clock reads (~50 ns) below 1% of
// what is measured even for 10 ns calls.
func medianDur(batches, n int, fn func(i int)) float64 {
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(b*n + i)
		}
		per[b] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}
