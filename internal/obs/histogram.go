package obs

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// NumBuckets is the bucket count of a Histogram: bucket 0 holds the value 0
// and bucket i (1 <= i <= 64) holds values v with bit length i, i.e.
// v in [2^(i-1), 2^i). 64 power-of-two buckets cover every positive int64
// nanosecond duration (~292 years), so no observation is ever clamped.
const NumBuckets = 65

// Histogram is a log2-bucketed latency histogram with an exact max. All
// methods are safe for concurrent use; an observation costs four atomic
// operations (bucket, count, sum, max). Nil-safe: Observe on a nil histogram
// is a no-op, Snapshot returns a zero snapshot.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [NumBuckets]atomic.Int64

	// Slow-op exemplar, updated only when an observation sets a new max —
	// a rare, already-slow path, so the mutex never shows up in profiles.
	exMu sync.Mutex
	ex   Exemplar
}

// Exemplar identifies the op behind a histogram's current maximum: the causal
// span it belonged to (e.g. the WAL group-commit batch) and a short
// human-readable key tag (e.g. the Put's key prefix).
type Exemplar struct {
	Ns     int64  `json:"ns"`
	SpanID uint64 `json:"span,omitempty"`
	Key    string `json:"key,omitempty"`
}

// NewHistogram creates an empty histogram (usable standalone, without a
// registry).
func NewHistogram() *Histogram { return new(Histogram) }

// BucketOf returns the bucket index for a nanosecond value (negatives clamp
// to bucket 0).
func BucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	return bits.Len64(uint64(ns))
}

// BucketUpper returns the largest value bucket i holds: 0 for bucket 0,
// 2^i - 1 otherwise.
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return int64(^uint64(0) >> 1) // math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// Observe records a duration. No-op on a nil histogram.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNs(int64(d)) }

// ObserveNs records a raw nanosecond value. No-op on a nil histogram.
func (h *Histogram) ObserveNs(ns int64) { h.observe(ns) }

// observe does the recording and reports whether ns set a new max.
func (h *Histogram) observe(ns int64) bool {
	if h == nil {
		return false
	}
	if ns < 0 {
		ns = 0
	}
	h.buckets[BucketOf(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur {
			return false
		}
		if h.max.CompareAndSwap(cur, ns) {
			return true
		}
	}
}

// ObserveExemplar records ns like ObserveNs and, if it set a new max,
// remembers (span, key) as the histogram's slow-op exemplar and reports true —
// the caller's cue to End that span, so the exemplar's ID resolves to a record
// in the ring. The exemplar update (and the copy of key, which the caller may
// reuse) happens only on the new-max path, so the common case costs exactly
// what ObserveNs costs. No-op (false) on a nil histogram.
func (h *Histogram) ObserveExemplar(ns int64, span uint64, key []byte) bool {
	if !h.observe(ns) {
		return false
	}
	h.exMu.Lock()
	// Racing new-max observers can interleave; keep the slowest.
	if ns >= h.ex.Ns {
		h.ex = Exemplar{Ns: ns, SpanID: span, Key: string(key)}
	}
	h.exMu.Unlock()
	return true
}

// HistogramSnapshot is an immutable copy of a histogram, mergeable with
// other snapshots (per-thread or per-shard histograms fold into one).
//
// Count is recomputed as the sum of the copied buckets, so a snapshot taken
// while writers are active is internally consistent: quantile ranks always
// resolve to a bucket. Sum and Max are loaded separately and may run a hair
// ahead of or behind the buckets under concurrency.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum_ns"`
	Max     int64             `json:"max_ns"`
	Buckets [NumBuckets]int64 `json:"-"`
	// Quantile summaries precomputed at snapshot time so the JSON a debug
	// endpoint serves is self-describing.
	P50 int64 `json:"p50_ns"`
	P95 int64 `json:"p95_ns"`
	P99 int64 `json:"p99_ns"`
	// Exemplar is the op behind Max, when the instrumented path recorded one
	// via ObserveExemplar.
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// Snapshot copies the histogram. Zero snapshot on nil.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		s.Count += n
	}
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	h.exMu.Lock()
	if h.ex.Ns > 0 {
		ex := h.ex
		s.Exemplar = &ex
	}
	h.exMu.Unlock()
	s.fillQuantiles()
	return s
}

func (s *HistogramSnapshot) fillQuantiles() {
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
}

// Quantile returns an upper bound (in ns) for the q-quantile: the largest
// value of the bucket the quantile rank falls in, so the true quantile is
// never under-reported and is within a factor of 2 (one log2 bucket) of the
// returned value. q outside (0,1] clamps; 0 on an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range s.Buckets {
		cum += s.Buckets[i]
		if cum >= rank {
			u := BucketUpper(i)
			// The exact max sharpens the top bucket: no stored value
			// exceeds it.
			if u > s.Max && s.Max > 0 {
				return s.Max
			}
			return u
		}
	}
	return s.Max
}

// String renders the headline figures for human-readable dumps.
func (s HistogramSnapshot) String() string {
	return fmt.Sprintf("n=%d p50=%v p95=%v p99=%v max=%v",
		s.Count, time.Duration(s.P50), time.Duration(s.P95),
		time.Duration(s.P99), time.Duration(s.Max))
}
