package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestBucketBoundaries pins the bucket layout exactly: bucket 0 = {0},
// bucket i = [2^(i-1), 2^i). Power-of-two boundary values are where an
// off-by-one in bits.Len64 usage would bite.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0}, {0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4},
		{255, 8}, {256, 9},
		{1023, 10}, {1024, 11}, {1025, 11},
		// MaxInt64 = 2^63-1 has bit length 63; bucket 64 exists only so
		// BucketOf never indexes out of range for any uint64 bit length.
		{math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := BucketOf(c.ns); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Every positive value v in bucket i must satisfy
	// BucketUpper(i-1) < v <= BucketUpper(i), and the buckets must tile without gaps or overlap.
	// Bucket 64 is skipped: its range starts at 2^63, beyond any int64 value.
	for i := 1; i < NumBuckets-1; i++ {
		lo, hi := BucketUpper(i-1)+1, BucketUpper(i)
		if lo > hi {
			t.Fatalf("bucket %d: lower %d > upper %d", i, lo, hi)
		}
		if BucketOf(lo) != i || BucketOf(hi) != i {
			t.Fatalf("bucket %d bounds [%d,%d] map to buckets %d,%d",
				i, lo, hi, BucketOf(lo), BucketOf(hi))
		}
		if i > 1 && BucketUpper(i-1)+1 != lo {
			t.Fatalf("gap between bucket %d and %d", i-1, i)
		}
	}
}

// TestQuantileVsSortedOracle drives random values through a histogram and
// checks every quantile against a sorted-slice oracle computing the exact
// expected answer from the documented contract: the upper bound of the bucket
// holding the rank-th smallest value, sharpened by the exact max.
func TestQuantileVsSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	distributions := map[string]func() int64{
		"uniform": func() int64 { return rng.Int63n(1 << 20) },
		"exp":     func() int64 { return int64(rng.ExpFloat64() * 50000) },
		"bimodal": func() int64 {
			if rng.Intn(10) == 0 {
				return 1_000_000 + rng.Int63n(1_000_000)
			}
			return 100 + rng.Int63n(900)
		},
		"tiny":      func() int64 { return rng.Int63n(4) },
		"singleton": func() int64 { return 777 },
	}
	for name, gen := range distributions {
		h := NewHistogram()
		vals := make([]int64, 0, 5000)
		for i := 0; i < 5000; i++ {
			v := gen()
			vals = append(vals, v)
			h.ObserveNs(v)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		snap := h.Snapshot()
		if snap.Count != int64(len(vals)) {
			t.Fatalf("%s: count = %d, want %d", name, snap.Count, len(vals))
		}
		var wantSum int64
		for _, v := range vals {
			wantSum += v
		}
		if snap.Sum != wantSum {
			t.Fatalf("%s: sum = %d, want %d", name, snap.Sum, wantSum)
		}
		if snap.Max != vals[len(vals)-1] {
			t.Fatalf("%s: max = %d, want %d", name, snap.Max, vals[len(vals)-1])
		}
		for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0} {
			rank := int64(q * float64(len(vals)))
			if rank < 1 {
				rank = 1
			}
			oracle := vals[rank-1] // rank-th smallest
			want := BucketUpper(BucketOf(oracle))
			if want > snap.Max && snap.Max > 0 {
				want = snap.Max
			}
			got := snap.Quantile(q)
			if got != want {
				t.Errorf("%s: q=%.2f: got %d, oracle value %d -> want %d",
					name, q, got, oracle, want)
			}
			// The contract the callers rely on: never under-report, and stay
			// within one log2 bucket (factor of 2) of the true quantile.
			if got < oracle {
				t.Errorf("%s: q=%.2f under-reported: %d < true %d", name, q, got, oracle)
			}
			if oracle > 0 && got > 2*oracle {
				t.Errorf("%s: q=%.2f over by >2x: %d vs true %d", name, q, got, oracle)
			}
		}
	}
}

func TestHistogramEmptyAndZero(t *testing.T) {
	h := NewHistogram()
	s := h.Snapshot()
	if s.Count != 0 || s.P50 != 0 || s.Quantile(0.99) != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	h.ObserveNs(0)
	h.ObserveNs(-7) // negatives clamp to the zero bucket
	s = h.Snapshot()
	if s.Count != 2 || s.Buckets[0] != 2 || s.Max != 0 || s.P99 != 0 {
		t.Fatalf("zero-only snapshot = %+v", s)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram()
	h.Observe(1500 * time.Nanosecond)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 1500 || s.Buckets[BucketOf(1500)] != 1 {
		t.Fatalf("snapshot after Observe(1.5us) = %+v", s)
	}
}
