package bits

import (
	"math/rand"
	"testing"
)

// fromBits builds a Vector whose bit i is (pattern >> i) & 1.
func fromBits(pattern uint64, n int) *Vector {
	v := NewVector(n)
	for i := 0; i < n; i++ {
		if pattern>>uint(i)&1 == 1 {
			v.Set(i)
		}
	}
	return v
}

// checkRankSelect verifies Rank1/Ones/Select1 against an incremental
// naive count over every position and every rank of v.
func checkRankSelect(t *testing.T, v *Vector, blockSize, sampleRate int) {
	t.Helper()
	r := NewRankVector(v, blockSize)
	s := NewSelectVector(v, blockSize, sampleRate)
	ones := 0
	rank := 0
	for i := 0; i < v.Len(); i++ {
		if v.Get(i) {
			rank++
			if got := s.Select1(rank); got != i {
				t.Fatalf("n=%d block=%d sample=%d: Select1(%d) = %d, want %d",
					v.Len(), blockSize, sampleRate, rank, got, i)
			}
		}
		if got := r.Rank1(i); got != rank {
			t.Fatalf("n=%d block=%d sample=%d: Rank1(%d) = %d, want %d",
				v.Len(), blockSize, sampleRate, i, got, rank)
		}
	}
	ones = rank
	if r.Ones() != ones || s.Ones() != ones {
		t.Fatalf("n=%d: Ones = %d/%d, want %d", v.Len(), r.Ones(), s.Ones(), ones)
	}
	if got := s.Select1(ones + 1); got != -1 {
		t.Fatalf("n=%d: Select1 past last set bit = %d, want -1", v.Len(), got)
	}
	if got := s.Select1(0); got != -1 {
		t.Fatalf("n=%d: Select1(0) = %d, want -1", v.Len(), got)
	}
}

// TestRankSelectExhaustiveSmall enumerates EVERY bit vector up to maxLen bits
// and checks rank/select at every position against naive counting. Small
// vectors are where the boundary arithmetic lives (partial last word, block
// edges, empty vector), so brute force over the full space is cheap
// insurance against off-by-ones that random testing only hits by luck.
func TestRankSelectExhaustiveSmall(t *testing.T) {
	maxLen := 20
	if raceEnabled || testing.Short() {
		maxLen = 14
	}
	for n := 0; n <= maxLen; n++ {
		for pattern := uint64(0); pattern < 1<<uint(n); pattern++ {
			v := fromBits(pattern, n)
			checkRankSelect(t, v, 64, 2)
		}
		// Exhausting every (blockSize, sampleRate) combination on every
		// pattern would be wasteful; the combinations get their own sweep on
		// boundary-straddling patterns below and on random vectors in
		// TestRankSelectRandomLarge.
	}
	// Patterns that straddle word and block boundaries, under every
	// supported configuration shape.
	boundary := []int{63, 64, 65, 127, 128, 129, 511, 512, 513}
	for _, n := range boundary {
		for _, pat := range []func(i int) bool{
			func(int) bool { return true },
			func(int) bool { return false },
			func(i int) bool { return i%2 == 0 },
			func(i int) bool { return i == n-1 },
			func(i int) bool { return i == 0 || i == n-1 },
		} {
			v := NewVector(n)
			for i := 0; i < n; i++ {
				if pat(i) {
					v.Set(i)
				}
			}
			for _, blockSize := range []int{64, 128, 512} {
				for _, sampleRate := range []int{1, 2, 64} {
					checkRankSelect(t, v, blockSize, sampleRate)
				}
			}
		}
	}
}

// TestRankSelectRandomLarge cross-checks rank/select on random ~10k-bit
// vectors of varying density against naive popcount, across the block sizes
// and sample rates the tries actually use.
func TestRankSelectRandomLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	trials := 20
	if raceEnabled || testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		n := 9000 + rng.Intn(2000)
		density := []float64{0.001, 0.1, 0.5, 0.9, 0.999}[trial%5]
		v := NewVector(n)
		for i := 0; i < n; i++ {
			if rng.Float64() < density {
				v.Set(i)
			}
		}
		for _, blockSize := range []int{64, 128, 512} {
			for _, sampleRate := range []int{1, 2, 64} {
				checkRankSelect(t, v, blockSize, sampleRate)
			}
		}
	}
}
