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

// TestRankSelectLongGaps checks Select1 on LOUDS-shaped vectors — one set
// bit every 50–400 positions, as on the sparse levels of a trie over random
// keys — where a select crosses several rank blocks between two samples.
// Some set bits are placed on the first and the last bit of a 512-bit block,
// one gap spans many blocks, and the vector ends in zero words.
func TestRankSelectLongGaps(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	const n = 1 << 18
	v := NewVector(n + 4096) // the last 64 words stay zero
	var pos []int
	for p := rng.Intn(400); p < n; p += 50 + rng.Intn(351) {
		switch {
		case len(pos) == 100:
			p = p | 511 // the last bit of a block
		case len(pos) == 101:
			p = (p + 511) &^ 511 // the first bit of the next block
		case len(pos) == 300:
			p += 20_000 // a gap of about forty blocks
		}
		if p >= n {
			break
		}
		v.Set(p)
		pos = append(pos, p)
	}
	for _, blockSize := range []int{64, 128, 512} {
		for _, sampleRate := range []int{1, 8, 64, 512} {
			s := NewSelectVector(v, blockSize, sampleRate)
			if s.Ones() != len(pos) {
				t.Fatalf("block=%d sample=%d: Ones = %d, want %d", blockSize, sampleRate, s.Ones(), len(pos))
			}
			for i, want := range pos {
				if got := s.Select1(i + 1); got != want {
					t.Fatalf("block=%d sample=%d: Select1(%d) = %d, want %d", blockSize, sampleRate, i+1, got, want)
				}
			}
			// The targets the scan's boundaries sit on, named: the first and
			// last set bit, either side of every sample, and the first set
			// bit of every rank block.
			targets := []int{1, len(pos)}
			for j := sampleRate; j < len(pos); j += sampleRate {
				targets = append(targets, j, j+1, j+2)
			}
			for b := 0; b+1 < len(s.lut); b++ {
				if s.lut[b] < s.lut[b+1] {
					targets = append(targets, int(s.lut[b])+1)
				}
			}
			for _, i := range targets {
				if i >= 1 && i <= len(pos) && s.Select1(i) != pos[i-1] {
					t.Fatalf("block=%d sample=%d: Select1(%d) = %d, want %d", blockSize, sampleRate, i, s.Select1(i), pos[i-1])
				}
			}
			if got := s.Select1(len(pos) + 1); got != -1 {
				t.Fatalf("block=%d sample=%d: Select1 past the last set bit = %d, want -1", blockSize, sampleRate, got)
			}
		}
	}
}
