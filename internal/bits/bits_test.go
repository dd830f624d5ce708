package bits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVectorBasic(t *testing.T) {
	v := NewVector(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d, want 130", v.Len())
	}
	v.Set(0)
	v.Set(63)
	v.Set(64)
	v.Set(129)
	for i := 0; i < 130; i++ {
		want := i == 0 || i == 63 || i == 64 || i == 129
		if v.Get(i) != want {
			t.Fatalf("Get(%d) = %v, want %v", i, v.Get(i), want)
		}
	}
}

// buildRandom returns a random vector of n bits with approximately density
// fraction of ones, plus the naive prefix-rank array.
func buildRandom(n int, density float64, seed int64) (*Vector, []int) {
	rng := rand.New(rand.NewSource(seed))
	v := NewVector(n)
	ranks := make([]int, n+1)
	for i := 0; i < n; i++ {
		ranks[i+1] = ranks[i]
		if rng.Float64() < density {
			v.Set(i)
			ranks[i+1]++
		}
	}
	return v, ranks
}

func TestRankAgainstNaive(t *testing.T) {
	for _, blockSize := range []int{64, 512} {
		for _, density := range []float64{0.01, 0.3, 0.9} {
			v, ranks := buildRandom(5000, density, int64(blockSize)*7+int64(density*100))
			r := NewRankVector(v, blockSize)
			for i := 0; i < 5000; i++ {
				if got, want := r.Rank1(i), ranks[i+1]; got != want {
					t.Fatalf("blockSize=%d density=%v: Rank1(%d) = %d, want %d", blockSize, density, i, got, want)
				}
			}
			if r.Ones() != ranks[5000] {
				t.Fatalf("Ones = %d, want %d", r.Ones(), ranks[5000])
			}
		}
	}
}

func TestRankEdges(t *testing.T) {
	v := NewVector(64)
	v.Set(0)
	v.Set(63)
	r := NewRankVector(v, 64)
	if r.Rank1(-1) != 0 {
		t.Fatalf("Rank1(-1) should be 0")
	}
	if r.Rank1(0) != 1 || r.Rank1(62) != 1 || r.Rank1(63) != 2 {
		t.Fatalf("boundary ranks wrong: %d %d %d", r.Rank1(0), r.Rank1(62), r.Rank1(63))
	}
	// Out-of-range clamps to the end.
	if r.Rank1(1000) != 2 {
		t.Fatalf("Rank1 beyond end = %d, want 2", r.Rank1(1000))
	}
}

func TestSelectAgainstNaive(t *testing.T) {
	for _, sampleRate := range []int{1, 4, 64} {
		for _, density := range []float64{0.02, 0.5, 0.95} {
			v, _ := buildRandom(4000, density, int64(sampleRate)*31+int64(density*10))
			s := NewSelectVector(v, 512, sampleRate)
			var positions []int
			for i := 0; i < 4000; i++ {
				if v.Get(i) {
					positions = append(positions, i)
				}
			}
			for i, want := range positions {
				if got := s.Select1(i + 1); got != want {
					t.Fatalf("sampleRate=%d density=%v: Select1(%d) = %d, want %d", sampleRate, density, i+1, got, want)
				}
			}
			if s.Select1(0) != -1 || s.Select1(len(positions)+1) != -1 {
				t.Fatalf("out-of-range select should return -1")
			}
		}
	}
}

func TestSelectRankInverse(t *testing.T) {
	v, _ := buildRandom(8192, 0.25, 99)
	s := NewSelectVector(v, 512, 64)
	for i := 1; i <= s.Ones(); i++ {
		pos := s.Select1(i)
		if s.Rank1(pos) != i {
			t.Fatalf("Rank1(Select1(%d)) = %d", i, s.Rank1(pos))
		}
		if !s.Get(pos) {
			t.Fatalf("Select1(%d) = %d points at a zero bit", i, pos)
		}
	}
}

func TestRankSelectQuick(t *testing.T) {
	f := func(wordsIn []uint64) bool {
		if len(wordsIn) == 0 {
			return true
		}
		if len(wordsIn) > 64 {
			wordsIn = wordsIn[:64]
		}
		v := NewVector(64 * len(wordsIn))
		for i, w := range wordsIn {
			for b := 0; b < 64; b++ {
				if w&(1<<uint(b)) != 0 {
					v.Set(64*i + b)
				}
			}
		}
		s := NewSelectVector(v, 64, 8)
		// Check rank/select consistency exhaustively.
		ones := 0
		for i := 0; i < v.Len(); i++ {
			if v.Get(i) {
				ones++
				if s.Select1(ones) != i {
					return false
				}
			}
			if s.Rank1(i) != ones {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryUsagePositive(t *testing.T) {
	v, _ := buildRandom(1000, 0.5, 1)
	s := NewSelectVector(v, 512, 64)
	if s.MemoryUsage() <= v.MemoryUsage() {
		t.Fatalf("select memory should exceed raw vector memory")
	}
}

func BenchmarkRank1(b *testing.B) {
	v, _ := buildRandom(1<<20, 0.5, 42)
	r := NewRankVector(v, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Rank1(i & (1<<20 - 1))
	}
}

func BenchmarkSelect1(b *testing.B) {
	v, _ := buildRandom(1<<20, 0.5, 42)
	s := NewSelectVector(v, 512, 64)
	ones := s.Ones()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Select1(i%ones + 1)
	}
}

// TestRankLUTCapacityGuard covers the 2^32-set-bit limit of the 32-bit rank
// LUT: counts within range pass, anything past the limit panics with a clear
// message. (Materializing a real 2^32-bit vector would need 512 MB, so the
// guard is exercised directly.)
func TestRankLUTCapacityGuard(t *testing.T) {
	checkLUTCapacity(0)
	checkLUTCapacity(1<<32 - 1) // largest representable rank
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("checkLUTCapacity(2^32) did not panic")
		}
		if s, ok := r.(string); !ok || s == "" {
			t.Fatalf("panic value should be a descriptive string, got %v", r)
		}
	}()
	checkLUTCapacity(1 << 32)
}

// TestSelectInWord holds the broadword select to a bit-by-bit scan on every
// rank of words of every density, and to 64 past a word's last set bit.
func TestSelectInWord(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	words := []uint64{0, 1, 1 << 63, ^uint64(0), 0x8080808080808080, 0x00FF00000000FF01}
	for i := 0; i < 2000; i++ {
		words = append(words, rng.Uint64()&rng.Uint64(), rng.Uint64()|rng.Uint64(), rng.Uint64())
	}
	for _, w := range words {
		rank := 0
		for p := 0; p < 64; p++ {
			if w&(1<<p) == 0 {
				continue
			}
			rank++
			if got := selectInWord(w, rank); got != p {
				t.Fatalf("selectInWord(%#x, %d) = %d, want %d", w, rank, got, p)
			}
		}
		if got := selectInWord(w, rank+1); got != 64 {
			t.Fatalf("selectInWord(%#x, %d) = %d past the last set bit, want 64", w, rank+1, got)
		}
	}
}
