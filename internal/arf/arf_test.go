package arf

import (
	"math/rand"
	"sort"
	"testing"

	"mets/internal/keys"
)

func TestNoFalseNegatives(t *testing.T) {
	ks := keys.RandomUint64(5000, 1)
	f := New(ks, int64(len(ks))*14)
	rng := rand.New(rand.NewSource(2))
	// Train with random ranges.
	for i := 0; i < 20000; i++ {
		lo := rng.Uint64()
		f.Train(lo, lo+(1<<40))
	}
	sorted := append([]uint64(nil), ks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, k := range sorted {
		if !f.Query(k, k) {
			t.Fatalf("false negative on stored key %d", k)
		}
		if !f.Query(k-1000, k+1000) {
			t.Fatalf("false negative on range containing %d", k)
		}
	}
}

func TestTrainingReducesFPR(t *testing.T) {
	ks := keys.RandomUint64(5000, 3)
	rng := rand.New(rand.NewSource(4))
	queries := make([][2]uint64, 20000)
	for i := range queries {
		lo := rng.Uint64()
		queries[i] = [2]uint64{lo, lo + (1 << 40)}
	}
	sorted := append([]uint64(nil), ks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	truth := func(lo, hi uint64) bool {
		i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= lo })
		return i < len(sorted) && sorted[i] <= hi
	}
	fpr := func(f *Filter) float64 {
		fp, neg := 0, 0
		for _, q := range queries[len(queries)/2:] {
			tru := truth(q[0], q[1])
			got := f.Query(q[0], q[1])
			if tru && !got {
				t.Fatal("false negative")
			}
			if !tru {
				neg++
				if got {
					fp++
				}
			}
		}
		return float64(fp) / float64(neg)
	}
	untrained := New(ks, int64(len(ks))*14)
	before := fpr(untrained)
	trained := New(ks, int64(len(ks))*14)
	for _, q := range queries[:len(queries)/2] {
		trained.Train(q[0], q[1])
	}
	after := fpr(trained)
	if after >= before {
		t.Fatalf("training did not reduce FPR: %.3f -> %.3f", before, after)
	}
	if after > 0.9 {
		t.Fatalf("trained ARF FPR %.3f suspiciously high", after)
	}
}

func TestBudgetRespected(t *testing.T) {
	ks := keys.RandomUint64(1000, 5)
	budgetBits := int64(len(ks)) * 14
	f := New(ks, budgetBits)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 50000; i++ {
		lo := rng.Uint64()
		f.Train(lo, lo+(1<<45))
	}
	if int64(f.numNodes) > budgetBits/2 {
		t.Fatalf("node budget exceeded: %d nodes for %d bits", f.numNodes, budgetBits)
	}
}

func TestEmptyFilter(t *testing.T) {
	f := New(nil, 1024)
	if f.Query(0, ^uint64(0)) {
		t.Fatal("empty filter claims occupancy")
	}
}
