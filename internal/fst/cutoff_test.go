package fst

import (
	"fmt"
	"testing"

	"mets/internal/keys"
)

// ratioPick returns the cutoff §3.4's ratio rule alone picks for ks.
func ratioPick(t testing.TB, ks [][]byte, values []uint64, cfg Config) int {
	t.Helper()
	b := &builder{n: len(ks), ks: ks, values: values, cfg: cfg}
	if err := b.count(); err != nil {
		t.Fatal(err)
	}
	return ratioCutoff(b.levels, cfg.DenseRatio)
}

// checkNeverLarger builds ks at the picked cutoff and, where the ratio rule
// picks fewer levels, at the ratio rule's cutoff too, and fails if the
// picked trie is the larger one or has fewer dense levels.
func checkNeverLarger(t testing.TB, name string, ks [][]byte, values []uint64, cfg Config) {
	t.Helper()
	cfg.DenseLevels = -1
	auto, err := Build(ks, values, cfg)
	if err != nil {
		t.Fatal(err)
	}
	switch cfg.DenseLevels = ratioPick(t, ks, values, cfg); {
	case cfg.DenseLevels == auto.DenseHeight():
		return // the same trie (TestGoldenTries)
	case cfg.DenseLevels > auto.DenseHeight():
		t.Fatalf("%s: %d dense levels, below the ratio rule's %d", name, auto.DenseHeight(), cfg.DenseLevels)
	}
	ratio, err := Build(ks, values, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, r := auto.MemoryUsage(), ratio.MemoryUsage(); a > r {
		t.Errorf("%s: %d dense levels take %d B, the ratio rule's %d take %d B",
			name, auto.DenseHeight(), a, cfg.DenseLevels, r)
	}
}

// TestAutoCutoffNeverLarger checks that the levels the size rule adds past
// §3.4's ratio cutoff never make a trie bigger, complete or truncated, under
// the default tuning, the Fig 3.6 ablation tunings and Static's ratio. The
// ablation's +select-opt and +word-search(SIMD) steps differ only in
// LinearLabelSearch, which does not change the trie, so the default stands
// for both.
func TestAutoCutoffNeverLarger(t *testing.T) {
	// At 22k random ints level 1's nodes hold about 73 labels, just below
	// the ~76 at which a dense level is the smaller one.
	sets := append(goldenKeySets(), struct {
		name string
		ks   [][]byte
	}{"ints-22000", keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(22_000, 2)))})
	for _, n := range []int{1000, 25_000, 200_000} {
		emails := keys.Dedup(keys.Emails(n, 1))
		for _, set := range []struct {
			name string
			ks   [][]byte
		}{
			{"ints", keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(n, 2)))},
			{"emails", emails},
			{"hope-emails", hopeEncoded(t, emails)},
			{"worst", keys.Dedup(keys.WorstCase(n, 1))},
		} {
			set.name = fmt.Sprintf("%s-%d", set.name, n)
			sets = append(sets, set)
		}
	}
	tunings := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"+LOUDS-Dense", Config{LinearLabelSearch: true, RankDenseBlock: 512, SelectSample: 512}},
		{"+rank-opt", Config{LinearLabelSearch: true, SelectSample: 512}},
		{"static", staticConfig},
	}
	for _, set := range sets {
		values := make([]uint64, len(set.ks))
		for i := range values {
			values[i] = uint64(i)
		}
		for _, tu := range tunings {
			complete := tu.cfg
			complete.StoreValues = true
			checkNeverLarger(t, set.name+"/complete/"+tu.name, set.ks, values, complete)
			truncated := tu.cfg
			truncated.Truncate, truncated.StoreValues = true, false
			checkNeverLarger(t, set.name+"/truncated/"+tu.name, set.ks, nil, truncated)
		}
	}
}

// TestStaticDenseHeightOnLibReadShape pins the stage's cutoff on the shape
// of a lib-read shard, 125k HOPE-encoded emails: the size rule adds no level
// to the five the ratio of 8 picks.
func TestStaticDenseHeightOnLibReadShape(t *testing.T) {
	ks := hopeEncoded(t, keys.Dedup(keys.Emails(125_000, 1)))
	s, err := NewStatic(entriesOf(ks, false))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.t.DenseHeight(); got != 5 {
		t.Fatalf("DenseHeight = %d, want 5", got)
	}
}
