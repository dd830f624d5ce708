package fst

import (
	"fmt"
	"reflect"
	"testing"

	"mets/internal/keys"
)

// TestParallelBuildMatchesSerial checks that Build produces a structurally
// identical trie for any worker count: the chunked level construction and
// concurrent rank/select encoding must not change a single bit.
func TestParallelBuildMatchesSerial(t *testing.T) {
	datasets := map[string][][]byte{
		"ints":   keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(50000, 7))),
		"emails": keys.Dedup(keys.Emails(30000, 11)),
		// One trie level of 2,049 nodes: over 64 workers that is 63 chunks
		// of 33, and a 64th would be the inverted range [2079, 2049), which
		// the level build cannot slice — par.Chunks must never hand it out.
		"decimal": decimalKeys(20490),
	}
	for name, ks := range datasets {
		values := make([]uint64, len(ks))
		for i := range values {
			values[i] = uint64(i) * 3
		}
		serialCfg := DefaultConfig()
		serialCfg.Workers = -1
		want, err := Build(ks, values, serialCfg)
		if err != nil {
			t.Fatalf("%s: serial build: %v", name, err)
		}
		for _, w := range []int{0, 2, 3, 8, 64} {
			cfg := DefaultConfig()
			cfg.Workers = w
			got, err := Build(ks, values, cfg)
			if err != nil {
				t.Fatalf("%s: build with %d workers: %v", name, w, err)
			}
			got.cfg = want.cfg // the Workers knob itself may differ
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: trie built with %d workers differs from serial build", name, w)
			}
		}
	}
}

func decimalKeys(n int) [][]byte {
	ks := make([][]byte, n)
	for i := range ks {
		ks[i] = []byte(fmt.Sprintf("%06d", i))
	}
	return ks
}

// TestParallelBuildSortError checks that the chunked sortedness check still
// rejects unsorted and duplicate keys.
func TestParallelBuildSortError(t *testing.T) {
	ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(20000, 3)))
	values := make([]uint64, len(ks))
	for _, corrupt := range []func([][]byte){
		func(ks [][]byte) { ks[12000] = ks[11999] },                 // duplicate
		func(ks [][]byte) { ks[500], ks[501] = ks[501], ks[500] },   // swap
		func(ks [][]byte) { ks[len(ks)-1] = []byte{0, 0, 0, 0, 0} }, // out of order at tail
	} {
		bad := make([][]byte, len(ks))
		copy(bad, ks)
		corrupt(bad)
		if _, err := Build(bad, values, DefaultConfig()); err == nil {
			t.Fatalf("build accepted unsorted keys")
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(500000, 1)))
	values := make([]uint64, len(ks))
	for _, w := range []int{-1, 0} {
		name := "serial"
		if w == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Workers = w
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(ks, values, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
