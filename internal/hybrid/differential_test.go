package hybrid

import (
	"fmt"
	"testing"

	"mets/internal/dstest"
)

// TestDifferential runs the shared oracle harness against every hybrid
// variant, with merges forced often (tiny MinDynamic, ratio 2) so the
// operation stream constantly crosses stage boundaries, in foreground- and
// background-merge modes and without the Bloom filter.
func TestDifferential(t *testing.T) {
	mods := map[string]func(*Config){
		"bg=false": func(c *Config) {},
		"bg=true":  func(c *Config) { c.BackgroundMerge = true },
		"nobloom":  func(c *Config) { c.DisableBloom = true },
	}
	for mname, mod := range mods {
		cfg := Config{MergeRatio: 2, MinDynamic: 32, BloomBitsPerKey: 10}
		mod(&cfg)
		for name, h := range allVariants(cfg) {
			h := h
			t.Run(name+"/"+mname, func(t *testing.T) {
				dstest.Run(t, h, dstest.Config{Ops: 6000, KeySpace: 600, Seed: 1})
				h.WaitMerges()
			})
		}
	}
}

// TestScanChunkBoundaryExtension pins the scan-cursor resume rule: when a
// chunk ends exactly at key k and the next live key extends k (k + suffix),
// the next chunk must start at that extension, not at Successor(k). Found by
// the differential harness; kept as a deterministic regression test.
func TestScanChunkBoundaryExtension(t *testing.T) {
	// "b" sits as the boundary-th key, exactly at the end of a refill, and
	// its extension "b\x00x" opens the next chunk and must not be skipped.
	// The memtable scan cursor refills at doubling sizes up to its first
	// full-size one; every one of those chunk ends is a boundary to try.
	boundary := 0
	for c := memChunk; c <= dynChunk; c *= 2 {
		boundary += c
		testScanChunkBoundary(t, boundary)
	}
}

func testScanChunkBoundary(t *testing.T, boundary int) {
	h := NewBTree(Config{MergeRatio: 10, MinDynamic: 1 << 30, BloomBitsPerKey: 10})
	for i := 0; i < boundary-1; i++ {
		h.Insert([]byte(fmt.Sprintf("a%04d", i)), uint64(i))
	}
	h.Insert([]byte("b"), 100)
	h.Insert([]byte("b\x00x"), 101)
	var last string
	n := 0
	h.Scan(nil, func(k []byte, _ uint64) bool {
		last = string(k)
		n++
		return true
	})
	if n != boundary+1 || last != "b\x00x" {
		t.Fatalf("scan visited %d entries ending at %q, want %d ending at b\\x00x", n, last, boundary+1)
	}
}
