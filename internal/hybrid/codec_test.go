package hybrid

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"mets/internal/dstest"
	"mets/internal/hope"
	"mets/internal/index"
	"mets/internal/keycodec"
	"mets/internal/keys"
)

// testCodec trains a Single-Char HOPE codec: the one scheme whose domain
// covers arbitrary bytes, which the dstest key space (integer keys with 0x00
// bytes) requires.
func testCodec(tb testing.TB) keycodec.Codec {
	tb.Helper()
	sample := keys.Dedup(append(keys.EncodeUint64s(keys.RandomUint64(512, 61)),
		[]byte("abcd"), []byte("dcba"), []byte("aa"), []byte("b")))
	c, err := keycodec.TrainHOPE(sample, hope.SingleChar, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func emailCodec(tb testing.TB, scheme hope.Scheme) keycodec.Codec {
	tb.Helper()
	c, err := keycodec.TrainHOPE(keys.Dedup(keys.Emails(2000, 62)), scheme, 1<<11)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestDifferentialWithCodec re-runs the shared oracle harness with a HOPE
// codec at the key boundary, merges forced often, in both merge modes —
// the encoded-space layering (stages, tombstones, shadows, bloom filters,
// scan bounds) must be invisible to callers.
func TestDifferentialWithCodec(t *testing.T) {
	codec := testCodec(t)
	for _, bg := range []bool{false, true} {
		cfg := Config{MergeRatio: 2, MinDynamic: 32, BloomBitsPerKey: 10, BackgroundMerge: bg, Codec: codec}
		for name, h := range allVariants(cfg) {
			h := h
			t.Run(fmt.Sprintf("%s/bg=%v", name, bg), func(t *testing.T) {
				dstest.Run(t, h, dstest.Config{Ops: 6000, KeySpace: 600, Seed: 7})
				h.WaitMerges()
			})
		}
	}
}

// TestCodecEquivalence drives the same workload through an identity-codec
// index and a HOPE-codec index and requires identical answers from Get,
// Scan, ScanN and the lower bound (ScanN of one).
func TestCodecEquivalence(t *testing.T) {
	codec := emailCodec(t, hope.ThreeGrams)
	cfg := Config{MergeRatio: 2, MinDynamic: 64, BloomBitsPerKey: 10}
	ccfg := cfg
	ccfg.Codec = codec
	plain, coded := NewBTree(cfg), NewBTree(ccfg)

	ks := keys.Dedup(keys.Emails(4000, 63))
	for i, k := range ks {
		if plain.Insert(k, uint64(i)) != coded.Insert(k, uint64(i)) {
			t.Fatalf("insert disagreement at %q", k)
		}
	}
	for i, k := range ks {
		switch i % 5 {
		case 0:
			if plain.Delete(k) != coded.Delete(k) {
				t.Fatalf("delete disagreement at %q", k)
			}
		case 1:
			if plain.Update(k, uint64(i)*3) != coded.Update(k, uint64(i)*3) {
				t.Fatalf("update disagreement at %q", k)
			}
		}
	}
	plain.Merge()
	coded.Merge()
	if plain.Len() != coded.Len() {
		t.Fatalf("Len diverged: %d vs %d", plain.Len(), coded.Len())
	}
	for _, k := range ks {
		pv, pok := plain.Get(k)
		cv, cok := coded.Get(k)
		if pv != cv || pok != cok {
			t.Fatalf("Get(%q): (%d,%v) vs (%d,%v)", k, pv, pok, cv, cok)
		}
	}
	// Range primitives from probe points including keys absent from the
	// index (and absent from the training sample).
	probes := append(keys.Dedup(keys.Emails(200, 64)), nil, []byte("a"), []byte("zzzz"))
	for _, p := range probes {
		pe, ce := liveIndex{plain}.ScanN(p, 1), liveIndex{coded}.ScanN(p, 1)
		if len(pe) != len(ce) || (len(pe) == 1 && (!bytes.Equal(pe[0].Key, ce[0].Key) || pe[0].Value != ce[0].Value)) {
			t.Fatalf("lower bound ScanN(%q, 1) diverged: %v vs %v", p, pe, ce)
		}
		ps, cs := liveIndex{plain}.ScanN(p, 25), liveIndex{coded}.ScanN(p, 25)
		if len(ps) != len(cs) {
			t.Fatalf("ScanN(%q) lengths: %d vs %d", p, len(ps), len(cs))
		}
		for i := range ps {
			if !bytes.Equal(ps[i].Key, cs[i].Key) || ps[i].Value != cs[i].Value {
				t.Fatalf("ScanN(%q)[%d]: %q/%d vs %q/%d",
					p, i, ps[i].Key, ps[i].Value, cs[i].Key, cs[i].Value)
			}
		}
	}
	// A full scan must agree entry-for-entry.
	ps, pn := collect(liveIndex{plain}, nil, -1)
	cs, cn := collect(liveIndex{coded}, nil, -1)
	if err := sameEntries(cs, ps); err != nil || pn != cn {
		t.Fatalf("full scans diverged (%d vs %d entries): %v", pn, cn, err)
	}
}

// TestBulkLoadWithCodec checks that bulk-built static stages hold encoded
// keys without mutating the caller's entries.
func TestBulkLoadWithCodec(t *testing.T) {
	codec := emailCodec(t, hope.DoubleChar)
	h := NewBTree(Config{MergeRatio: 10, MinDynamic: 4096, Codec: codec})
	ks := keys.Dedup(keys.Emails(3000, 65))
	sort.Slice(ks, func(i, j int) bool { return keys.Compare(ks[i], ks[j]) < 0 })
	entries := make([]index.Entry, len(ks))
	for i, k := range ks {
		entries[i] = index.Entry{Key: k, Value: uint64(i)}
	}
	if err := h.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	for i, k := range ks {
		if !bytes.Equal(entries[i].Key, k) {
			t.Fatalf("BulkLoad mutated caller entry %d", i)
		}
		if v, ok := h.Get(k); !ok || v != uint64(i) {
			t.Fatalf("Get(%q) after bulk load = %d,%v", k, v, ok)
		}
	}
	n := 0
	var prev []byte
	h.Scan(nil, func(k []byte, _ uint64) bool {
		if n > 0 && keys.Compare(prev, k) >= 0 {
			t.Fatalf("scan order violated at %q", k)
		}
		prev = append(prev[:0], k...)
		n++
		return true
	})
	if n != len(ks) {
		t.Fatalf("scan visited %d entries, want %d", n, len(ks))
	}
}

// TestScanDecodeAllocFree pins the scan-emit decode hot path at zero
// allocations in the steady state: DecodeAppend into a reused scratch buffer,
// exactly as Index.Scan uses it.
func TestScanDecodeAllocFree(t *testing.T) {
	codec := emailCodec(t, hope.ThreeGrams)
	ks := keys.Dedup(keys.Emails(500, 66))
	enc := make([][]byte, len(ks))
	for i, k := range ks {
		enc[i] = codec.Encode(k)
	}
	scratch := make([]byte, 0, 512)
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		scratch = codec.DecodeAppend(scratch[:0], enc[i%len(enc)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("scan-emit decode allocated %.1f/op in steady state", allocs)
	}
}

// BenchmarkScanDecode measures a full codec-backed range scan (decode on
// every emit) over a bulk-loaded index, and asserts the decode component
// stays allocation-free in the steady state.
func BenchmarkScanDecode(b *testing.B) {
	codec := emailCodec(b, hope.ThreeGrams)
	ks := keys.Dedup(keys.Emails(20000, 67))
	sort.Slice(ks, func(i, j int) bool { return keys.Compare(ks[i], ks[j]) < 0 })
	entries := make([]index.Entry, len(ks))
	for i, k := range ks {
		entries[i] = index.Entry{Key: k, Value: uint64(i)}
	}
	h := NewBTree(Config{MergeRatio: 10, MinDynamic: 4096, Codec: codec})
	if err := h.BulkLoad(entries); err != nil {
		b.Fatal(err)
	}
	enc0 := codec.Encode(ks[0])
	scratch := make([]byte, 0, 512)
	if allocs := testing.AllocsPerRun(1000, func() {
		scratch = codec.DecodeAppend(scratch[:0], enc0)
	}); allocs != 0 {
		b.Fatalf("decode hot path allocated %.1f/op", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	visited := 0
	for i := 0; i < b.N; i++ {
		h.Scan(ks[i%len(ks)], func([]byte, uint64) bool {
			visited++
			return visited%100 != 0 // 100-entry scans, YCSB-E shape
		})
	}
}
