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

// encodedIndex drives an index the way a sharded index with a codec drives
// each of its shards: keys are encoded on the way in, a scan starts from the
// encoded bound and decodes what it emits. The index itself only ever sees
// encoded keys.
type encodedIndex struct {
	*Index
	c keycodec.Codec
}

func (x encodedIndex) Get(k []byte) (uint64, bool)    { return x.Index.Get(x.c.Encode(k)) }
func (x encodedIndex) Insert(k []byte, v uint64) bool { return x.Index.Insert(x.c.Encode(k), v) }
func (x encodedIndex) Update(k []byte, v uint64) bool { return x.Index.Update(x.c.Encode(k), v) }
func (x encodedIndex) Delete(k []byte) bool           { return x.Index.Delete(x.c.Encode(k)) }

func (x encodedIndex) Scan(start []byte, fn func(key []byte, value uint64) bool) int {
	start, fn = keycodec.ScanEncoded(x.c, start, fn)
	return x.Index.Scan(start, fn)
}

func (x encodedIndex) ScanN(start []byte, n int) []index.Entry {
	col := keycodec.NewCollector(x.c, n)
	x.Index.Scan(keycodec.Bound(x.c, start), col.Emit)
	return col.Entries()
}

func (x encodedIndex) BulkLoad(entries []index.Entry) error {
	enc := make([]index.Entry, len(entries))
	for i, e := range entries {
		enc[i] = index.Entry{Key: x.c.Encode(e.Key), Value: e.Value}
	}
	return x.Index.BulkLoad(enc)
}

func emailCodec(tb testing.TB, scheme hope.Scheme) keycodec.Codec {
	tb.Helper()
	c, err := keycodec.TrainHOPE(keys.Dedup(keys.Emails(2000, 62)), scheme, 1<<11)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestDifferentialWithCodec re-runs the shared oracle harness over indexes
// holding HOPE-encoded keys (encoded at the boundary, as the sharded layer
// does), merges forced often, in both merge modes — the encoded-space
// layering (stages, tombstones, shadows, bloom filters, scan bounds) must be
// invisible to callers.
func TestDifferentialWithCodec(t *testing.T) {
	codec := testCodec(t)
	for _, bg := range []bool{false, true} {
		cfg := Config{MergeRatio: 2, MinDynamic: 32, BloomBitsPerKey: 10, BackgroundMerge: bg}
		for name, h := range allVariants(cfg) {
			h := h
			t.Run(fmt.Sprintf("%s/bg=%v", name, bg), func(t *testing.T) {
				dstest.Run(t, encodedIndex{h, codec}, dstest.Config{Ops: 6000, KeySpace: 600, Seed: 7})
				h.WaitMerges()
			})
		}
	}
}

// TestCodecEquivalence drives the same workload through an index of raw keys
// and one of HOPE-encoded keys and requires identical answers from Get,
// Scan, ScanN and the lower bound (ScanN of one).
func TestCodecEquivalence(t *testing.T) {
	cfg := Config{MergeRatio: 2, MinDynamic: 64, BloomBitsPerKey: 10}
	plain, coded := liveIndex{NewBTree(cfg)}, encodedIndex{NewBTree(cfg), emailCodec(t, hope.ThreeGrams)}

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
		pe, ce := plain.ScanN(p, 1), coded.ScanN(p, 1)
		if len(pe) != len(ce) || (len(pe) == 1 && (!bytes.Equal(pe[0].Key, ce[0].Key) || pe[0].Value != ce[0].Value)) {
			t.Fatalf("lower bound ScanN(%q, 1) diverged: %v vs %v", p, pe, ce)
		}
		ps, cs := plain.ScanN(p, 25), coded.ScanN(p, 25)
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
	ps, pn := collect(plain, nil, -1)
	cs, cn := collect(coded, nil, -1)
	if err := sameEntries(cs, ps); err != nil || pn != cn {
		t.Fatalf("full scans diverged (%d vs %d entries): %v", pn, cn, err)
	}
}

// TestBulkLoadWithCodec checks that bulk-built static stages of encoded keys
// answer in raw space without mutating the caller's entries.
func TestBulkLoadWithCodec(t *testing.T) {
	h := encodedIndex{NewBTree(Config{MergeRatio: 10, MinDynamic: 4096}), emailCodec(t, hope.DoubleChar)}
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
