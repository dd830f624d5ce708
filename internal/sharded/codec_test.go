package sharded

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"mets/internal/dstest"
	"mets/internal/hope"
	"mets/internal/hybrid"
	"mets/internal/index"
	"mets/internal/keycodec"
	"mets/internal/keys"
)

// binaryCodec trains a Single-Char HOPE codec — the one scheme whose domain
// covers arbitrary bytes, which the dstest key space (integer keys with 0x00
// bytes) requires.
func binaryCodec(tb testing.TB) keycodec.Codec {
	tb.Helper()
	sample := keys.Dedup(append(keys.EncodeUint64s(keys.RandomUint64(512, 71)),
		[]byte("abcd"), []byte("dcba"), []byte("aa"), []byte("b")))
	c, err := keycodec.TrainHOPE(sample, hope.SingleChar, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func shardedEmailCodec(tb testing.TB, scheme hope.Scheme) keycodec.Codec {
	tb.Helper()
	c, err := keycodec.TrainHOPE(keys.Dedup(keys.Emails(2000, 72)), scheme, 1<<11)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestShardedDifferentialWithCodec re-runs the oracle harness with a HOPE
// codec owned by the sharded layer: routing, shard-local storage, tombstones,
// and fan-out scans all in encoded space must be invisible to callers.
func TestShardedDifferentialWithCodec(t *testing.T) {
	codec := binaryCodec(t)
	// Every shard merges in the background; the subtest keeps that name.
	t.Run("bg=true", func(t *testing.T) {
		hc := hybrid.DefaultConfig()
		hc.MergeRatio, hc.MinDynamic = 2, 32
		s := New(Config{Shards: 5, Hybrid: hc, Codec: codec})
		dstest.Run(t, s, dstest.Config{Ops: 6000, KeySpace: 600, Seed: 8})
		s.WaitMerges()
	})
}

// TestShardedCodecEquivalence drives identical workloads through a raw index
// and a HOPE-codec index sharing the same raw-space learned router, and
// requires identical answers — in particular for range primitives whose
// results span shard boundaries, which exercises boundary translation into
// encoded space.
func TestShardedCodecEquivalence(t *testing.T) {
	codec := shardedEmailCodec(t, hope.ThreeGrams)
	ks := keys.Dedup(keys.Emails(4000, 73))
	hc := hybrid.DefaultConfig()
	hc.MergeRatio, hc.MinDynamic = 2, 64
	router := RouterFromSample(ks[:1000], 8)
	plain := New(Config{Router: router, Hybrid: hc})
	coded := New(Config{Router: router, Hybrid: hc, Codec: codec})

	// The coded router's boundaries must be the encodings of the raw ones.
	rawBs := router.Boundaries()
	codBs := coded.Router().Boundaries()
	if len(rawBs) != len(codBs) {
		t.Fatalf("boundary count diverged: %d vs %d", len(rawBs), len(codBs))
	}
	for i := range codBs {
		if !bytes.Equal(codec.Decode(codBs[i]), rawBs[i]) {
			t.Fatalf("boundary %d is not the encoding of %q", i, rawBs[i])
		}
	}

	for i, k := range ks {
		if plain.Insert(k, uint64(i)) != coded.Insert(k, uint64(i)) {
			t.Fatalf("insert disagreement at %q", k)
		}
		if shardOf(plain, k) != shardOf(coded, k) {
			t.Fatalf("shard of %q diverged: %d vs %d", k, shardOf(plain, k), shardOf(coded, k))
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
	// Long ScanN windows from probe points (including absent keys and shard
	// boundary keys themselves) cross several shard ranges, so the shard
	// walk runs over encoded streams.
	probes := append(keys.Dedup(keys.Emails(100, 74)), nil, []byte("a"), []byte("zzzz"))
	probes = append(probes, rawBs...)
	for _, p := range probes {
		pe, ce := plain.ScanN(p, 1), coded.ScanN(p, 1)
		if len(pe) != len(ce) || (len(pe) == 1 && (!bytes.Equal(pe[0].Key, ce[0].Key) || pe[0].Value != ce[0].Value)) {
			t.Fatalf("lower bound ScanN(%q, 1) diverged: %v vs %v", p, pe, ce)
		}
		ps, cs := plain.ScanN(p, 700), coded.ScanN(p, 700)
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
	// Unbounded Scan must agree entry-for-entry across the whole fan-out.
	var pkeys, ckeys [][]byte
	plain.Scan(nil, func(k []byte, _ uint64) bool {
		pkeys = append(pkeys, append([]byte(nil), k...))
		return true
	})
	coded.Scan(nil, func(k []byte, _ uint64) bool {
		ckeys = append(ckeys, append([]byte(nil), k...))
		return true
	})
	if len(pkeys) != len(ckeys) {
		t.Fatalf("full scans diverged in length: %d vs %d", len(pkeys), len(ckeys))
	}
	for i := range pkeys {
		if !bytes.Equal(pkeys[i], ckeys[i]) {
			t.Fatalf("full scan diverged at %d: %q vs %q", i, pkeys[i], ckeys[i])
		}
	}
}

// TestRejectedBulkLoadLeavesIndexUnchanged reloads a loaded 4-shard index
// with entries that are out of order inside the last shard's range, with the
// codec off and on. The load must be refused before any shard is touched:
// Len and a full Scan read exactly as they did before it.
func TestRejectedBulkLoadLeavesIndexUnchanged(t *testing.T) {
	sorted := func(ks [][]byte) []index.Entry {
		ks = keys.Dedup(ks)
		sort.Slice(ks, func(i, j int) bool { return keys.Compare(ks[i], ks[j]) < 0 })
		es := make([]index.Entry, len(ks))
		for i, k := range ks {
			es[i] = index.Entry{Key: k, Value: uint64(i)}
		}
		return es
	}
	first := sorted(keys.Emails(4000, 81))
	second := sorted(keys.Emails(3000, 82))
	n := len(second)
	second[n-2], second[n-1] = second[n-1], second[n-2]
	all := func(s *Index) []index.Entry {
		var out []index.Entry
		s.Scan(nil, func(k []byte, v uint64) bool {
			out = append(out, index.Entry{Key: append([]byte(nil), k...), Value: v})
			return true
		})
		return out
	}
	sample := make([][]byte, len(first))
	for i, e := range first {
		sample[i] = e.Key
	}
	for _, codec := range []keycodec.Codec{nil, shardedEmailCodec(t, hope.ThreeGrams)} {
		t.Run(fmt.Sprintf("codec=%v", codec != nil), func(t *testing.T) {
			s := New(Config{Router: RouterFromSample(sample, 4), Hybrid: hybrid.DefaultConfig(), Codec: codec})
			if err := s.BulkLoad(first); err != nil {
				t.Fatal(err)
			}
			before := all(s)
			if err := s.BulkLoad(second); err == nil {
				t.Fatal("BulkLoad accepted entries out of order")
			}
			if s.Len() != len(first) {
				t.Fatalf("Len = %d after the rejected load, want %d", s.Len(), len(first))
			}
			after := all(s)
			if len(after) != len(before) {
				t.Fatalf("full scan holds %d entries after the rejected load, %d before", len(after), len(before))
			}
			for i := range after {
				if !bytes.Equal(after[i].Key, before[i].Key) || after[i].Value != before[i].Value {
					t.Fatalf("scan entry %d = %q=%d after the rejected load, %q=%d before",
						i, after[i].Key, after[i].Value, before[i].Key, before[i].Value)
				}
			}
		})
	}
}
