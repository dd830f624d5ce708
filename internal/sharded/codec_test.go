package sharded

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
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
	hc := hybrid.DefaultConfig()
	hc.MergeRatio, hc.MinDynamic = 2, 32
	for _, bg := range []bool{false, true} {
		hc.BackgroundMerge = bg
		t.Run(fmt.Sprintf("bg=%v", bg), func(t *testing.T) {
			s := NewBTree(Config{Shards: 5, Hybrid: hc, Codec: codec})
			dstest.Run(t, s, dstest.Config{Ops: 6000, KeySpace: 600, Seed: 8})
			s.WaitMerges()
		})
	}
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
	plain := NewBTree(Config{Router: router, Hybrid: hc})
	coded := NewBTree(Config{Router: router, Hybrid: hc, Codec: codec})

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

// TestBulkLoadWithTrainer exercises the codec-retraining bulk load: the load
// trains a fresh codec from its sample pass, recomputes quantile boundaries
// in encoded space, and swaps codec+router+shards atomically. Shards must
// come out balanced and all point/range operations must answer correctly in
// raw space afterwards.
func TestBulkLoadWithTrainer(t *testing.T) {
	ks := keys.Dedup(keys.Emails(6000, 75))
	sort.Slice(ks, func(i, j int) bool { return keys.Compare(ks[i], ks[j]) < 0 })
	entries := make([]index.Entry, len(ks))
	for i, k := range ks {
		entries[i] = index.Entry{Key: k, Value: uint64(i)}
	}
	hc := hybrid.DefaultConfig()
	hc.MergeRatio, hc.MinDynamic = 4, 256
	s := NewBTree(Config{
		Shards:       8,
		Hybrid:       hc,
		CodecTrainer: keycodec.HOPETrainer(hope.ThreeGrams, 1<<11),
	})
	if s.load().codec != nil {
		t.Fatal("codec attached before any trained bulk load")
	}
	if err := s.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	if s.load().codec == nil {
		t.Fatal("trained bulk load left no codec attached")
	}
	if got := s.NumShards(); got != 8 {
		t.Fatalf("NumShards = %d, want 8", got)
	}
	if got := s.Len(); got != len(ks) {
		t.Fatalf("Len = %d, want %d", got, len(ks))
	}
	// Quantile boundaries in the loaded distribution's encoded space must
	// produce balanced shards.
	for i, sh := range s.load().shards {
		lo, hi := len(ks)/8-2, len(ks)/8+2
		if l := sh.Len(); l < lo || l > hi {
			t.Fatalf("shard %d holds %d entries, want ~%d", i, l, len(ks)/8)
		}
	}
	for i, k := range ks {
		if v, ok := s.Get(k); !ok || v != uint64(i) {
			t.Fatalf("Get(%q) = %d,%v", k, v, ok)
		}
	}
	// The caller's entries must stay untouched (encoding copies).
	for i, k := range ks {
		if !bytes.Equal(entries[i].Key, k) {
			t.Fatalf("BulkLoad mutated caller entry %d", i)
		}
	}
	// Cross-boundary scans decode back to raw keys in global order.
	for _, off := range []int{0, 100, len(ks)/2 - 3, len(ks) - 10} {
		got := s.ScanN(ks[off], 900)
		want := ks[off:min(off+900, len(ks))]
		if len(got) != len(want) {
			t.Fatalf("ScanN(%q) returned %d entries, want %d", ks[off], len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i].Key, want[i]) {
				t.Fatalf("ScanN(%q)[%d] = %q, want %q", ks[off], i, got[i].Key, want[i])
			}
		}
	}
	// Post-load mutations route through the trained generation.
	if !s.Insert([]byte("zz-new-key@example.com"), 999) {
		t.Fatal("post-load insert failed")
	}
	if v, ok := s.Get([]byte("zz-new-key@example.com")); !ok || v != 999 {
		t.Fatalf("post-load Get = %d,%v", v, ok)
	}
	if !s.Delete(ks[0]) {
		t.Fatal("post-load delete failed")
	}
	if _, ok := s.Get(ks[0]); ok {
		t.Fatal("deleted key still visible")
	}
}

// TestBulkLoadRetrainConcurrentReaders hammers Get/ScanN from reader
// goroutines while trained bulk loads swap generations underneath them.
// Readers must always observe a consistent codec+router+shards triple —
// answers come from either the old or the new generation, never a mix (the
// race detector guards the swap itself).
func TestBulkLoadRetrainConcurrentReaders(t *testing.T) {
	ks := keys.Dedup(keys.Emails(2000, 76))
	sort.Slice(ks, func(i, j int) bool { return keys.Compare(ks[i], ks[j]) < 0 })
	entries := make([]index.Entry, len(ks))
	for i, k := range ks {
		entries[i] = index.Entry{Key: k, Value: uint64(i)}
	}
	hc := hybrid.DefaultConfig()
	s := NewBTree(Config{
		Shards:       4,
		Hybrid:       hc,
		CodecTrainer: keycodec.HOPETrainer(hope.DoubleChar, 1<<10),
	})
	if err := s.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	rounds := 6
	if raceEnabled {
		rounds = 3
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			i := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := ks[i%len(ks)]
				if v, ok := s.Get(k); ok && int(v) != i%len(ks) {
					t.Errorf("Get(%q) = %d, want %d", k, v, i%len(ks))
					return
				}
				for _, e := range s.ScanN(k, 20) {
					if keys.Compare(e.Key, k) < 0 {
						t.Errorf("ScanN(%q) emitted smaller key %q", k, e.Key)
						return
					}
				}
				i += 7
			}
		}(g * 13)
	}
	for r := 0; r < rounds; r++ {
		if err := s.BulkLoad(entries); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if s.Len() != len(ks) {
		t.Fatalf("Len = %d after retrains, want %d", s.Len(), len(ks))
	}
}
