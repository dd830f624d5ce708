package lsm

import (
	"bytes"
	"testing"

	"mets/internal/dstest"
	"mets/internal/hope"
	"mets/internal/keycodec"
	"mets/internal/keys"
	"mets/internal/surf"
)

// lsmBinaryCodec trains a Single-Char HOPE codec — the scheme whose domain
// covers the dstest key space (integer keys with 0x00 bytes).
func lsmBinaryCodec(tb testing.TB) keycodec.Codec {
	tb.Helper()
	sample := keys.Dedup(append(keys.EncodeUint64s(keys.RandomUint64(512, 81)),
		[]byte("abcd"), []byte("dcba"), []byte("aa"), []byte("b")))
	c, err := keycodec.TrainHOPE(sample, hope.SingleChar, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestDifferentialWithCodec re-runs the oracle harness with keys stored in
// encoded space: MemTable, blocks, fences, and SuRF filters all encoded,
// flushes and compactions churning mid-stream, in both compaction modes.
func TestDifferentialWithCodec(t *testing.T) {
	codec := lsmBinaryCodec(t)
	cases := map[string]Config{
		"surf": {MemTableBytes: 4 << 10, TargetTableBytes: 4 << 10, BlockCacheBytes: 64 << 10,
			Codec: codec, Filter: SuRFFilterBuilderWithCodec(surf.MixedConfig(4, 4), codec)},
		"background": {MemTableBytes: 4 << 10, TargetTableBytes: 4 << 10, BlockCacheBytes: 64 << 10,
			Codec: codec, BackgroundCompaction: true},
	}
	for name, cfg := range cases {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			db := Open(cfg)
			ops := 4000
			if raceEnabled {
				ops = 1500
			}
			dstest.Run(t, dbAdapter{db}, dstest.Config{Ops: ops, KeySpace: 400, Seed: 3, ScanEvery: 32})
			db.WaitIdle()
		})
	}
}

// TestCodecEquivalence drives identical email-keyed workloads through a raw
// DB and a codec DB (both SuRF-filtered) and requires identical answers from
// Get, Seek (open and closed), Count, and a full Seek walk.
func TestCodecEquivalence(t *testing.T) {
	sample := keys.Dedup(keys.Emails(2000, 82))
	codec, err := keycodec.TrainHOPE(sample, hope.ThreeGrams, 1<<11)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{MemTableBytes: 8 << 10, TargetTableBytes: 8 << 10, BlockCacheBytes: 64 << 10,
		Filter: SuRFFilterBuilder(surf.MixedConfig(4, 4))}
	ccfg := base
	ccfg.Codec = codec
	ccfg.Filter = SuRFFilterBuilderWithCodec(surf.MixedConfig(4, 4), codec)
	plain, coded := Open(base), Open(ccfg)

	ks := keys.Dedup(keys.Emails(3000, 83))
	for i, k := range ks {
		v := encVal(uint64(i))
		plain.Put(k, v)
		coded.Put(k, v)
		if i%7 == 0 {
			plain.Delete(ks[i/2])
			coded.Delete(ks[i/2])
		}
	}
	plain.Flush()
	coded.Flush()

	for _, k := range ks {
		pv, pok := plain.Get(k)
		cv, cok := coded.Get(k)
		if pok != cok || !bytes.Equal(pv, cv) {
			t.Fatalf("Get(%q): (%x,%v) vs (%x,%v)", k, pv, pok, cv, cok)
		}
	}
	probes := append(keys.Dedup(keys.Emails(150, 84)), []byte{}, []byte("a"), []byte("zzzz"))
	for i, p := range probes {
		pe, pok := plain.Seek(p, nil)
		ce, cok := coded.Seek(p, nil)
		if pok != cok || (pok && (!bytes.Equal(pe.Key, ce.Key) || !bytes.Equal(pe.Value, ce.Value))) {
			t.Fatalf("Seek(%q,nil) diverged: %q/%v vs %q/%v", p, pe.Key, pok, ce.Key, cok)
		}
		hi := probes[(i+1)%len(probes)]
		if keys.Compare(p, hi) >= 0 {
			continue
		}
		pe, pok = plain.Seek(p, hi)
		ce, cok = coded.Seek(p, hi)
		if pok != cok || (pok && !bytes.Equal(pe.Key, ce.Key)) {
			t.Fatalf("Seek(%q,%q) diverged: %q/%v vs %q/%v", p, hi, pe.Key, pok, ce.Key, cok)
		}
	}
	// Count equality is asserted on the unfiltered (exact, block-scan) path:
	// through SuRF filters Count is approximate and the truncation points
	// legitimately differ between raw and encoded key spaces.
	ubase, ucoded := base, ccfg
	ubase.Filter, ucoded.Filter = nil, nil
	uplain, ucod := Open(ubase), Open(ucoded)
	for i, k := range ks {
		v := encVal(uint64(i))
		uplain.Put(k, v)
		ucod.Put(k, v)
	}
	uplain.Flush()
	ucod.Flush()
	for i := 0; i+1 < len(probes); i++ {
		p, hi := probes[i], probes[i+1]
		if keys.Compare(p, hi) >= 0 {
			continue
		}
		if pc, cc := uplain.Count(p, hi), ucod.Count(p, hi); pc != cc {
			t.Fatalf("Count(%q,%q) diverged: %d vs %d", p, hi, pc, cc)
		}
	}

	// Walk both DBs end-to-end through the Seek loop (the scan path).
	var pkeys, ckeys [][]byte
	collect := func(db *DB, out *[][]byte) {
		lo := []byte{}
		for {
			e, ok := db.Seek(lo, nil)
			if !ok {
				return
			}
			*out = append(*out, e.Key)
			lo = keys.Next(e.Key)
		}
	}
	collect(plain, &pkeys)
	collect(coded, &ckeys)
	if len(pkeys) != len(ckeys) {
		t.Fatalf("full walks diverged in length: %d vs %d", len(pkeys), len(ckeys))
	}
	for i := range pkeys {
		if !bytes.Equal(pkeys[i], ckeys[i]) {
			t.Fatalf("full walk diverged at %d: %q vs %q", i, pkeys[i], ckeys[i])
		}
	}
}

// TestCodecFilterRoundTrip marshals a SuRF filter built over encoded keys
// out of a codec DB's SSTable, reconstructs both the filter and the codec
// from the payload alone, and checks the loaded filter answers point and
// range probes for re-encoded raw keys.
func TestCodecFilterRoundTrip(t *testing.T) {
	ks := keys.Dedup(keys.Emails(1500, 85))
	codec, err := keycodec.TrainHOPE(ks, hope.FourGrams, 1<<11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MemTableBytes: 1 << 20, TargetTableBytes: 1 << 20, BlockCacheBytes: 64 << 10,
		Codec: codec, Filter: SuRFFilterBuilderWithCodec(surf.RealConfig(8), codec)}
	db := Open(cfg)
	for i, k := range ks {
		db.Put(k, encVal(uint64(i)))
	}
	db.Flush()

	db.mu.RLock()
	var f *surf.Filter
	for _, level := range db.levels {
		for _, tbl := range level {
			if tbl.filter != nil {
				f = tbl.filter.(*surfAdapter).f
			}
		}
	}
	db.mu.RUnlock()
	if f == nil {
		t.Fatal("no filtered SSTable found")
	}
	id, dict := f.KeyCodec()
	if id != codec.ID() || len(dict) == 0 {
		t.Fatalf("filter codec annotation = %q/%d bytes, want %q with dictionary", id, len(dict), codec.ID())
	}

	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := surf.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	lid, ldict := loaded.KeyCodec()
	if lid != codec.ID() {
		t.Fatalf("loaded codec id = %q, want %q", lid, codec.ID())
	}
	// The embedded dictionary alone must reconstruct a working codec.
	recodec, err := keycodec.Unmarshal(ldict)
	if err != nil {
		t.Fatal(err)
	}
	if recodec.ID() != codec.ID() {
		t.Fatalf("reconstructed codec id = %q, want %q", recodec.ID(), codec.ID())
	}
	for _, k := range ks {
		if !loaded.Lookup(recodec.Encode(k)) {
			t.Fatalf("loaded filter rejects stored key %q", k)
		}
	}
	// Range probes between adjacent stored keys must answer like the
	// original filter (no false negatives for ranges containing a key; same
	// verdicts overall, marshaling being lossless).
	for i := 0; i+1 < len(ks) && i < 300; i++ {
		lo, hi := recodec.EncodeBound(ks[i]), recodec.EncodeBound(ks[i+1])
		if keys.Compare(lo, hi) > 0 {
			lo, hi = hi, lo
		}
		want := f.LookupRange(lo, hi, true)
		if got := loaded.LookupRange(lo, hi, true); got != want {
			t.Fatalf("LookupRange[%d] diverged after round trip: %v vs %v", i, got, want)
		}
		if !want {
			t.Fatalf("LookupRange[%d] rejected a range containing stored key %q", i, ks[i])
		}
	}
}
