package mets

// One testing.B benchmark per thesis table/figure. These are the
// micro-benchmark entry points; the full parameter sweeps that print the
// paper's rows live in cmd/mets-bench (see DESIGN.md for the mapping), and the
// gated end-to-end workloads in bench/.

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"mets/internal/arf"
	"mets/internal/art"
	"mets/internal/bloom"
	"mets/internal/btree"
	"mets/internal/fst"
	"mets/internal/hope"
	"mets/internal/hybrid"
	"mets/internal/index"
	"mets/internal/keys"
	"mets/internal/lsm"
	"mets/internal/masstree"
	"mets/internal/oltp"
	"mets/internal/sharded"
	"mets/internal/skiplist"
	"mets/internal/surf"
)

const benchKeys = 200000

func intKeys(b *testing.B) [][]byte {
	b.Helper()
	return keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(benchKeys, 1)))
}

func emailKeys(b *testing.B) [][]byte {
	b.Helper()
	return keys.Dedup(keys.Emails(benchKeys/2, 1))
}

func entriesOf(ks [][]byte) []index.Entry {
	es := make([]index.Entry, len(ks))
	for i, k := range ks {
		es[i] = index.Entry{Key: k, Value: uint64(i)}
	}
	return es
}

// --- Table 1.1: index memory overhead (exercises the OLTP load path). ---

func BenchmarkTable11_TPCCLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := oltp.New(oltp.Config{IndexType: oltp.BTreeIndex})
		oltp.NewTPCC(1, 2000).Load(e)
	}
}

// --- Table 2.2: point queries on the four dynamic trees. ---

func benchTreeGet(b *testing.B, t interface {
	Insert(k []byte, v uint64) bool
	Get(k []byte) (uint64, bool)
}) {
	ks := intKeys(b)
	for i, k := range ks {
		t.Insert(k, uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Get(ks[i%len(ks)])
	}
}

func BenchmarkTable22_BTreeGet(b *testing.B)    { benchTreeGet(b, btree.New()) }
func BenchmarkTable22_MasstreeGet(b *testing.B) { benchTreeGet(b, masstree.New()) }
func BenchmarkTable22_SkipListGet(b *testing.B) { benchTreeGet(b, skiplist.New()) }
func BenchmarkTable22_ARTGet(b *testing.B)      { benchTreeGet(b, art.New()) }

// --- Fig 2.5: compact variants. ---

func BenchmarkFig25_CompactBTreeGet(b *testing.B) {
	ks := intKeys(b)
	c, _ := btree.NewCompact(entriesOf(ks))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(ks[i%len(ks)])
	}
}

func BenchmarkFig25_CompressedBTreeGet(b *testing.B) {
	ks := intKeys(b)
	c, _ := btree.NewCompressed(entriesOf(ks), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(ks[i%len(ks)])
	}
}

func BenchmarkFig25_CompactARTGet(b *testing.B) {
	ks := intKeys(b)
	c, _ := art.NewCompact(entriesOf(ks))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(ks[i%len(ks)])
	}
}

func BenchmarkFig25_CompactMasstreeGet(b *testing.B) {
	ks := emailKeys(b)
	c, _ := masstree.NewCompact(entriesOf(ks))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(ks[i%len(ks)])
	}
}

func BenchmarkFig25_CompactSkipListGet(b *testing.B) {
	ks := intKeys(b)
	c, _ := skiplist.NewCompact(entriesOf(ks))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(ks[i%len(ks)])
	}
}

// --- Fig 3.4/3.5: FST point and range queries. ---

func fstValues(n int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = uint64(i)
	}
	return v
}

func BenchmarkFig34_FSTGetInt(b *testing.B) {
	ks := intKeys(b)
	t, _ := fst.Build(ks, fstValues(len(ks)), fst.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Get(ks[i%len(ks)])
	}
}

func BenchmarkFig34_FSTGetEmail(b *testing.B) {
	ks := emailKeys(b)
	t, _ := fst.Build(ks, fstValues(len(ks)), fst.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Get(ks[i%len(ks)])
	}
}

func BenchmarkFig34_FSTLowerBoundScan50(b *testing.B) {
	ks := intKeys(b)
	t, _ := fst.Build(ks, fstValues(len(ks)), fst.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := t.LowerBound(ks[i%len(ks)])
		for j := 0; j < 50 && it.Valid(); j++ {
			it.Next()
		}
	}
}

func BenchmarkFig35_SparseOnlyGet(b *testing.B) {
	ks := intKeys(b)
	t, _ := fst.Build(ks, fstValues(len(ks)), fst.Config{
		StoreValues: true, DenseLevels: 0, LinearLabelSearch: true, SelectSample: 512})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Get(ks[i%len(ks)])
	}
}

// --- Fig 3.6/3.7 are sweeps; representative ablation bench: ---

func BenchmarkFig36_FSTNoWordSearch(b *testing.B) {
	ks := emailKeys(b)
	t, _ := fst.Build(ks, fstValues(len(ks)), fst.Config{
		StoreValues: true, DenseLevels: -1, LinearLabelSearch: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Get(ks[i%len(ks)])
	}
}

// --- Fig 4.4-4.6: SuRF vs Bloom. ---

func BenchmarkFig44_SuRFHash4Lookup(b *testing.B) {
	ks := intKeys(b)
	f, _ := surf.Build(ks, surf.HashConfig(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Lookup(ks[i%len(ks)])
	}
}

func BenchmarkFig44_BloomLookup(b *testing.B) {
	ks := intKeys(b)
	f := bloom.Build(ks, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Contains(ks[i%len(ks)])
	}
}

func BenchmarkFig45_SuRFRangeLookup(b *testing.B) {
	ks := intKeys(b)
	f, _ := surf.Build(ks, surf.RealConfig(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := keys.ToUint64(ks[i%len(ks)])
		f.LookupRange(keys.Uint64(v+1<<37), keys.Uint64(v+1<<38), true)
	}
}

func BenchmarkFig45_SuRFCount(b *testing.B) {
	ks := intKeys(b)
	f, _ := surf.Build(ks, surf.RealConfig(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, c := ks[(i*7)%len(ks)], ks[(i*13)%len(ks)]
		if keys.Compare(a, c) > 0 {
			a, c = c, a
		}
		f.Count(a, c)
	}
}

func BenchmarkFig46_SuRFBuild(b *testing.B) {
	ks := intKeys(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		surf.Build(ks, surf.HashConfig(4))
	}
}

func BenchmarkFig46_BloomBuild(b *testing.B) {
	ks := intKeys(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bloom.Build(ks, 14)
	}
}

// --- Table 4.1: ARF. ---

func BenchmarkTable41_ARFQuery(b *testing.B) {
	vs := keys.RandomUint64(benchKeys/4, 1)
	f := arf.New(vs, int64(len(vs))*14)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		lo := rng.Uint64()
		f.Train(lo, lo+1<<40)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := vs[i%len(vs)] + 1
		f.Query(lo, lo+1<<40)
	}
}

// --- Fig 4.8/4.9: LSM point and seek under SuRF. ---

func benchLSM(b *testing.B, fb lsm.FilterBuilder) *lsm.DB {
	b.Helper()
	db := lsm.Open(lsm.Config{
		MemTableBytes: 256 << 10, TargetTableBytes: 256 << 10,
		BlockCacheBytes: 512 << 10, Filter: fb,
	})
	val := make([]byte, 128)
	for _, e := range keys.SensorEvents(100, 100000, 20000000, 3) {
		db.Put(e.Key(), val)
	}
	db.Flush()
	return db
}

func BenchmarkFig48_LSMGetSuRF(b *testing.B) {
	db := benchLSM(b, lsm.SuRFFilterBuilder(surf.HashConfig(4)))
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Get(keys.Uint128(uint64(rng.Int63n(20000000)), uint64(rng.Intn(100))))
	}
}

func BenchmarkFig49_LSMClosedSeekSuRF(b *testing.B) {
	db := benchLSM(b, lsm.SuRFFilterBuilder(surf.RealConfig(4)))
	rng := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := uint64(rng.Int63n(20000000))
		db.Seek(keys.Uint128(lo, 0), keys.Uint128(lo+500, 0))
	}
}

// --- Fig 4.11: worst-case dataset. ---

func BenchmarkFig411_WorstCaseLookup(b *testing.B) {
	ks := keys.Dedup(keys.WorstCase(20000, 1))
	f, _ := surf.Build(ks, surf.BaseConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Lookup(ks[i%len(ks)])
	}
}

// --- Fig 5.3-5.6: hybrid index operations. ---

func BenchmarkFig53_HybridBTreeInsert(b *testing.B) {
	h := hybrid.NewBTree(hybrid.DefaultConfig())
	buf := make([]byte, 8)
	rng := rand.New(rand.NewSource(6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Insert(keys.PutUint64(buf, rng.Uint64()), uint64(i))
	}
}

func BenchmarkFig53_HybridBTreeGet(b *testing.B) {
	ks := intKeys(b)
	h := hybrid.NewBTree(hybrid.DefaultConfig())
	for i, k := range ks {
		h.Insert(k, uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Get(ks[i%len(ks)])
	}
}

func BenchmarkFig54_HybridMasstreeGet(b *testing.B) {
	ks := emailKeys(b)
	h := hybrid.NewMasstree(hybrid.DefaultConfig())
	for i, k := range ks {
		h.Insert(k, uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Get(ks[i%len(ks)])
	}
}

func BenchmarkFig55_HybridSkipListGet(b *testing.B) {
	ks := intKeys(b)
	h := hybrid.NewSkipList(hybrid.DefaultConfig())
	for i, k := range ks {
		h.Insert(k, uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Get(ks[i%len(ks)])
	}
}

func BenchmarkFig56_HybridARTGet(b *testing.B) {
	ks := intKeys(b)
	h := hybrid.NewART(hybrid.DefaultConfig())
	for i, k := range ks {
		h.Insert(k, uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Get(ks[i%len(ks)])
	}
}

// --- Fig 5.7/5.8: merge cost. ---

func BenchmarkFig58_Merge(b *testing.B) {
	ks := intKeys(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := hybrid.NewBTree(hybrid.Config{MergeRatio: 10, MinDynamic: 1 << 30})
		for j, k := range ks {
			h.Insert(k, uint64(j))
		}
		b.StartTimer()
		h.Merge()
	}
}

// --- Fig 5.9: bloom ablation. ---

func BenchmarkFig59_HybridGetNoBloom(b *testing.B) {
	ks := intKeys(b)
	cfg := hybrid.DefaultConfig()
	cfg.DisableBloom = true
	h := hybrid.NewBTree(cfg)
	for i, k := range ks {
		h.Insert(k, uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Get(ks[i%len(ks)])
	}
}

// --- Fig 5.10: secondary index. ---

func BenchmarkFig510_SecondaryGetAll(b *testing.B) {
	s := hybrid.NewSecondary(hybrid.DefaultConfig())
	for i := 0; i < 20000; i++ {
		k := keys.Uint64(uint64(i))
		for j := 0; j < 10; j++ {
			s.Insert(k, uint64(i*10+j))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.GetAll(keys.Uint64(uint64(i % 20000)))
	}
}

// --- Figs 5.11-5.16 / Table 5.1: OLTP transactions. ---

func benchOLTP(b *testing.B, it oltp.IndexType, evict int64) {
	e := oltp.New(oltp.Config{IndexType: it, EvictionThreshold: evict})
	w := oltp.NewTPCC(1, 2000)
	w.Load(e)
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Tx(e, rng)
	}
}

func BenchmarkFig511_TPCCBTree(b *testing.B)      { benchOLTP(b, oltp.BTreeIndex, 0) }
func BenchmarkFig511_TPCCHybrid(b *testing.B)     { benchOLTP(b, oltp.HybridIndex, 0) }
func BenchmarkFig511_TPCCHybridComp(b *testing.B) { benchOLTP(b, oltp.HybridCompressedIndex, 0) }
func BenchmarkFig514_TPCCAntiCaching(b *testing.B) {
	benchOLTP(b, oltp.HybridIndex, 8<<20)
}

// --- Figs 6.9/6.10: HOPE schemes. ---

func benchHOPE(b *testing.B, s hope.Scheme) {
	ks := emailKeys(b)
	e, err := hope.Train(ks[:len(ks)/10], s, 1<<14)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Encode(ks[i%len(ks)])
	}
}

func BenchmarkFig610_HOPESingleChar(b *testing.B)  { benchHOPE(b, hope.SingleChar) }
func BenchmarkFig610_HOPEDoubleChar(b *testing.B)  { benchHOPE(b, hope.DoubleChar) }
func BenchmarkFig610_HOPEALM(b *testing.B)         { benchHOPE(b, hope.ALM) }
func BenchmarkFig610_HOPE3Grams(b *testing.B)      { benchHOPE(b, hope.ThreeGrams) }
func BenchmarkFig610_HOPE4Grams(b *testing.B)      { benchHOPE(b, hope.FourGrams) }
func BenchmarkFig610_HOPEALMImproved(b *testing.B) { benchHOPE(b, hope.ALMImproved) }

// --- Fig 6.12: dictionary build. ---

func BenchmarkFig612_HOPETrain3Grams(b *testing.B) {
	ks := emailKeys(b)
	sample := ks[:len(ks)/100+1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hope.Train(sample, hope.ThreeGrams, 1<<14)
	}
}

// --- Fig 6.13: batch encoding. ---

func BenchmarkFig613_HOPEBatchEncode(b *testing.B) {
	ks := emailKeys(b)
	e, _ := hope.Train(ks[:len(ks)/10], hope.ThreeGrams, 1<<14)
	batch := ks[:512]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EncodeBatch(batch)
	}
	b.SetBytes(int64(len(batch)))
}

// --- Figs 6.15-6.21: HOPE-optimized structures. ---

func BenchmarkFig615_SuRFWithHOPE(b *testing.B) {
	ks := emailKeys(b)
	e, _ := hope.Train(ks[:len(ks)/10], hope.ThreeGrams, 1<<14)
	enc := make([][]byte, len(ks))
	for i, k := range ks {
		enc[i] = e.Encode(k)
	}
	enc = keys.Dedup(enc)
	f, err := surf.Build(enc, surf.RealConfig(8))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Lookup(enc[i%len(enc)])
	}
}

func BenchmarkFig620_BTreeWithHOPE(b *testing.B) {
	ks := emailKeys(b)
	e, _ := hope.Train(ks[:len(ks)/10], hope.ALMImproved, 1<<14)
	t := btree.New()
	enc := make([][]byte, len(ks))
	for i, k := range ks {
		enc[i] = e.Encode(k)
		t.Insert(enc[i], uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Get(enc[i%len(enc)])
	}
}

func BenchmarkFig621_PrefixBTreeWithHOPE(b *testing.B) {
	ks := emailKeys(b)
	e, _ := hope.Train(ks[:len(ks)/10], hope.ALMImproved, 1<<14)
	enc := make([][]byte, len(ks))
	for i, k := range ks {
		enc[i] = e.Encode(k)
	}
	enc = keys.Dedup(enc)
	p, err := btree.NewCompact(entriesOf(enc))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Get(enc[i%len(enc)])
	}
}

// --- Concurrent read path: throughput and max pause during background
// maintenance (the tentpole property: rebuilds must not stall readers). ---

// updateMax folds v into m, keeping the maximum.
func updateMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// BenchmarkConcurrent_HybridGetDuringMerge measures parallel point-read
// throughput while a merge on another goroutine rebuilds the static stage,
// reporting the worst single-read stall (max-pause-ns) next to it. Reads are
// lock-free against the published generation, so max-pause-ns should sit far
// below merge-ns, the time one read would have stalled behind the rebuild.
func BenchmarkConcurrent_HybridGetDuringMerge(b *testing.B) {
	ks := intKeys(b)
	h := hybrid.NewBTree(hybrid.Config{MergeRatio: 10, MinDynamic: 1 << 30, BloomBitsPerKey: 10})
	for i, k := range ks {
		h.Insert(k, uint64(i))
	}
	h.Merge()
	extra := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(benchKeys/4, 99)))
	for i, k := range extra {
		h.Insert(k, uint64(i))
	}
	var maxPause atomic.Int64
	merged := make(chan struct{})
	go func() { h.Merge(); close(merged) }()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(42))
		for pb.Next() {
			k := ks[rng.Intn(len(ks))]
			t0 := time.Now()
			h.Get(k)
			updateMax(&maxPause, int64(time.Since(t0)))
		}
	})
	b.StopTimer()
	<-merged
	_, last, _ := h.MergeStats()
	b.ReportMetric(float64(maxPause.Load()), "max-pause-ns")
	b.ReportMetric(float64(last.Nanoseconds()), "merge-ns")
}

// BenchmarkConcurrent_ShardedGetDuringMerges is the sharded counterpart of
// BenchmarkConcurrent_HybridGetDuringMerge: parallel point reads while a
// Merge on another goroutine rebuilds every shard's static stage (fanned out
// across GOMAXPROCS workers, so on a machine with few cores max-pause-ns
// includes the builders competing with the readers for them). Each shard's
// merge is ~1/8 the single-index rebuild and blocks only its own range's
// readers, so merge-ns (worst single-shard rebuild) should sit well below the
// single-index number.
func BenchmarkConcurrent_ShardedGetDuringMerges(b *testing.B) {
	ks := intKeys(b)
	s := sharded.New(sharded.Config{
		Router: sharded.RouterFromSample(ks, 8),
		Hybrid: hybrid.Config{MergeRatio: 10, MinDynamic: 1 << 30, BloomBitsPerKey: 10},
	})
	for i, k := range ks {
		s.Insert(k, uint64(i))
	}
	s.Merge()
	extra := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(benchKeys/4, 99)))
	for i, k := range extra {
		s.Insert(k, uint64(i))
	}
	var maxPause atomic.Int64
	merged := make(chan struct{})
	go func() { s.Merge(); close(merged) }()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(42))
		for pb.Next() {
			k := ks[rng.Intn(len(ks))]
			t0 := time.Now()
			s.Get(k)
			updateMax(&maxPause, int64(time.Since(t0)))
		}
	})
	b.StopTimer()
	<-merged
	_, worstLast, _ := s.MergeStats()
	b.ReportMetric(float64(maxPause.Load()), "max-pause-ns")
	b.ReportMetric(float64(worstLast.Nanoseconds()), "merge-ns")
}

// BenchmarkConcurrent_ShardedScan measures parallel short range scans (the
// YCSB-E shape) against the sharded index's lazy per-shard walk.
func BenchmarkConcurrent_ShardedScan(b *testing.B) {
	ks := intKeys(b)
	s := sharded.New(sharded.Config{
		Router: sharded.RouterFromSample(ks, 8),
		Hybrid: hybrid.Config{MergeRatio: 10, MinDynamic: 1 << 30, BloomBitsPerKey: 10},
	})
	for i, k := range ks {
		s.Insert(k, uint64(i))
	}
	s.Merge()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(7))
		for pb.Next() {
			n := 0
			s.Scan(ks[rng.Intn(len(ks))], func([]byte, uint64) bool {
				n++
				return n < 100
			})
		}
	})
}

// BenchmarkConcurrent_OLTPTransactions measures serialized transaction
// throughput under concurrent client submission (H-Store-style execution).
func BenchmarkConcurrent_OLTPTransactions(b *testing.B) {
	e := oltp.New(oltp.Config{IndexType: oltp.HybridIndex})
	w := oltp.NewTPCC(1, 2000)
	w.Load(e)
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(7 + seed.Add(1)))
		for pb.Next() {
			w.Tx(e, rng)
		}
	})
}
