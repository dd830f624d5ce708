package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"mets/internal/bloom"
	"mets/internal/hope"
	"mets/internal/hybrid"
	"mets/internal/keycodec"
	"mets/internal/obs"
	"mets/internal/sharded"
)

// The two library workloads embed the engine the way a DBMS would: the
// sharded hybrid B+tree called in-process, configured as mets-server
// configures it (epoch reads, background merges, 8 shards, a metrics
// registry) plus the paper's string-key setting — boundaries learned from a
// sample and a HOPE 3-Grams codec with a 2^14-entry dictionary.

const (
	libShards   = 8
	libDict     = 1 << 14
	libScanLen  = 50
	libSampling = 100 // codec and router train on every 100th key
)

// libEngine is what both library workloads share: the trained codec, the key
// sample, and a way to make an empty index over them.
type libEngine struct {
	keys   [][]byte // sorted dataset; index i holds valueOf(i)
	sample [][]byte
	codec  keycodec.Codec
	reg    *obs.Registry
	idx    *sharded.Index
	// filter stands in for one shard's dynamic-stage Bloom filter in the
	// traced run: same bits per key and expected size, filled to capacity.
	filter *bloom.Filter
	enc    [][]byte // per-client encode scratch for the traced path
}

func newLibEngine(ks [][]byte, clients int) (*libEngine, error) {
	sample := every(ks, libSampling)
	codec, err := keycodec.TrainHOPE(sample, hope.ThreeGrams, libDict)
	if err != nil {
		return nil, fmt.Errorf("train codec: %w", err)
	}
	g := &libEngine{keys: ks, sample: sample, codec: codec, enc: make([][]byte, clients)}
	perShard := len(ks) / libShards / hybrid.DefaultConfig().MergeRatio
	g.filter = bloom.New(perShard+1, hybrid.DefaultConfig().BloomBitsPerKey)
	for _, k := range ks[:perShard] {
		g.filter.AddAtomic(codec.Encode(k))
	}
	return g, nil
}

// fresh replaces the index with an empty one over a new registry.
func (g *libEngine) fresh() {
	hc := hybrid.DefaultConfig()
	hc.EpochReads = true
	hc.BackgroundMerge = true
	g.reg = obs.NewRegistry()
	g.idx = sharded.NewBTree(sharded.Config{
		Router: sharded.RouterFromSample(g.sample, libShards),
		Hybrid: hc,
		Codec:  g.codec,
		Obs:    g.reg,
	})
}

func (g *libEngine) do(_ int, o *op) bool {
	switch o.kind {
	case opGet:
		v, ok := g.idx.Get(o.key)
		return ok && v == o.val
	case opGetAbsent:
		_, ok := g.idx.Get(o.key)
		return !ok
	case opScan:
		return checkRun(g.keys, o.idx, libScanLen, g.idx.ScanN(o.key, libScanLen))
	default:
		return g.idx.Insert(o.key, o.val)
	}
}

// layers replays a point read's calls into the layers above the hybrid
// index; what is left of the op's span is the hybrid index itself.
func (g *libEngine) layers(c int, o *op, t *opTrace) {
	t.child("keycodec.encode_ns", func() { g.enc[c] = g.codec.EncodeAppend(g.enc[c][:0], o.key) })
	router := g.idx.Router()
	t.child("sharded.route_ns", func() { t.keep(router.Shard(g.enc[c])) })
	t.child("bloom.probe_ns", func() {
		if g.filter.ContainsAtomic(g.enc[c]) {
			t.keep(1)
		}
	})
}

func (g *libEngine) close() {}

// sink keeps the results of the single-goroutine probes alive so the
// compiler cannot drop the calls.
var sink int

// bitsPerKey is index bytes x 8 over live keys; callers drain merges first.
func (g *libEngine) bitsPerKey() float64 {
	return float64(g.idx.MemoryUsage()) * 8 / float64(g.idx.Len())
}

// counters sums the per-shard op counters of the current registry.
func (g *libEngine) counters() (gets, skips int64, perShard []float64) {
	snap := g.reg.Snapshot()
	perShard = make([]float64, g.idx.NumShards())
	for i := range perShard {
		p := fmt.Sprintf("shard%d.", i)
		gets += snap.Counters[p+"get"]
		skips += snap.Counters[p+"bloom_skip"]
		for _, n := range []string{"get", "insert", "update", "delete", "scan"} {
			perShard[i] += float64(snap.Counters[p+n])
		}
	}
	return
}

func skew(perShard []float64) float64 {
	var sum, max float64
	for _, v := range perShard {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	return max / (sum / float64(len(perShard)))
}

// engineLayerMetrics fills the per-layer rows every sharded-engine workload
// shares, from the index's own counters and the out-of-engine probes.
func (g *libEngine) engineLayerMetrics(out metrics) {
	gets, skips, perShard := g.counters()
	if gets > 0 {
		out.set("bloom.skip_share", float64(skips)/float64(gets))
	}
	out.set("sharded.shard_skew", skew(perShard))
	probeKeycodec(out, g.codec, g.keys)
	probeSharded(out, g.idx, g.keys)
	probeEngine(out, encodeAll(g.codec, probeSample(g.keys)))
}

// ---- lib-read ----

type libRead struct {
	*libEngine
	ops     [][]op
	merges0 int
}

func setupLibRead(e *env) (instance, error) {
	const clients = 2
	ks := sortedEmails(e.n(1_000_000, 2000), e.seed)
	g, err := newLibEngine(ks, clients)
	if err != nil {
		return nil, err
	}
	g.fresh()
	if err := g.idx.BulkLoad(allEntries(ks)); err != nil {
		return nil, fmt.Errorf("bulk load: %w", err)
	}
	w := &libRead{libEngine: g}
	w.merges0, _, _ = g.idx.MergeStats()
	// 90% Zipfian point reads, one in ten of them for an absent key; 10%
	// 50-entry scans. The same streams replay every round, so rounds differ
	// only by what the host does to them.
	perClient := e.n(100_000, 3000)
	for c := 0; c < clients; c++ {
		rng := rngFor(e.seed, int64(100+c))
		zs := zipfian(len(ks), perClient, e.seed*31+int64(c))
		ops := make([]op, perClient)
		for i, ki := range zs {
			o := op{kind: opGet, idx: ki, key: ks[ki], val: valueOf(ki)}
			switch p := rng.Intn(100); {
			case p < 10:
				o.kind = opScan
			case p < 19:
				if miss := append(append([]byte(nil), ks[ki]...), '!'); !present(ks, miss) {
					o = op{kind: opGetAbsent, idx: ki, key: miss}
				}
			}
			ops[i] = o
		}
		w.ops = append(w.ops, ops)
	}
	return w, nil
}

func (w *libRead) streams(int) ([][]op, error) { return w.ops, nil }
func (w *libRead) endRound(int) error          { return nil }

func (w *libRead) finish(out metrics, traced bool) (int, int, error) {
	w.idx.WaitMerges()
	if !traced {
		out.set("bits_per_key", w.bitsPerKey())
	} else {
		merges, _, _ := w.idx.MergeStats()
		out.set("hybrid.merge_count", float64(merges-w.merges0))
		w.engineLayerMetrics(out)
	}
	return 0, 0, nil
}

// ---- lib-write-merge ----

type libWriteMerge struct {
	*libEngine
	preload []int // dataset indexes bulk-loaded before every round, sorted
	ops     [][]op
	inserts int // new keys per round, all clients

	mergeCount, mergeTotalMs, mergeWorstMs, mergeKeysPerS []float64
}

func setupLibWriteMerge(e *env) (instance, error) {
	const clients = 2
	half := e.n(200_000, 6000)
	ks := sortedEmails(2*half, e.seed)
	g, err := newLibEngine(ks, clients)
	if err != nil {
		return nil, err
	}
	w := &libWriteMerge{libEngine: g}
	// A random half of the dataset is preloaded; the other half arrives as
	// inserts, so new keys land between old ones all over the key space.
	perm := rngFor(e.seed, 200).Perm(len(ks))
	w.preload = append([]int(nil), perm[:half]...)
	sort.Ints(w.preload)
	pool := perm[half:]
	perClient := len(pool) / clients
	w.inserts = perClient * clients
	for c := 0; c < clients; c++ {
		mine := pool[c*perClient : (c+1)*perClient]
		rng := rngFor(e.seed, int64(210+c))
		// Reads favour the keys this client inserted last (YCSB "latest"):
		// a Zipfian distance back from the newest, falling through to the
		// preloaded keys when it reaches past the first insert.
		back := rand.NewZipf(rng, 1.2, 4, uint64(len(ks)))
		ops := make([]op, 0, 2*perClient)
		for m, ki := range mine {
			ops = append(ops, op{kind: opPut, idx: ki, key: ks[ki], val: valueOf(ki)})
			ri := mine[m]
			if d := int(back.Uint64()); d <= m {
				ri = mine[m-d]
			} else {
				ri = w.preload[(d-m)%half]
			}
			ops = append(ops, op{kind: opGet, idx: ri, key: ks[ri], val: valueOf(ri)})
		}
		w.ops = append(w.ops, ops)
	}
	return w, nil
}

// streams gives every round a fresh copy of the preloaded, fully merged
// index, so each round does the same inserts, reads and merges.
func (w *libWriteMerge) streams(int) ([][]op, error) {
	w.fresh()
	if err := w.idx.BulkLoad(entriesOf(w.keys, w.preload)); err != nil {
		return nil, fmt.Errorf("bulk load: %w", err)
	}
	return w.ops, nil
}

// endRound lets the merges the round triggered finish, records what they
// cost, then folds the rest of the dynamic stage in so memory is read on a
// fully merged index.
func (w *libWriteMerge) endRound(int) error {
	w.idx.WaitMerges()
	merges, worst, total := w.idx.MergeStats()
	w.mergeCount = append(w.mergeCount, float64(merges))
	w.mergeTotalMs = append(w.mergeTotalMs, float64(total)/float64(time.Millisecond))
	w.mergeWorstMs = append(w.mergeWorstMs, float64(worst)/float64(time.Millisecond))
	if total > 0 {
		w.mergeKeysPerS = append(w.mergeKeysPerS, float64(w.inserts)/total.Seconds())
	}
	w.idx.Merge()
	w.idx.WaitMerges()
	if got, want := w.idx.Len(), len(w.preload)+w.inserts; got != want {
		return fmt.Errorf("index holds %d keys after the round, want %d", got, want)
	}
	return nil
}

func (w *libWriteMerge) finish(out metrics, traced bool) (int, int, error) {
	if !traced {
		out.set("bits_per_key", w.bitsPerKey())
	} else {
		out.set("hybrid.merge_count", median(w.mergeCount))
		out.set("hybrid.merge_total_ms", median(w.mergeTotalMs))
		out.set("hybrid.merge_worst_ms", median(w.mergeWorstMs))
		out.set("hybrid.merge_keys_per_s", median(w.mergeKeysPerS))
		w.engineLayerMetrics(out)
	}
	return 0, 0, nil
}
