package sharded

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mets/internal/hope"
	"mets/internal/hybrid"
	"mets/internal/index"
	"mets/internal/keycodec"
	"mets/internal/keys"
	"mets/internal/tune"
)

// fastTune trips within milliseconds instead of seconds — test scale.
func fastTune() tune.Config {
	return tune.Config{
		Interval:    2 * time.Millisecond,
		CPRMinBytes: 1 << 10,
		SkewMinOps:  500,
		Trips:       2,
		Cooldown:    3,
	}
}

func tuneCfg(shards int) Config {
	return Config{
		Shards: shards,
		Hybrid: hybrid.Config{
			MergeRatio: 4, MinDynamic: 256, BloomBitsPerKey: 10,
			BackgroundMerge: true, EpochReads: true,
		},
		CodecTrainer: keycodec.HOPETrainer(hope.DoubleChar, 1<<10),
		AutoTune:     true,
		Tune:         fastTune(),
	}
}

// TestDriftDifferential is the differential drift check: a live tuner firing
// retrains/rebalances (plus direct Retrain/Rebalance calls mid-stream)
// against a single-writer map oracle under reader churn. The capture-replay
// publication must never lose or corrupt a write, so the final contents must
// equal the oracle exactly.
func TestDriftDifferential(t *testing.T) {
	s := NewBTree(tuneCfg(4))
	defer s.Close()

	ks0 := keys.TimeSeriesKeys(0, 2000, 1)
	entries := make([]index.Entry, len(ks0))
	for i, k := range ks0 {
		entries[i] = index.Entry{Key: k, Value: uint64(i)}
	}
	if err := s.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	oracle := make(map[string]uint64, len(ks0))
	for i, k := range ks0 {
		oracle[string(k)] = uint64(i)
	}

	// Reader churn: Gets and short Scans racing the generation swaps.
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				k := keys.TimeSeriesKey(uint64(rng.Intn(3)), uint64(rng.Int63n(200000)))
				s.Get(k)
				if rng.Intn(16) == 0 {
					n := 0
					var prev []byte
					s.Scan(k, func(sk []byte, _ uint64) bool {
						if prev != nil && keys.Compare(prev, sk) >= 0 {
							panic("scan out of order across generation swap")
						}
						prev = append(prev[:0], sk...)
						n++
						return n < 30
					})
				}
			}
		}(int64(r) + 21)
	}

	// Single writer: rolling-epoch churn (the drift workload) interleaved
	// with direct reconfigurations, all mirrored into the oracle.
	rng := rand.New(rand.NewSource(9))
	rounds := 6
	if raceEnabled {
		rounds = 3
	}
	for round := 0; round < rounds; round++ {
		epoch := uint64(round % 3)
		for i := 0; i < 3000; i++ {
			k := keys.TimeSeriesKey(epoch, uint64(rng.Int63n(200000)))
			switch rng.Intn(10) {
			case 0:
				if s.Delete(k) {
					delete(oracle, string(k))
				}
			case 1, 2:
				v := uint64(round*1_000_000 + i)
				if s.Update(k, v) {
					oracle[string(k)] = v
				}
			default:
				v := uint64(round*1_000_000 + i)
				if s.Insert(k, v) {
					oracle[string(k)] = v
				}
			}
		}
		// Direct reconfigurations racing the tuner's autonomous ones.
		if round%2 == 0 {
			if err := s.Retrain(); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := s.Rebalance(); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	s.WaitMerges()

	if got, want := s.Len(), len(oracle); got != want {
		t.Fatalf("Len = %d, oracle has %d", got, want)
	}
	for k, want := range oracle {
		if got, ok := s.Get([]byte(k)); !ok || got != want {
			t.Fatalf("Get(%q) = %d,%v; oracle %d", k, got, ok, want)
		}
	}
	// The scan view must agree too (ordered, decoded, complete).
	seen := 0
	s.Scan(nil, func(k []byte, v uint64) bool {
		if want, ok := oracle[string(k)]; !ok || v != want {
			t.Fatalf("Scan saw %q=%d; oracle %d (present=%v)", k, v, oracle[string(k)], ok)
		}
		seen++
		return true
	})
	if seen != len(oracle) {
		t.Fatalf("Scan yielded %d entries, oracle has %d", seen, len(oracle))
	}
}

// TestReconfigureGuards pins the error paths: Retrain without a trainer,
// and any live reconfiguration on a journaled index, must refuse cleanly.
func TestReconfigureGuards(t *testing.T) {
	s := NewBTree(Config{Shards: 2, Hybrid: hybrid.Config{MergeRatio: 4, MinDynamic: 64}})
	if err := s.Retrain(); err == nil {
		t.Fatal("Retrain without a trainer should error")
	}
	if err := s.Rebalance(); err != nil {
		t.Fatalf("Rebalance without a trainer should work (identity codec): %v", err)
	}
	for i := 0; i < 100; i++ {
		if !s.Insert(keys.Uint64(uint64(i)), uint64(i)) {
			t.Fatal("insert failed")
		}
	}
	if err := s.Rebalance(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if v, ok := s.Get(keys.Uint64(uint64(i))); !ok || v != uint64(i) {
			t.Fatalf("post-rebalance Get(%d) = %d,%v", i, v, ok)
		}
	}
}

// TestAutoTuneFiresRetrain drives the full control loop at test scale: bulk
// load epoch-0 keys (training the codec), then switch the write stream to
// epoch-1 keys. The compression ratio decays and the skew detector sees the
// new keys pile into the last shard; the tuner must fire a retrain (and/or
// rebalance) autonomously — no manual reconfiguration calls.
//
// The test ticks the tuner itself, once per burst of ops, with the background
// loop's interval out of reach: a detector window then always holds a whole
// burst, whatever the host's speed (under the race detector on two cores a
// 2 ms wall-clock window never reached the 500-op floor, so nothing tripped).
//
// Once the loop has closed, one direct Retrain and Rebalance cover both
// actions whichever tripped first, and the test checks that the two causes
// of the post-rollover latency cliff are gone — deterministically, where a
// read-p99 bound would be a timing gate: the rolled-over keys no longer all
// route to one shard (frozen: 1 shard, share 1.0), and the codec compresses
// them as well as it compressed the keys it was first trained on (frozen:
// 1.09x the baseline ratio). No write made before, during or after is lost.
func TestAutoTuneFiresRetrain(t *testing.T) {
	cfg := tuneCfg(4)
	cfg.Tune.Interval = time.Hour
	s := NewBTree(cfg)
	defer s.Close()
	ks0 := keys.TimeSeriesKeys(0, 4000, 3)
	entries := make([]index.Entry, len(ks0))
	oracle := make(map[string]uint64)
	for i, k := range ks0 {
		entries[i] = index.Entry{Key: k, Value: uint64(i)}
		oracle[string(k)] = uint64(i)
	}
	if err := s.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	s.Tuner().Tick() // the baseline window: the load's own keys
	// encoded/source bytes of ks under the codec now published.
	cpr := func(ks [][]byte) float64 {
		var enc, src int
		for _, k := range ks {
			enc += len(s.Codec().Encode(k))
			src += len(k)
		}
		return float64(enc) / float64(src)
	}
	baseline := cpr(ks0)

	// Drift: every new write carries the rolled-over prefix. Trips = 2, so
	// the second drifted window fires; a few more are allowed for.
	rng := rand.New(rand.NewSource(4))
	var ks1 [][]byte
	write := func(n int) {
		for i := 0; i < n; i++ {
			k := keys.TimeSeriesKey(1, uint64(rng.Int63n(400000)))
			if s.Insert(k, uint64(i)) {
				oracle[string(k)] = uint64(i)
				ks1 = append(ks1, k)
			}
			s.Get(k)
		}
	}
	// AutoTune with a nil Config.Obs gave the index a private registry; the
	// tuner's own counters are read back from it.
	var retrains, rebalances int64
	for burst := 0; burst < 6 && retrains+rebalances == 0; burst++ {
		write(2000)
		s.Tuner().Tick()
		c := s.obs.Snapshot().Counters
		retrains, rebalances = c["tune.retrains"], c["tune.rebalances"]
	}
	if retrains+rebalances == 0 {
		t.Fatal("tuner never fired under sustained drift: tune.retrains and tune.rebalances both 0")
	}
	if err := s.Retrain(); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebalance(); err != nil {
		t.Fatal(err)
	}
	write(500) // after the reconfigurations

	perShard := make([]int, s.NumShards())
	for _, k := range ks1 {
		perShard[s.ShardFor(k)]++
	}
	used, most := 0, 0
	for _, n := range perShard {
		if n > 0 {
			used++
		}
		most = max(most, n)
	}
	if share := float64(most) / float64(len(ks1)); used < 2 || share > 0.6 {
		t.Errorf("rolled-over keys per shard %v: want >= 2 shards and no shard above 60%%", perShard)
	}
	if got := cpr(ks1); got > 1.03*baseline {
		t.Errorf("codec ratio on epoch-1 keys %.3f, epoch-0 baseline %.3f: want within 1.03x", got, baseline)
	}
	for k, want := range oracle {
		if v, ok := s.Get([]byte(k)); !ok || v != want {
			t.Fatalf("Get(%q) = (%d, %v), want %d", k, v, ok, want)
		}
	}
}
