package sharded

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"mets/internal/dstest"
	"mets/internal/hybrid"
	"mets/internal/index"
	"mets/internal/keys"
	"mets/internal/obs"
	"mets/internal/vfs"
)

func smallCfg(shards int) Config {
	return Config{
		Shards: shards,
		Hybrid: hybrid.Config{MergeRatio: 2, MinDynamic: 32, BloomBitsPerKey: 10},
	}
}

// shardOf returns the number of the shard that owns key.
func shardOf(s *Index, key []byte) int {
	if s.codec != nil {
		key = s.codec.Encode(key)
	}
	return s.router.Shard(key)
}

// --- Router ---

func TestRouterFromSample(t *testing.T) {
	sample := make([][]byte, 1000)
	for i := range sample {
		sample[i] = keys.Uint64(uint64(i))
	}
	r := RouterFromSample(sample, 4)
	if r.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", r.NumShards())
	}
	// Quantile boundaries put equal counts in each shard.
	counts := make([]int, 4)
	for _, k := range sample {
		counts[r.Shard(k)]++
	}
	for i, c := range counts {
		if c != 250 {
			t.Fatalf("shard %d holds %d of 1000 sampled keys, want 250", i, c)
		}
	}
	// Routing is monotone: shard index never decreases along sorted keys.
	prev := 0
	for _, k := range sample {
		s := r.Shard(k)
		if s < prev {
			t.Fatalf("shard index decreased along sorted keys: %d after %d", s, prev)
		}
		prev = s
	}
}

func TestRouterDegenerateSamples(t *testing.T) {
	// Fewer distinct sample keys than shards: degrade, don't emit empty
	// duplicate boundaries.
	r := RouterFromSample([][]byte{{1}, {1}, {2}}, 8)
	if n := r.NumShards(); n > 3 {
		t.Fatalf("NumShards = %d for 2-key sample, want <= 3", n)
	}
	if r := RouterFromSample(nil, 8); r.NumShards() != 1 {
		t.Fatalf("empty sample: NumShards = %d, want 1", r.NumShards())
	}
	if r := UniformRouter(1); r.NumShards() != 1 {
		t.Fatalf("UniformRouter(1).NumShards = %d, want 1", r.NumShards())
	}
}

func TestRouterBoundaryOwnership(t *testing.T) {
	r := NewRouter([][]byte{[]byte("m")})
	if got := r.Shard([]byte("m")); got != 1 {
		t.Fatalf("boundary key routes to shard %d, want 1 (ranges are [lo, hi))", got)
	}
	if got := r.Shard([]byte("lzz")); got != 0 {
		t.Fatalf("key below boundary routes to shard %d, want 0", got)
	}
}

// --- Shard configuration ---

// TestShardConfigForced: whatever the caller put in Hybrid.EpochReads,
// BackgroundMerge, Dir and Obs, every shard gets both modes on, its journal
// under Dir/shardNNN (none without Dir) and Obs's "shard<i>." view (none
// without Obs), keeps the caller's other fields, and is built from exactly
// shardConfig.
func TestShardConfigForced(t *testing.T) {
	callerReg := obs.NewRegistry()
	caller := hybrid.Config{MergeRatio: 3, MinDynamic: 7, Dir: "elsewhere", Obs: callerReg, FS: vfs.NewMemFS()}
	for _, dir := range []string{"", "data"} {
		for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
			cfg := Config{Shards: 3, Hybrid: caller, Dir: dir, Obs: reg}
			check := func(hc hybrid.Config, i int) {
				t.Helper()
				if !hc.EpochReads || !hc.BackgroundMerge {
					t.Fatalf("dir %q, obs %v: shard %d EpochReads=%v BackgroundMerge=%v, want both on",
						dir, reg != nil, i, hc.EpochReads, hc.BackgroundMerge)
				}
				if hc.MergeRatio != 3 || hc.MinDynamic != 7 || hc.FS != caller.FS {
					t.Fatalf("shard %d lost the caller's fields: %+v", i, hc)
				}
				wantDir := ""
				if dir != "" {
					wantDir = fmt.Sprintf("%s/shard%03d", dir, i)
				}
				if hc.Dir != wantDir {
					t.Fatalf("dir %q: shard %d Dir = %q, want %q", dir, i, hc.Dir, wantDir)
				}
				if reg == nil {
					if hc.Obs != nil {
						t.Fatalf("no Obs: shard %d has a registry", i)
					}
					return
				}
				name := fmt.Sprintf("probe%d", i)
				hc.Obs.Counter(name).Inc()
				if got := reg.Snapshot().Counters[fmt.Sprintf("shard%d.%s", i, name)]; got != 1 {
					t.Fatalf("shard %d's registry is not Obs's shard%d. view (count %d)", i, i, got)
				}
			}
			var mu sync.Mutex // with Dir the shards open side by side
			var built []hybrid.Config
			s := newIndex(cfg, func(hc hybrid.Config) *hybrid.Index {
				mu.Lock()
				built = append(built, hc)
				mu.Unlock()
				return hybrid.NewFST(hc)
			})
			wants := []hybrid.Config{shardConfig(cfg, 0), shardConfig(cfg, 1), shardConfig(cfg, 2)}
			count := func(cs []hybrid.Config, c hybrid.Config) (n int) {
				for _, x := range cs {
					if reflect.DeepEqual(x, c) {
						n++
					}
				}
				return n
			}
			for i, want := range wants {
				check(want, i)
				if len(built) != 3 || count(built, want) != count(wants, want) {
					t.Fatalf("the shards were built from %+v, not from shardConfig", built)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := len(callerReg.Snapshot().Counters); n != 0 {
		t.Fatalf("the caller's Hybrid.Obs got %d counters, want none", n)
	}
}

// --- Basic operations and scans ---

func TestShardedBasic(t *testing.T) {
	s := New(smallCfg(4))
	n := 5000
	ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(n, 1)))
	for i, k := range ks {
		if !s.Insert(k, uint64(i)) {
			t.Fatalf("Insert(%x) rejected", k)
		}
	}
	if s.Insert(ks[0], 99) {
		t.Fatal("duplicate Insert accepted")
	}
	if s.Len() != len(ks) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(ks))
	}
	for i, k := range ks {
		if v, ok := s.Get(k); !ok || v != uint64(i) {
			t.Fatalf("Get(%x) = (%d,%v)", k, v, ok)
		}
	}
	// Updates and deletes route to the right shard.
	for i := 0; i < 100; i++ {
		if !s.Update(ks[i], uint64(i)+1000) {
			t.Fatalf("Update(%x) failed", ks[i])
		}
	}
	for i := 100; i < 200; i++ {
		if !s.Delete(ks[i]) {
			t.Fatalf("Delete(%x) failed", ks[i])
		}
		if _, ok := s.Get(ks[i]); ok {
			t.Fatalf("Get(%x) found deleted key", ks[i])
		}
	}
	s.WaitMerges()
	if want := len(ks) - 100; s.Len() != want {
		t.Fatalf("Len = %d after deletes, want %d", s.Len(), want)
	}
	// Every shard got some keys (random uint64 keys, uniform router).
	for i, sh := range s.shards {
		if sh.Len() == 0 {
			t.Fatalf("shard %d is empty", i)
		}
	}
}

// checkScanMatches verifies Scan and ScanN against a sorted expectation.
func checkScanMatches(t *testing.T, s *Index, want []index.Entry, start []byte, n int) {
	t.Helper()
	lo := 0
	if start != nil {
		lo = sortSearchEntries(want, start)
	}
	hi := lo + n
	if hi > len(want) {
		hi = len(want)
	}
	expect := want[lo:hi]

	var got []index.Entry
	s.Scan(start, func(k []byte, v uint64) bool {
		// With a codec the key is only valid during the callback.
		got = append(got, index.Entry{Key: append([]byte(nil), k...), Value: v})
		return len(got) < n
	})
	if len(got) != len(expect) {
		t.Fatalf("Scan(%x) returned %d entries, want %d", start, len(got), len(expect))
	}
	for i := range got {
		if !bytes.Equal(got[i].Key, expect[i].Key) || got[i].Value != expect[i].Value {
			t.Fatalf("Scan(%x)[%d] = {%x,%d}, want {%x,%d}",
				start, i, got[i].Key, got[i].Value, expect[i].Key, expect[i].Value)
		}
	}
	got2 := s.ScanN(start, n)
	if len(got2) != len(expect) {
		t.Fatalf("ScanN(%x,%d) returned %d entries, want %d", start, n, len(got2), len(expect))
	}
	for i := range got2 {
		if !bytes.Equal(got2[i].Key, expect[i].Key) || got2[i].Value != expect[i].Value {
			t.Fatalf("ScanN(%x,%d)[%d] mismatch", start, n, i)
		}
	}
}

func TestShardedScanOrdering(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := New(smallCfg(shards))
			n := 4000
			ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(n, 2)))
			want := make([]index.Entry, len(ks))
			for i, k := range ks {
				s.Insert(k, uint64(i))
				want[i] = index.Entry{Key: k, Value: uint64(i)}
			}
			// Scans cross shard boundaries in order, from several starts.
			checkScanMatches(t, s, want, nil, len(ks)+10)
			checkScanMatches(t, s, want, ks[len(ks)/3], 100)
			checkScanMatches(t, s, want, ks[len(ks)-5], 100)
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 20; i++ {
				checkScanMatches(t, s, want, keys.Uint64(rng.Uint64()), 1+rng.Intn(200))
			}
			// Scan starting exactly at a shard boundary.
			for _, b := range s.Router().Boundaries() {
				checkScanMatches(t, s, want, b, 50)
			}
		})
	}
}

// TestScanCallbackReentry pins the no-lock-during-callback property: a scan
// callback may call back into the index without deadlocking (hybrid.Scan
// forbids this; the sharded shard walk holds no lock while fn runs).
func TestScanCallbackReentry(t *testing.T) {
	s := New(smallCfg(4))
	for i := 0; i < 1000; i++ {
		s.Insert(keys.Uint64(uint64(i)*2654435761), uint64(i))
	}
	n := 0
	s.Scan(nil, func(k []byte, v uint64) bool {
		if got, ok := s.Get(k); !ok || got != v {
			t.Fatalf("reentrant Get(%x) = (%d,%v), want (%d,true)", k, got, ok, v)
		}
		n++
		return n < 50
	})
	if n != 50 {
		t.Fatalf("visited %d entries, want 50", n)
	}
}

func TestBulkLoad(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		s := New(smallCfg(shards))
		ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(10000, 4)))
		entries := make([]index.Entry, len(ks))
		for i, k := range ks {
			entries[i] = index.Entry{Key: k, Value: uint64(i)}
		}
		if err := s.BulkLoad(entries); err != nil {
			t.Fatal(err)
		}
		if dyn, st := stageLens(s); s.Len() != len(ks) || st != len(ks) || dyn != 0 {
			t.Fatalf("shards=%d: Len=%d static=%d dynamic=%d, want all static %d",
				shards, s.Len(), st, dyn, len(ks))
		}
		for i, k := range ks {
			if v, ok := s.Get(k); !ok || v != uint64(i) {
				t.Fatalf("shards=%d: Get(%x) = (%d,%v)", shards, k, v, ok)
			}
		}
		checkScanMatches(t, s, entries, ks[len(ks)/2], 200)
	}
}

func TestBulkLoadWithLearnedRouter(t *testing.T) {
	// Skewed keyspace: uniform router would put everything in one shard; the
	// learned router balances it.
	n := 8000
	ks := make([][]byte, n)
	for i := range ks {
		ks[i] = []byte(fmt.Sprintf("user%08d", i)) // shared "user" prefix
	}
	cfg := smallCfg(8)
	cfg.Router = RouterFromSample(ks, 8)
	s := New(cfg)
	entries := make([]index.Entry, len(ks))
	for i, k := range ks {
		entries[i] = index.Entry{Key: k, Value: uint64(i)}
	}
	if err := s.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	for i, sh := range s.shards {
		if l := sh.Len(); l < n/16 || l > n/4 {
			t.Fatalf("learned router: shard %d holds %d of %d keys, want balanced", i, l, n)
		}
	}
	uni := New(smallCfg(8))
	if err := uni.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	if uni.shards[shardOf(uni, ks[0])].Len() != n {
		t.Fatal("expected the uniform router to collapse the skewed keyspace into one shard (sanity check)")
	}
}

// --- Differential harness ---

func TestDifferential(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := New(smallCfg(shards))
			dstest.Run(t, s, dstest.Config{Ops: 6000, KeySpace: 600, Seed: 5})
			s.WaitMerges()
		})
	}
	t.Run("learned-router", func(t *testing.T) {
		cfg := smallCfg(6)
		sample := make([][]byte, 256)
		for i := range sample {
			sample[i] = []byte{byte(i)}
		}
		cfg.Router = RouterFromSample(sample, 6)
		s := New(cfg)
		dstest.Run(t, s, dstest.Config{Ops: 6000, KeySpace: 600, Seed: 6})
		s.WaitMerges()
	})
}

// TestShardedDifferentialFixedWidth is the served configuration: raw 8-byte
// keys and no codec, so every static stage a merge builds is a key column
// (fst.Static). The keys spread over the shards by their first byte and
// share long runs of zero bytes below it. Inserts, updates and deletes go
// through background merges; point reads, and ScanN from stored keys, their
// prefixes and extensions and the empty start, which cross shards, are held
// to a sorted model.
func TestShardedDifferentialFixedWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	space := make([][]byte, 3000)
	for i := range space {
		space[i] = keys.Uint64(uint64(rng.Intn(256))<<56 | rng.Uint64()>>44)
	}
	s := New(smallCfg(8))
	oracle := map[string]uint64{}
	checkScanN := func(op int, start []byte) {
		t.Helper()
		var want []string
		for k := range oracle {
			if k >= string(start) {
				want = append(want, k)
			}
		}
		sort.Strings(want)
		n := 1 + rng.Intn(300)
		want = want[:min(n, len(want))]
		got := s.ScanN(start, n)
		if len(got) != len(want) {
			t.Fatalf("op %d: ScanN(%x, %d) = %d entries, want %d", op, start, n, len(got), len(want))
		}
		for i, e := range got {
			if string(e.Key) != want[i] || e.Value != oracle[want[i]] {
				t.Fatalf("op %d: ScanN(%x)[%d] = %x/%d, want %x/%d", op, start, i, e.Key, e.Value, want[i], oracle[want[i]])
			}
		}
	}
	const ops = 20000
	for op := 0; op < ops; op++ {
		k := space[rng.Intn(len(space))]
		_, present := oracle[string(k)]
		v := rng.Uint64()
		switch r := rng.Intn(10); {
		case r < 4:
			if s.Insert(k, v) != !present {
				t.Fatalf("op %d: Insert(%x) disagrees with present=%v", op, k, present)
			}
			if !present {
				oracle[string(k)] = v
			}
		case r < 6:
			if s.Update(k, v) != present {
				t.Fatalf("op %d: Update(%x) disagrees with present=%v", op, k, present)
			}
			if present {
				oracle[string(k)] = v
			}
		case r < 7:
			if s.Delete(k) != present {
				t.Fatalf("op %d: Delete(%x) disagrees with present=%v", op, k, present)
			}
			delete(oracle, string(k))
		default:
			got, ok := s.Get(k)
			if want, wantOK := oracle[string(k)]; ok != wantOK || got != want {
				t.Fatalf("op %d: Get(%x) = %d,%v; want %d,%v", op, k, got, ok, want, wantOK)
			}
		}
		if op%50 == 49 {
			k := space[rng.Intn(len(space))]
			for _, start := range [][]byte{k, k[:rng.Intn(8)], append(k[:8:8], 0x00), nil} {
				checkScanN(op, start)
			}
		}
	}
	s.WaitMerges()
	s.Merge()
	for k, want := range oracle {
		if got, ok := s.Get([]byte(k)); !ok || got != want {
			t.Fatalf("after merging: Get(%x) = %d,%v; want %d", k, got, ok, want)
		}
	}
	for _, k := range space[:20] {
		if _, ok := s.Get(k[:7]); ok {
			t.Fatalf("Get(%x), a 7-byte prefix, found an entry", k[:7])
		}
	}
	checkScanN(ops, nil)
	if got := len(s.ScanN(nil, len(oracle)+1)); got != len(oracle) || s.Len() != len(oracle) {
		t.Fatalf("after merging: ScanN(nil) = %d entries, Len = %d; want %d", got, s.Len(), len(oracle))
	}
}

// --- Concurrent stress: readers + writers + background merges on all
// shards simultaneously (run under -race this is the acceptance gate). ---

func valOf(k []byte, updated bool) uint64 {
	h := fnv.New64a()
	h.Write(k)
	v := h.Sum64()
	if updated {
		v ^= 0xA5A5A5A5A5A5A5A5
	}
	return v
}

func TestConcurrentStress(t *testing.T) {
	s := New(smallCfg(8))
	keySpace := make([][]byte, 4000)
	for i := range keySpace {
		keySpace[i] = keys.Uint64(uint64(i) * 2654435761)
	}
	oracle := make(map[string]uint64)
	var modelMu sync.Mutex // makes (index op, oracle op) atomic

	const writers, readers = 4, 4
	opsPerWriter := 12000
	if raceEnabled {
		opsPerWriter = 1500
	}
	var writerWg, readerWg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(seed int64) {
			defer writerWg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPerWriter; i++ {
				k := keySpace[rng.Intn(len(keySpace))]
				modelMu.Lock()
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					if s.Insert(k, valOf(k, false)) {
						oracle[string(k)] = valOf(k, false)
					}
				case 4, 5, 6:
					if s.Update(k, valOf(k, true)) {
						oracle[string(k)] = valOf(k, true)
					}
				default:
					if s.Delete(k) {
						delete(oracle, string(k))
					}
				}
				modelMu.Unlock()
			}
		}(int64(w) + 7)
	}
	for r := 0; r < readers; r++ {
		readerWg.Add(1)
		go func(seed int64) {
			defer readerWg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				runtime.Gosched()
				k := keySpace[rng.Intn(len(keySpace))]
				if v, ok := s.Get(k); ok {
					if v != valOf(k, false) && v != valOf(k, true) {
						t.Errorf("Get(%x) returned %d, not a value any writer stored", k, v)
						return
					}
				}
				if rng.Intn(32) == 0 {
					// Cross-shard scans during merges: ordered, writer-valued.
					var prev []byte
					steps := 0
					s.Scan(k, func(sk []byte, v uint64) bool {
						if prev != nil && keys.Compare(prev, sk) >= 0 {
							t.Errorf("scan out of order: %x then %x", prev, sk)
							return false
						}
						if v != valOf(sk, false) && v != valOf(sk, true) {
							t.Errorf("scan value for %x not writer-stored", sk)
							return false
						}
						prev = append(prev[:0], sk...)
						steps++
						return steps < 40
					})
				}
				if rng.Intn(64) == 0 {
					for _, e := range s.ScanN(k, 20) {
						if e.Value != valOf(e.Key, false) && e.Value != valOf(e.Key, true) {
							t.Errorf("ScanN value for %x not writer-stored", e.Key)
							return
						}
					}
				}
			}
		}(int64(r) + 101)
	}
	writerWg.Wait()
	close(done)
	readerWg.Wait()
	s.WaitMerges()

	if s.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle %d", s.Len(), len(oracle))
	}
	for kk, want := range oracle {
		if got, ok := s.Get([]byte(kk)); !ok || got != want {
			t.Fatalf("final Get(%x) = (%d,%v), want %d", kk, got, ok, want)
		}
	}
	var sorted [][]byte
	for kk := range oracle {
		sorted = append(sorted, []byte(kk))
	}
	sort.Slice(sorted, func(i, j int) bool { return keys.Compare(sorted[i], sorted[j]) < 0 })
	i := 0
	s.Scan(nil, func(k []byte, _ uint64) bool {
		if i >= len(sorted) || !bytes.Equal(k, sorted[i]) {
			t.Fatalf("final scan[%d] mismatch", i)
		}
		i++
		return true
	})
	if i != len(sorted) {
		t.Fatalf("final scan visited %d of %d", i, len(sorted))
	}
	merges, _, _ := s.MergeStats()
	if merges == 0 {
		t.Fatal("expected background merges to have run")
	}
}

// stageLens sums the shards' dynamic (plus frozen) and static stage sizes.
func stageLens(s *Index) (dynamic, static int) {
	for _, sh := range s.shards {
		dynamic += sh.DynamicLen()
		static += sh.StaticLen()
	}
	return dynamic, static
}

// TestMergeAllShards checks that Merge runs one merge per loaded shard and
// that MergeStats aggregates them.
func TestMergeAllShards(t *testing.T) {
	cfg := smallCfg(8)
	cfg.Hybrid.MinDynamic = 1 << 30 // no ratio-triggered merges
	s := New(cfg)
	ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(20000, 8)))
	for i, k := range ks {
		s.Insert(k, uint64(i))
	}
	s.Merge()
	if dyn, st := stageLens(s); dyn != 0 || st != len(ks) {
		t.Fatalf("after merge: dynamic %d static %d, want 0/%d", dyn, st, len(ks))
	}
	merges, worst, total := s.MergeStats()
	if merges != 8 || worst <= 0 || total < worst {
		t.Fatalf("MergeStats = (%d, %v, %v), want 8 merges and sane times", merges, worst, total)
	}
	for i, sh := range s.shards {
		if merges, _, _ := sh.MergeStats(); merges != 1 {
			t.Fatalf("shard %d ran %d merges, want 1", i, merges)
		}
	}
}
