package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mets/internal/surf"
)

// lsmKey and lsmVal derive a deterministic key space and the two values any
// writer may store, so lock-free readers can validate whatever they observe.
func lsmKey(i int) []byte {
	return []byte(fmt.Sprintf("key-%08d", i))
}

func lsmVal(k []byte, updated bool) []byte {
	h := fnv.New64a()
	h.Write(k)
	v := h.Sum64()
	if updated {
		v ^= 0xA5A5A5A5A5A5A5A5
	}
	var out [8]byte
	binary.LittleEndian.PutUint64(out[:], v)
	return out[:]
}

// TestConcurrentStress races readers against writer goroutines (serialized
// against a shared oracle) whose tiny MemTable makes every few writes flush
// and compact inline under the write lock. Run under -race this exercises
// the readers-writer locking of the level structure and the block cache.
func TestConcurrentStress(t *testing.T) {
	for _, filtered := range []bool{false, true} {
		name := "nofilter"
		cfg := Config{
			MemTableBytes:       8 << 10,
			L0CompactionTrigger: 2,
			TargetTableBytes:    16 << 10,
		}
		if filtered {
			name = "surf"
			cfg.Filter = SuRFFilterBuilder(surf.RealConfig(4))
		}
		t.Run(name, func(t *testing.T) {
			db := Open(cfg)
			const keySpace = 2000
			oracle := make(map[string][]byte)
			var modelMu sync.Mutex // makes (db op, oracle op) atomic

			const writers, readers = 4, 4
			opsPerWriter := 6000
			if raceEnabled {
				opsPerWriter = 1200
			}
			var writerWg, readerWg sync.WaitGroup
			done := make(chan struct{})
			for w := 0; w < writers; w++ {
				writerWg.Add(1)
				go func(seed int64) {
					defer writerWg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < opsPerWriter; i++ {
						k := lsmKey(rng.Intn(keySpace))
						modelMu.Lock()
						switch rng.Intn(10) {
						case 0, 1, 2, 3, 4, 5:
							v := lsmVal(k, rng.Intn(2) == 0)
							db.Put(k, v)
							oracle[string(k)] = v
						default:
							db.Delete(k)
							delete(oracle, string(k))
						}
						modelMu.Unlock()
					}
				}(int64(w) + 7)
			}
			var reads atomic.Int64
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
						runtime.Gosched() // don't starve writers on small GOMAXPROCS
						k := lsmKey(rng.Intn(keySpace))
						if v, ok := db.Get(k); ok {
							if !bytes.Equal(v, lsmVal(k, false)) && !bytes.Equal(v, lsmVal(k, true)) {
								t.Errorf("Get(%s) returned %x, not a value any writer stored", k, v)
								return
							}
						}
						reads.Add(1)
						if rng.Intn(32) == 0 {
							if e, ok := db.Seek(k, nil); ok {
								if bytes.Compare(e.Key, k) < 0 {
									t.Errorf("Seek(%s) returned smaller key %s", k, e.Key)
									return
								}
							}
						}
					}
				}(int64(r) + 101)
			}
			writerWg.Wait()
			close(done) // writers are done; release the readers
			readerWg.Wait()

			if reads.Load() == 0 {
				t.Fatal("readers made no progress")
			}
			if db.Stats.Flushes == 0 || db.Stats.Compactions == 0 {
				t.Fatalf("expected flushes and compactions, got %d/%d",
					db.Stats.Flushes, db.Stats.Compactions)
			}
			for kk, want := range oracle {
				if got, ok := db.Get([]byte(kk)); !ok || !bytes.Equal(got, want) {
					t.Fatalf("final Get(%s) = (%x,%v), want %x", kk, got, ok, want)
				}
			}
			for i := 0; i < keySpace; i++ {
				k := lsmKey(i)
				if _, tracked := oracle[string(k)]; !tracked {
					if _, ok := db.Get(k); ok {
						t.Fatalf("deleted key %s still visible", k)
					}
				}
			}
		})
	}
}
