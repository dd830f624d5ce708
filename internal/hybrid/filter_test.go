package hybrid

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"mets/internal/bloom"
	"mets/internal/index"
	"mets/internal/keys"
)

// TestIdleGenerationHoldsNoFilter: a generation that has taken no write —
// after a BulkLoad, a foreground merge, or a background merge with no write
// since its seal — holds no Bloom filter, so MemoryUsage is its static stage
// plus its empty memtable. One Insert brings back a filter sized for the
// merge window, max(4096, static / MergeRatio) keys at BloomBitsPerKey.
func TestIdleGenerationHoldsNoFilter(t *testing.T) {
	const n, ratio, bpk = 100_000, 4, 10
	entries := make([]index.Entry, n)
	for i := range entries {
		entries[i] = index.Entry{Key: keys.Uint64(uint64(i) * 2), Value: uint64(i)}
	}
	for _, epoch := range []bool{false, true} {
		t.Run(fmt.Sprintf("epoch=%v", epoch), func(t *testing.T) {
			h := NewFST(Config{MergeRatio: ratio, MinDynamic: 1 << 30, BloomBitsPerKey: bpk,
				EpochReads: epoch, BackgroundMerge: true})
			idle := func(step string) {
				t.Helper()
				g := h.gen.Load()
				if f := g.filter.Load(); f != nil || g.frozen != nil {
					t.Fatalf("%s: filter %v, frozen %v; want neither", step, f != nil, g.frozen != nil)
				}
				if got, want := h.MemoryUsage(), g.static.MemoryUsage()+g.mem.MemoryUsage(); got != want {
					t.Fatalf("%s: MemoryUsage %d, want static + memtable = %d", step, got, want)
				}
			}
			written := func(step string, key uint64) {
				t.Helper()
				if !h.Insert(keys.Uint64(key), key) {
					t.Fatalf("%s: Insert(%d) refused", step, key)
				}
				g := h.gen.Load()
				f := g.filter.Load()
				want := bloom.New(max(g.staticLen()/ratio, 4096), bpk).MemoryUsage()
				if f == nil || f.MemoryUsage() != want {
					t.Fatalf("%s: filter after the first Insert %v, want %d bytes", step, f, want)
				}
				if v, ok := h.Get(keys.Uint64(key)); !ok || v != key {
					t.Fatalf("%s: Get(%d) = %d, %v after its Insert", step, key, v, ok)
				}
			}

			if err := h.BulkLoad(entries); err != nil {
				t.Fatal(err)
			}
			idle("bulk load")
			written("bulk load", 1)
			h.Merge()
			idle("merge")
			written("merge", 3)
			if !startMerge(h) {
				t.Fatal("no background merge started")
			}
			h.WaitMerges()
			idle("background merge")
			written("background merge", 5)
		})
	}
}

// TestFirstWriteRace races readers against the first writes to a generation
// that holds no filter yet — after a bulk load, and after a merge commit —
// for 1,000 rounds. A key whose Insert returned is never missed, and a key
// whose Delete returned (its live copy below the memtable) is never brought
// back. Run it under -race: the filter's publication must order before the
// memtable entry it fronts.
func TestFirstWriteRace(t *testing.T) {
	const rounds, static, readers = 1000, 64, 2
	for _, epoch := range []bool{false, true} {
		t.Run(fmt.Sprintf("epoch=%v", epoch), func(t *testing.T) {
			h := NewBTree(Config{MergeRatio: 4, MinDynamic: 1 << 30, BloomBitsPerKey: 10,
				EpochReads: epoch, BackgroundMerge: true})
			for r := 0; r < rounds; r++ {
				base := uint64(r) << 20
				entries := make([]index.Entry, static)
				for i := range entries {
					entries[i] = index.Entry{Key: keys.Uint64(base + uint64(i)*2), Value: uint64(i)}
				}
				if err := h.BulkLoad(entries); err != nil {
					t.Fatal(err)
				}
				if r%2 == 1 { // an idle generation from a merge commit instead
					h.Insert(keys.Uint64(base+1), 1)
					if r%4 == 1 {
						h.Merge()
					} else if startMerge(h) {
						h.WaitMerges()
					}
				}
				if f := h.gen.Load().filter.Load(); f != nil {
					t.Fatalf("round %d: the generation the writes race on already has a filter", r)
				}
				ins, del := keys.Uint64(base+3), keys.Uint64(base+4)
				var inserted, deleted atomic.Bool
				var start, wg sync.WaitGroup
				var failure atomic.Pointer[string]
				start.Add(1)
				for i := 0; i < readers; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						start.Wait()
						for !deleted.Load() || !inserted.Load() {
							wasIns, wasDel := inserted.Load(), deleted.Load()
							if _, ok := h.Get(ins); wasIns && !ok {
								msg := fmt.Sprintf("round %d: inserted key missed", r)
								failure.Store(&msg)
								return
							}
							if _, ok := h.Get(del); wasDel && ok {
								msg := fmt.Sprintf("round %d: deleted key brought back", r)
								failure.Store(&msg)
								return
							}
						}
					}()
				}
				start.Done()
				insert := func() {
					if !h.Insert(ins, 3) {
						t.Errorf("round %d: Insert refused", r)
					}
					inserted.Store(true)
				}
				remove := func() {
					if !h.Delete(del) {
						t.Errorf("round %d: Delete refused", r)
					}
					deleted.Store(true)
				}
				if r/2%2 == 0 { // either op is the generation's first write
					insert()
					remove()
				} else {
					remove()
					insert()
				}
				wg.Wait()
				if msg := failure.Load(); msg != nil {
					t.Fatal(*msg)
				}
				if _, ok := h.Get(ins); !ok {
					t.Fatalf("round %d: inserted key missed after the race", r)
				}
				if _, ok := h.Get(del); ok {
					t.Fatalf("round %d: deleted key brought back after the race", r)
				}
			}
		})
	}
}
