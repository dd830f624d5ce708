package skiplist

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"mets/internal/hope"
	"mets/internal/keycodec"
	"mets/internal/keys"
)

// TestConcurrentStates drives the memtable's value/tombstone state machine
// against a map oracle, single-threaded.
func TestConcurrentStates(t *testing.T) {
	c := NewConcurrent()
	type st struct {
		v    uint64
		tomb bool
	}
	oracle := map[string]st{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		k := keys.Uint64(uint64(rng.Intn(2000)))
		switch rng.Intn(3) {
		case 0, 1:
			v := rng.Uint64()
			c.Put(k, v)
			oracle[string(k)] = st{v: v}
		case 2:
			c.Tomb(k)
			oracle[string(k)] = st{tomb: true}
		}
	}
	live, tombs := 0, 0
	for k, s := range oracle {
		v, ok, tomb := c.Get([]byte(k))
		if tomb != s.tomb || ok == s.tomb || (ok && v != s.v) {
			t.Fatalf("key %x: got (%d,%v,%v) want %+v", k, v, ok, tomb, s)
		}
		if s.tomb {
			tombs++
		} else {
			live++
		}
	}
	if c.Len() != live || c.Tombs() != tombs {
		t.Fatalf("Len=%d Tombs=%d, oracle %d/%d", c.Len(), c.Tombs(), live, tombs)
	}
	// Absent keys.
	if _, ok, tomb := c.Get(keys.Uint64(1 << 40)); ok || tomb {
		t.Fatal("absent key reported present")
	}
	// Ordered drain matches the oracle.
	snap := c.SnapshotStates()
	if len(snap) != live+tombs {
		t.Fatalf("snapshot %d entries, want %d", len(snap), live+tombs)
	}
	for i := 1; i < len(snap); i++ {
		if keys.Compare(snap[i-1].Key, snap[i].Key) >= 0 {
			t.Fatalf("snapshot out of order at %d", i)
		}
	}
	for _, e := range snap {
		s := oracle[string(e.Key)]
		if e.Tomb != s.tomb || (!e.Tomb && e.Value != s.v) {
			t.Fatalf("snapshot entry %x diverges from oracle", e.Key)
		}
	}
}

// tiedKeys returns n distinct keys in groups of four that share their first
// 8 bytes (the key itself, a zero byte after it, a short and a long
// suffix), so that searches among them go through the full-key compare.
// The groups' prefixes are spread over the key space.
func tiedKeys(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		p := keys.Uint64(uint64(i/4) * 2654435761)
		switch i % 4 {
		case 1:
			p = append(p, 0)
		case 2:
			p = append(p, 1, 2)
		case 3:
			p = append(p, "\xff\xff\xff\xff\xff\xff\xff\xff\xff"...)
		}
		out[i] = p
	}
	return out
}

// TestConcurrentReadersDuringWrites checks, under -race, that lock-free
// readers searching and scanning while the single writer inserts, revives,
// and tombstones keys only ever observe values some writer actually stored.
// Half the key space is tied in groups of four by 8-byte prefix, so readers
// also take the full-key compare while the writer links towers of every
// height class.
func TestConcurrentReadersDuringWrites(t *testing.T) {
	c := NewConcurrent()
	keySpace := make([][]byte, 4000)
	for i := range keySpace[:2000] {
		keySpace[i] = keys.Uint64(uint64(i)*2654435761 + 1)
	}
	copy(keySpace[2000:], tiedKeys(2000))
	// Each key's only legal values derive from its index.
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
				if v, ok, _ := c.Get(keySpace[i]); ok && v != valOf(i) {
					panic(fmt.Sprintf("reader saw impossible value %d for key %d", v, i))
				}
				if rng.Intn(16) == 0 {
					prev := []byte(nil)
					n := 0
					c.ScanStates(keySpace[rng.Intn(len(keySpace))], func(k []byte, _ uint64, _ bool) bool {
						if prev != nil && keys.Compare(prev, k) >= 0 {
							panic("scan order violated during concurrent writes")
						}
						prev = k
						n++
						return n < 50
					})
				}
			}
		}(int64(r))
	}
	rng := rand.New(rand.NewSource(99))
	writes := 40000
	if raceEnabled {
		writes = 8000
	}
	for w := 0; w < writes; w++ {
		i := rng.Intn(len(keySpace))
		if rng.Intn(4) == 0 {
			c.Tomb(keySpace[i])
		} else {
			c.Put(keySpace[i], valOf(i))
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestConcurrentMatchesList cross-checks live-entry iteration against the
// plain List fed the same operations.
func TestConcurrentMatchesList(t *testing.T) {
	c := NewConcurrent()
	l := New()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		k := keys.Uint64(uint64(rng.Intn(800)))
		v := rng.Uint64()
		switch rng.Intn(4) {
		case 0, 1:
			if c.Put(k, v) {
				l.Insert(k, v)
			} else {
				l.Update(k, v)
			}
			// A Put over a tombstone re-inserts into the list model.
			if _, ok := l.Get(k); !ok {
				l.Insert(k, v)
			}
		case 2:
			c.Tomb(k)
			l.Delete(k)
		case 3:
			cv, cok, _ := c.Get(k)
			lv, lok := l.Get(k)
			if cok != lok || (cok && cv != lv) {
				t.Fatalf("Get(%x) diverged: concurrent (%d,%v) vs list (%d,%v)", k, cv, cok, lv, lok)
			}
		}
	}
	if c.Len() != l.Len() {
		t.Fatalf("Len diverged: %d vs %d", c.Len(), l.Len())
	}
	var a, b []string
	c.Scan(nil, func(k []byte, v uint64) bool { a = append(a, fmt.Sprintf("%x=%d", k, v)); return true })
	l.Scan(nil, func(k []byte, v uint64) bool { b = append(b, fmt.Sprintf("%x=%d", k, v)); return true })
	if len(a) != len(b) {
		t.Fatalf("scan lengths diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("scan diverged at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestConcurrentPresentKeyNeverMisses is the regression for the search
// re-load bug: Get and the scan start used to load the bottom-level successor
// a second time after the search loop, so a writer linking a smaller
// neighbour between the loop's last comparison and that second load made a
// present key read as absent and started a scan below its bound. The writer links every new
// key directly in front of the probed one — the only position that changes
// the link the reader last followed — while one reader probes it.
func TestConcurrentPresentKeyNeverMisses(t *testing.T) {
	// With a shared 8-byte prefix every hop near the target ties on the
	// prefix and is decided by the full-key compare.
	for _, pfx := range []string{"", "shared08"} {
		t.Run(fmt.Sprintf("prefix=%q", pfx), func(t *testing.T) { presentKeyNeverMisses(t, pfx) })
	}
}

func presentKeyNeverMisses(t *testing.T, pfx string) {
	c := NewConcurrent()
	target := []byte(pfx + "m")
	c.Put(target, 42)
	inserts := 400000
	if raceEnabled {
		inserts = 60000
	}
	var stop atomic.Bool
	var misses, below, probes atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if v, ok, _ := c.Get(target); !ok || v != 42 {
				misses.Add(1)
			}
			atTarget := false
			c.ScanStates(target, func(k []byte, _ uint64, _ bool) bool {
				atTarget = keys.Compare(k, target) >= 0
				return false
			})
			if !atTarget {
				below.Add(1)
			}
			probes.Add(1)
		}
	}()
	// pfx+"l"+i ascends towards the target: each new key is the probed key's
	// immediate predecessor. The writer keeps going until the reader has had
	// a fair number of probes (a single-CPU run interleaves only by
	// preemption).
	for i := 0; i < inserts || probes.Load() < 1000; i++ {
		c.Put(append([]byte(pfx+"l"), keys.Uint64(uint64(i))...), uint64(i))
		if i%1024 == 0 {
			runtime.Gosched()
		}
	}
	stop.Store(true)
	wg.Wait()
	if misses.Load() != 0 || below.Load() != 0 {
		t.Fatalf("%d of %d probes missed the present key, %d cursors started below their bound",
			misses.Load(), probes.Load(), below.Load())
	}
}

// TestConcurrentPutAllocs holds the node layout to its budget: a new key is
// one allocation, its node with the tower; the key bytes come from the
// writer's slab, whose chunks double, so they add a handful per memtable.
func TestConcurrentPutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 4096
	ks := keys.Dedup(keys.Emails(2*n, 1))[:n]
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	mems := make([]*Concurrent, 0, 2)
	for range cap(mems) {
		mems = append(mems, NewConcurrent())
	}
	allocs := testing.AllocsPerRun(1, func() {
		c := mems[0]
		mems = mems[1:]
		for i, k := range ks {
			c.Put(k, uint64(i))
		}
	})
	if perKey := allocs / n; perKey > 1.01 {
		t.Fatalf("%.0f allocations for %d new keys (%.3f per key), want at most one per key", allocs, n, perKey)
	}
}

// TestConcurrentMemoryUsageMatchesHeap holds MemoryUsage within 10% of
// what the heap grows by while a memtable fills with emails in random
// order, a tenth of them tombstones, and an empty memtable at 0 bytes.
func TestConcurrentMemoryUsageMatchesHeap(t *testing.T) {
	if got := NewConcurrent().MemoryUsage(); got != 0 {
		t.Fatalf("empty memtable reports %d bytes, want 0", got)
	}
	ks := keys.Dedup(keys.Emails(60000, 5))
	perm := rand.New(rand.NewSource(5)).Perm(len(ks))
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	c := NewConcurrent()
	for _, i := range perm {
		if i%10 == 0 {
			c.Tomb(ks[i])
		} else {
			c.Put(ks[i], uint64(i))
		}
	}
	actual := float64(heap()) - float64(before)
	reported := float64(c.MemoryUsage())
	runtime.KeepAlive(c)
	runtime.KeepAlive(ks) // the inputs are not the memtable's to charge
	runtime.KeepAlive(perm)
	if ratio := reported / actual; ratio < 0.90 || ratio > 1.10 {
		t.Fatalf("MemoryUsage reports %.0f B for %d keys, heap grew %.0f B (ratio %.3f, want within 10%%)", reported, len(ks), actual, ratio)
	} else {
		t.Logf("MemoryUsage %.0f B for %d keys, heap %.0f B (ratio %.3f)", reported, len(ks), actual, ratio)
	}
}

// fuzzKeys are the bases FuzzConcurrentOps draws keys from: the empty key,
// keys shorter than 8 bytes, keys that are zero-padded versions of each
// other ("ab" against "ab\x00"), and keys equal in their first 8 bytes.
var fuzzKeys = []string{
	"", "\x00", "a", "ab", "ab\x00", "ab\x00\x00\x00\x00\x00\x00", "ab\x00\x00\x00\x00\x00\x00\x00",
	"abcdefgh", "abcdefgh\x00", "abcdefghab", "abcdefgh\xff", "abcdefgg\xff\xff",
	"\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\xff",
}

// FuzzConcurrentOps drives Put, Tomb, Get and ScanStates against a sorted
// map oracle. Every op is two bytes: the op, and a key base; a base with
// the top bit set takes the next input byte as a suffix, so many keys tie
// on their 8-byte prefix.
func FuzzConcurrentOps(f *testing.F) {
	f.Add([]byte{0, 3, 0, 4, 2, 3, 3, 0})
	f.Add([]byte{0, 0, 1, 1, 0, 5, 0, 6, 2, 0, 3, 4, 0, 0x87, 9, 0, 0x88, 1, 3, 7})
	f.Add([]byte{0, 0x87, 0, 0, 0x87, 1, 1, 0x87, 0, 0, 0x8c, 5, 2, 0x87, 1, 3, 0x87})
	f.Add([]byte{0, 0x82, 'c', 0, 6, 0, 0x82, 0xff, 0, 3, 3, 0, 2, 6, 2, 0x82, 'c'})
	f.Fuzz(func(t *testing.T, data []byte) {
		type entry struct {
			v    uint64
			tomb bool
		}
		c := NewConcurrent()
		oracle := map[string]entry{}
		sorted := func() []string {
			ks := make([]string, 0, len(oracle))
			for k := range oracle {
				ks = append(ks, k)
			}
			sort.Strings(ks)
			return ks
		}
		for step := uint64(1); len(data) >= 2; step++ {
			op, sel := data[0], data[1]
			data = data[2:]
			k := fuzzKeys[int(sel&0x7f)%len(fuzzKeys)]
			if sel&0x80 != 0 && len(data) > 0 {
				k += string(data[:1])
				data = data[1:]
			}
			key := []byte(k)
			switch op % 4 {
			case 0:
				_, existed := oracle[k]
				if created := c.Put(key, step); created == existed {
					t.Fatalf("Put(%q) created=%v, key existed=%v", k, created, existed)
				}
				oracle[k] = entry{v: step}
			case 1:
				e, existed := oracle[k]
				if was := c.Tomb(key); was != (existed && !e.tomb) {
					t.Fatalf("Tomb(%q) = %v, oracle %+v existed=%v", k, was, e, existed)
				}
				oracle[k] = entry{tomb: true}
			case 2:
				e, existed := oracle[k]
				v, ok, tomb := c.Get(key)
				if ok != (existed && !e.tomb) || tomb != (existed && e.tomb) || ok && v != e.v {
					t.Fatalf("Get(%q) = (%d,%v,%v), oracle %+v existed=%v", k, v, ok, tomb, e, existed)
				}
			case 3:
				want := sorted()
				want = want[sort.SearchStrings(want, k):]
				i := 0
				c.ScanStates(key, func(got []byte, v uint64, tomb bool) bool {
					if i == len(want) || string(got) != want[i] {
						t.Fatalf("ScanStates(%q) step %d: got %q, oracle %q", k, i, got, want)
					}
					if e := oracle[want[i]]; tomb != e.tomb || !tomb && v != e.v {
						t.Fatalf("ScanStates(%q) at %q: (%d,%v), oracle %+v", k, got, v, tomb, e)
					}
					i++
					return i < 8
				})
				if i < min(8, len(want)) {
					t.Fatalf("ScanStates(%q) stopped after %d of %d keys", k, i, len(want))
				}
			}
		}
		live := 0
		for _, e := range oracle {
			if !e.tomb {
				live++
			}
		}
		if c.Len() != live || c.Nodes() != len(oracle) {
			t.Fatalf("Len=%d Nodes=%d, oracle %d live of %d", c.Len(), c.Nodes(), live, len(oracle))
		}
		var all []string
		c.ScanStates(nil, func(k []byte, _ uint64, _ bool) bool { all = append(all, string(k)); return true })
		if want := sorted(); fmt.Sprint(all) != fmt.Sprint(want) {
			t.Fatalf("full scan %q, oracle %q", all, want)
		}
	})
}

// BenchmarkMemtable runs the memtable in lib-write-merge's shape: emails
// encoded with HOPE 3-Grams (a 2^14-entry dictionary trained on every 100th
// key) and split over 8 shards by key range, each shard's memtable taking
// MinDynamic (4,096) keys before a fresh one replaces it. Put is one insert
// in random order, Get one read of a present key.
func BenchmarkMemtable(b *testing.B) {
	const shards, perShard = 8, 4096
	const n = shards * perShard
	ks := keys.Dedup(keys.Emails(n+n/8, 1))
	if len(ks) < n {
		b.Fatalf("%d distinct emails, want %d", len(ks), n)
	}
	ks = ks[:n]
	sample := make([][]byte, 0, n/100+1)
	for i := 0; i < n; i += 100 {
		sample = append(sample, ks[i])
	}
	codec, err := keycodec.TrainHOPE(sample, hope.ThreeGrams, 1<<14)
	if err != nil {
		b.Fatal(err)
	}
	enc := make([][]byte, n) // in key order: HOPE preserves it
	for i, k := range ks {
		enc[i] = append([]byte(nil), codec.Encode(k)...)
	}
	order := rand.New(rand.NewSource(1)).Perm(n)
	b.Run("Put", func(b *testing.B) {
		var mems [shards]*Concurrent
		for i := 0; i < b.N; i++ {
			j := order[i%n]
			m := mems[j/perShard]
			if m == nil || m.Nodes() == perShard {
				m = NewConcurrent()
				mems[j/perShard] = m
			}
			m.Put(enc[j], uint64(j))
		}
	})
	b.Run("Get", func(b *testing.B) {
		var mems [shards]*Concurrent
		for s := range mems {
			mems[s] = NewConcurrent()
		}
		for _, j := range order {
			mems[j/perShard].Put(enc[j], uint64(j))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := order[i%n]
			if v, ok, _ := mems[j/perShard].Get(enc[j]); !ok || v != uint64(j) {
				b.Fatalf("Get(key %d) = (%d, %v)", j, v, ok)
			}
		}
	})
}
