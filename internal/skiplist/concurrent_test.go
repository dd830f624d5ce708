package skiplist

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

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

// TestConcurrentReadersDuringWrites checks, under -race, that lock-free
// readers searching and scanning while the single writer inserts, revives,
// and tombstones keys only ever observe values some writer actually stored.
func TestConcurrentReadersDuringWrites(t *testing.T) {
	c := NewConcurrent()
	keySpace := make([][]byte, 4000)
	for i := range keySpace {
		keySpace[i] = keys.Uint64(uint64(i) * 2654435761)
	}
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
	c := NewConcurrent()
	target := []byte("m")
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
	// "l"+i ascends towards "m": each new key is the probed key's immediate
	// predecessor. The writer keeps going until the reader has had a fair
	// number of probes (a single-CPU run interleaves only by preemption).
	for i := 0; i < inserts || probes.Load() < 1000; i++ {
		c.Put(append([]byte("l"), keys.Uint64(uint64(i))...), uint64(i))
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
