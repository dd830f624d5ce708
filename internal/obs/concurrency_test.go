package obs

import (
	"sync"
	"testing"
	"time"
)

// TestConcurrentCounters hammers a shared registry from parallel writers —
// counter totals must be exact, and name-based handle resolution must be safe
// while other goroutines resolve the same and different names.
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	const (
		workers = 8
		perW    = 10_000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shared := r.Counter("shared")
			own := r.Sub("w.").Counter(string(rune('a' + w)))
			for i := 0; i < perW; i++ {
				shared.Inc()
				own.Inc()
				if i%1024 == 0 {
					// Re-resolve mid-flight: the map path must be race-free.
					r.Counter("shared").Add(0)
				}
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["shared"] != workers*perW {
		t.Fatalf("shared = %d, want %d", s.Counters["shared"], workers*perW)
	}
	for w := 0; w < workers; w++ {
		name := "w." + string(rune('a'+w))
		if s.Counters[name] != perW {
			t.Fatalf("%s = %d, want %d", name, s.Counters[name], perW)
		}
	}
}

// TestSnapshotWhileWriting takes snapshots concurrently with writers and
// checks the internal-consistency guarantees: a histogram snapshot's Count
// always equals the sum of its buckets, counts are monotonic across
// successive snapshots, and the final quiesced snapshot is exact.
func TestSnapshotWhileWriting(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	c := r.Counter("ops")
	const (
		writers = 4
		perW    = 20_000
	)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.ObserveNs(int64(1 + (w*perW+i)%100_000))
				c.Inc()
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()

	var lastCount, lastOps int64
	for snaps := 0; ; snaps++ {
		s := r.Snapshot()
		hs := s.Histograms["lat"]
		var bucketSum int64
		for _, b := range hs.Buckets {
			bucketSum += b
		}
		if hs.Count != bucketSum {
			t.Fatalf("snapshot %d: Count %d != bucket sum %d", snaps, hs.Count, bucketSum)
		}
		if hs.Count < lastCount || s.Counters["ops"] < lastOps {
			t.Fatalf("snapshot %d: counts went backwards (%d<%d or %d<%d)",
				snaps, hs.Count, lastCount, s.Counters["ops"], lastOps)
		}
		if hs.Count > 0 && hs.Quantile(0.99) == 0 {
			t.Fatalf("snapshot %d: nonzero count but p99=0 (positive values only)", snaps)
		}
		lastCount, lastOps = hs.Count, s.Counters["ops"]
		select {
		case <-done:
			final := r.Snapshot()
			want := int64(writers * perW)
			if final.Histograms["lat"].Count != want || final.Counters["ops"] != want {
				t.Fatalf("final = (%d,%d), want %d",
					final.Histograms["lat"].Count, final.Counters["ops"], want)
			}
			return
		default:
		}
	}
}

// TestConcurrentHistogramMax checks the CAS max loop under contention: the
// final max must be the largest observed value.
func TestConcurrentHistogramMax(t *testing.T) {
	h := NewHistogram()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				h.ObserveNs(int64(w*5000 + i))
			}
		}(w)
	}
	wg.Wait()
	if got, want := h.Snapshot().Max, int64(workers*5000-1); got != want {
		t.Fatalf("max = %d, want %d", got, want)
	}
}

// TestConcurrentSpans ends spans from many goroutines while readers drain
// the ring — a record is never torn: whichever span a slot holds, it holds all
// of it (under the race detector this also exercises the slot locking).
func TestConcurrentSpans(t *testing.T) {
	fr := NewFlightRecorder(DefaultFlightEvents)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, ev := range fr.Events() {
					w, ok := attr(ev, "worker")
					if ev.Type != "work" || len(ev.Attrs) != 4 || !ok || uint64(w.Val) != ev.Span%4 {
						t.Errorf("torn span record: %+v", ev)
						return
					}
				}
			}
		}
	}()
	var ww sync.WaitGroup
	var ids [4][]uint64
	for w := 0; w < 4; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < 500; i++ {
				sp := fr.StartSpan("work", 0)
				sp.Phase("a")
				sp.Phase("b")
				sp.Annotate(I64("worker", int64(sp.ID()%4)))
				sp.End()
				ids[w] = append(ids[w], sp.ID())
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	seen := make(map[uint64]bool)
	for _, w := range ids {
		for _, id := range w {
			if id == 0 || seen[id] {
				t.Fatalf("span ID %d is zero or was handed out twice", id)
			}
			seen[id] = true
		}
	}
	if n := fr.next.Load(); n != 2000 {
		t.Fatalf("recorded %d spans, want 2000", n)
	}
}

// TestConcurrentGaugeFuncRegistration registers derived gauges while
// snapshots run; GaugeFunc evaluation happens outside the registry lock, so a
// fn that sleeps must not block writers from resolving new handles.
func TestConcurrentGaugeFuncRegistration(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("slow", func() float64 {
		time.Sleep(100 * time.Microsecond)
		return 1
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 3 {
				case 0:
					_ = r.Snapshot()
				case 1:
					r.Counter("c").Inc()
				default:
					r.Gauge("g").Set(float64(i))
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Snapshot().Counters["c"]; got == 0 {
		t.Fatal("counter writes lost")
	}
}
