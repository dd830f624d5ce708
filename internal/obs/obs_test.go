package obs

import (
	"encoding/json"
	"testing"
	"time"
)

// TestNilSafety pins the disabled-path contract: every method on nil
// handles is a no-op and every accessor on a nil registry returns nil.
func TestNilSafety(t *testing.T) {
	var r *Registry
	if r.Sub("x.") != nil {
		t.Fatal("nil Registry.Sub must stay nil")
	}
	if r.Counter("c") != nil || r.Gauge("g") != nil || r.Histogram("h") != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	if r.FlightRecorder() != nil || r.StartSpan("s") != nil {
		t.Fatal("nil registry must hand out nil recorder/span")
	}
	r.GaugeFunc("f", func() float64 { return 1 }) // must not panic

	var c *Counter
	c.Add(3)
	c.Inc()
	if c.Load() != 0 {
		t.Fatal("nil counter must read 0")
	}
	var g *Gauge
	g.Set(2.5)
	if g.Load() != 0 {
		t.Fatal("nil gauge must read 0")
	}
	var h *Histogram
	h.Observe(time.Second)
	h.ObserveNs(5)
	if s := h.Snapshot(); s.Count != 0 || s.Max != 0 {
		t.Fatalf("nil histogram snapshot = %+v, want zero", s)
	}
	var sp *Span
	sp.Phase("p")
	sp.End()
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Events) != 0 {
		t.Fatalf("nil registry snapshot = %+v, want zero", snap)
	}
}

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	c.Add(5)
	c.Inc()
	if got := r.Counter("ops").Load(); got != 6 {
		t.Fatalf("counter = %d, want 6 (same handle for same name)", got)
	}
	if r.Counter("ops") != c {
		t.Fatal("Counter must return the identical handle for a name")
	}
	r.Gauge("temp").Set(1.5)
	r.GaugeFunc("derived", func() float64 { return float64(c.Load()) * 2 })
	r.Histogram("lat").Observe(3 * time.Millisecond)

	s := r.Snapshot()
	if s.Counters["ops"] != 6 {
		t.Fatalf("snapshot counter = %d", s.Counters["ops"])
	}
	if s.Gauges["temp"] != 1.5 || s.Gauges["derived"] != 12 {
		t.Fatalf("snapshot gauges = %v", s.Gauges)
	}
	if s.Histograms["lat"].Count != 1 {
		t.Fatalf("snapshot histogram = %+v", s.Histograms["lat"])
	}

	// Sub views share data under a prefix.
	sub := r.Sub("shard0.")
	sub.Counter("get").Add(7)
	if got := r.Snapshot().Counters["shard0.get"]; got != 7 {
		t.Fatalf("sub counter = %d, want 7 under prefixed name", got)
	}
	subsub := sub.Sub("inner.")
	subsub.Counter("x").Inc()
	if got := r.Snapshot().Counters["shard0.inner.x"]; got != 1 {
		t.Fatalf("nested sub prefix broken: %v", r.Snapshot().Counters)
	}

	if counters := r.Snapshot().Counters; len(counters) != 3 {
		t.Fatalf("counters = %v, want exactly ops, shard0.get, shard0.inner.x", counters)
	}
}

// TestSnapshotJSON pins that a snapshot is JSON-encodable with the headline
// quantiles inline — the contract the expvar debug endpoint relies on.
func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("shard0.get").Add(10)
	h := r.Histogram("read_ns")
	for i := 0; i < 100; i++ {
		h.ObserveNs(int64(1000 + i))
	}
	sp := r.StartSpan("merge")
	sp.Phase("seal")
	sp.Phase("build")
	sp.Phase("swap")
	sp.End()

	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	hists := decoded["histograms"].(map[string]any)
	read := hists["read_ns"].(map[string]any)
	for _, k := range []string{"count", "p50_ns", "p95_ns", "p99_ns", "max_ns"} {
		if _, ok := read[k]; !ok {
			t.Fatalf("histogram JSON missing %q: %s", k, data)
		}
	}
	events := decoded["events"].([]any)
	if len(events) != 1 {
		t.Fatalf("events JSON = %v", events)
	}
	// dur_ns and the three phases.
	if ev := events[0].(map[string]any); ev["type"] != "merge" || len(ev["attrs"].([]any)) != 4 {
		t.Fatalf("span record JSON = %v", ev)
	}
	if _, ok := decoded["spans"]; ok {
		t.Fatalf("snapshot still carries a second stream: %s", data)
	}
}

func TestGaugeStoresFloats(t *testing.T) {
	g := new(Gauge)
	for _, v := range []float64{0, 1.25, -3.5, 1e-9, 12345678.9} {
		g.Set(v)
		if got := g.Load(); got != v {
			t.Fatalf("gauge roundtrip %v -> %v", v, got)
		}
	}
}
