package hybrid

import (
	"testing"
	"time"

	"mets/internal/keys"
	"mets/internal/obs"
)

// TestObsCounters checks that every public operation lands in exactly one
// counter and that the stage-size gauges agree with the index's own accessors.
func TestObsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := smallCfg()
	cfg.Obs = reg
	h := NewBTree(cfg)
	ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(3000, 5)))
	for i, k := range ks {
		h.Insert(k, uint64(i))
	}
	for _, k := range ks[:500] {
		h.Get(k)
	}
	h.Get(keys.Uint64(0)) // absent key still counts as a Get
	for _, k := range ks[:100] {
		h.Update(k, 1)
	}
	for _, k := range ks[:50] {
		h.Delete(k)
	}
	h.Scan(nil, func(k []byte, v uint64) bool { return true })

	s := reg.Snapshot()
	merges, _, _ := h.MergeStats()
	want := map[string]int64{
		"insert": int64(len(ks)),
		"get":    501,
		"update": 100,
		"delete": 50,
		"scan":   1,
		"merges": int64(merges),
	}
	for name, n := range want {
		if s.Counters[name] != n {
			t.Errorf("counter %q = %d, want %d", name, s.Counters[name], n)
		}
	}
	if merges == 0 {
		t.Fatal("test did not exercise merges; shrink thresholds")
	}
	// After the merged stage absorbed everything, most Gets on static-only
	// keys skip the dynamic stage via the Bloom filter.
	if s.Counters["bloom_skip"] == 0 {
		t.Error("bloom_skip never incremented across 501 gets on a merged index")
	}
	if got, want := s.Gauges["dynamic_len"], float64(h.DynamicLen()); got != want {
		t.Errorf("dynamic_len gauge = %v, want %v", got, want)
	}
	if got, want := s.Gauges["static_len"], float64(h.StaticLen()); got != want {
		t.Errorf("static_len gauge = %v, want %v", got, want)
	}
}

// TestObsDisabledNilSafe pins that a nil Config.Obs leaves every handle nil —
// counters, merge span, recorder — and the disabled path never panics.
func TestObsDisabledNilSafe(t *testing.T) {
	h := NewBTree(smallCfg())
	ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(1000, 9)))
	for i, k := range ks {
		h.Insert(k, uint64(i))
	}
	h.Merge()
	startMerge(h)
	h.WaitMerges()
	h.Get(ks[0])
	if h.obsReg != nil || h.obsGet != nil || h.fr != nil {
		t.Fatal("an index without Config.Obs or Config.Dir holds telemetry handles")
	}
}

// TestObsMergeSpan drives both the synchronous and the background merge path
// and checks the record each leaves in the event stream: named "merge", with
// the phases seal -> build -> swap in that order, each of non-zero duration
// and together inside the span's. The phase boundaries are the observable
// shape of the §5.2.2 merge state machine; the merge.commit event of the same
// span marks the instant the new stage was published.
func TestObsMergeSpan(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := smallCfg()
	cfg.Obs = reg
	cfg.MinDynamic = 1 << 30 // no ratio-triggered merges; we drive them
	h := NewBTree(cfg)
	ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(20000, 11)))
	for i, k := range ks[:10000] {
		h.Insert(k, uint64(i))
	}
	h.Merge() // synchronous span

	for i, k := range ks[10000:] {
		h.Insert(k, uint64(10000+i))
	}
	if !startMerge(h) {
		t.Fatal("no merge started with a populated dynamic stage")
	}
	h.WaitMerges()
	// The span is ended after the swap lock is released, so WaitMerges
	// returning does not guarantee End() ran yet; wait for the record.
	deadline := time.Now().Add(5 * time.Second)
	var spans []obs.Event
	var commits map[uint64]int
	for {
		spans, commits = nil, map[uint64]int{}
		for _, ev := range reg.FlightRecorder().Events() {
			switch ev.Type {
			case "merge":
				spans = append(spans, ev)
			case "merge.commit":
				commits[ev.Span]++
			}
		}
		if len(spans) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("expected 2 completed merge spans, have %d", len(spans))
		}
		time.Sleep(time.Millisecond)
	}

	for _, s := range spans {
		if len(s.Attrs) != 4 {
			t.Fatalf("span record has %d attrs, want dur_ns and 3 phases: %+v", len(s.Attrs), s.Attrs)
		}
		dur := s.Attrs[0]
		if dur.Key != "dur_ns" || dur.Val <= 0 {
			t.Errorf("span duration = %+v, must be positive", dur)
		}
		var sum int64
		for i, name := range []string{"seal_ns", "build_ns", "swap_ns"} {
			p := s.Attrs[1+i]
			if p.Key != name {
				t.Fatalf("phase %d = %q, want %q", i, p.Key, name)
			}
			if p.Val <= 0 {
				t.Errorf("phase %q duration = %d ns, want > 0", p.Key, p.Val)
			}
			sum += p.Val
		}
		if sum > dur.Val {
			t.Errorf("phases sum to %d ns, outside the span's %d", sum, dur.Val)
		}
		if s.Span == 0 || commits[s.Span] != 1 {
			t.Errorf("merge span %d has %d merge.commit events, want 1", s.Span, commits[s.Span])
		}
	}
	// The build phase dominates a 20k-entry rebuild; seal and swap are
	// constant-time bookkeeping under the lock.
	for _, s := range spans {
		build, _ := attr(s, "build_ns")
		seal, _ := attr(s, "seal_ns")
		if build.Val < seal.Val {
			t.Logf("note: build (%d ns) faster than seal (%d ns) — tiny merge", build.Val, seal.Val)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["merges"]; got != 2 {
		t.Fatalf("merges counter = %d, want 2", got)
	}
	if m := snap.Gauges["merging"]; m != 0 {
		t.Fatalf("merging gauge = %v after WaitMerges, want 0", m)
	}
}

// attr returns ev's first attribute named key and whether it has one.
func attr(ev obs.Event, key string) (obs.Attr, bool) {
	for _, a := range ev.Attrs {
		if a.Key == key {
			return a, true
		}
	}
	return obs.Attr{}, false
}
