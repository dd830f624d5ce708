package obs

import (
	"testing"
	"time"
)

// TestSpanCausality pins the causal-span contract: a child's record names its
// parent's nonzero ID, annotations ride into the record after the durations,
// and the chain is reconstructable from the event stream alone.
func TestSpanCausality(t *testing.T) {
	r := NewRegistry()
	flush := r.StartSpan("flush")
	if flush.ID() == 0 {
		t.Fatal("span got ID 0 (reserved for 'no parent')")
	}
	flush.Annotate(I64("mem_bytes", 4096))
	comp := r.Sub("lsm.").StartSpanChild("compaction", flush.ID())
	if comp.ID() == 0 || comp.ID() == flush.ID() {
		t.Fatalf("child ID %d vs parent %d", comp.ID(), flush.ID())
	}
	comp.Annotate(I64("inputs", 3), Str("level", "L0"))
	comp.End()
	flush.End()

	byName := map[string]Event{}
	for _, ev := range r.Snapshot().Events {
		byName[ev.Type] = ev
	}
	f, c := byName["flush"], byName["lsm.compaction"]
	if _, ok := f.Attr("parent"); f.Span != flush.ID() || ok {
		t.Fatalf("flush record = %+v, want span %d and no parent", f, flush.ID())
	}
	if p, _ := c.Attr("parent"); c.Span != comp.ID() || uint64(p.Val) != f.Span {
		t.Fatalf("compaction record = %+v, want parent %d", c, f.Span)
	}
	if a := f.Attrs[len(f.Attrs)-1]; len(f.Attrs) != 2 || a.Key != "mem_bytes" || a.Val != 4096 {
		t.Fatalf("flush attrs = %+v", f.Attrs)
	}
	if a := c.Attrs[len(c.Attrs)-1]; len(c.Attrs) != 4 || a.Str != "L0" {
		t.Fatalf("compaction attrs = %+v", c.Attrs)
	}
}

// TestSpanCausalityNil pins the disabled path: a nil registry and a nil
// recorder hand out a nil span, whose ID is 0 and whose methods no-op.
func TestSpanCausalityNil(t *testing.T) {
	var r *Registry
	var fr *FlightRecorder
	sp := r.StartSpanChild("x", 9)
	if sp != nil || fr.StartSpan("x", 9) != nil {
		t.Fatal("nil registry and nil recorder must hand out nil spans")
	}
	if sp.ID() != 0 {
		t.Fatal("nil span must report ID 0")
	}
	sp.Annotate(I64("n", 1)) // must not panic
	sp.Phase("p")
	sp.End()
}

// TestHistogramExemplar pins the slow-op exemplar contract: the exemplar
// tracks the maximum observation (and only that — cheaper observations never
// displace it), carrying the span ID and key tag that produced it.
func TestHistogramExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("commit_ns")
	// Only an observation that sets the maximum is kept, and says so.
	if !h.ObserveExemplar(100, 1, []byte("key-a")) || !h.ObserveExemplar(900, 2, []byte("key-b")) || h.ObserveExemplar(300, 3, []byte("key-c")) {
		t.Fatal("ObserveExemplar must report exactly the new maxima")
	}
	s := h.Snapshot()
	if s.Exemplar == nil {
		t.Fatal("no exemplar captured")
	}
	if s.Exemplar.Ns != 900 || s.Exemplar.SpanID != 2 || s.Exemplar.Key != "key-b" {
		t.Fatalf("exemplar = %+v, want the 900ns/span2/key-b op", *s.Exemplar)
	}
	if s.Count != 3 || s.Max != 900 {
		t.Fatalf("histogram stats = count %d max %d", s.Count, s.Max)
	}

	// Merge keeps the slower exemplar.
	h2 := NewRegistry().Histogram("other")
	h2.ObserveExemplar(5000, 7, []byte("key-z"))
	m := s
	m.Merge(h2.Snapshot())
	if m.Exemplar.Ns != 5000 || m.Exemplar.Key != "key-z" {
		t.Fatalf("merged exemplar = %+v", *m.Exemplar)
	}

	// Plain observations and nil histograms stay exemplar-free and safe.
	h3 := r.Histogram("plain")
	h3.Observe(time.Millisecond)
	if h3.Snapshot().Exemplar != nil {
		t.Fatal("plain Observe must not fabricate an exemplar")
	}
	var hn *Histogram
	if hn.ObserveExemplar(1, 1, []byte("k")) {
		t.Fatal("a nil histogram keeps nothing")
	}

	// The exemplar keeps a copy of the key when it sets the max and builds no
	// string when it does not.
	h4 := r.Histogram("bytes")
	key := []byte("key-q")
	h4.ObserveExemplar(700, 4, key)
	key[4] = 'x' // the caller's buffer is reused
	if ex := h4.Snapshot().Exemplar; ex == nil || ex.Ns != 700 || ex.SpanID != 4 || ex.Key != "key-q" {
		t.Fatalf("exemplar from bytes = %+v", ex)
	}
	if n := testing.AllocsPerRun(100, func() { h4.ObserveExemplar(10, 5, key) }); n != 0 {
		t.Fatalf("ObserveExemplar below the max allocates %.0f times", n)
	}
}
