package obs

import (
	"fmt"
	"testing"
)

// TestSpanPhases pins the span record: one event named after the span, its
// ID in Span, dur_ns first, then one <phase>_ns per phase in the order the
// phases ran — and the same after a trip through flightrec.json.
func TestSpanPhases(t *testing.T) {
	fr := NewFlightRecorder(8)
	sp := fr.StartSpan("merge", 0)
	sp.Phase("seal")
	sp.Phase("build")
	sp.Phase("swap")
	sp.End()

	d, err := ParseFlightDump(fr.DumpJSON("test"))
	if err != nil {
		t.Fatal(err)
	}
	for _, evs := range [][]Event{fr.Events(), d.Events} {
		if len(evs) != 1 {
			t.Fatalf("ring = %d records, want 1", len(evs))
		}
		ev := evs[0]
		if ev.Type != "merge" || ev.Span != sp.ID() || ev.Time == 0 || len(ev.Attrs) != 4 {
			t.Fatalf("span record = %+v", ev)
		}
		// Phases are sequential and contiguous, so they tile the span: none is
		// negative and together they are no longer than it.
		var sum int64
		for i, want := range []string{"dur_ns", "seal_ns", "build_ns", "swap_ns"} {
			a := ev.Attrs[i]
			if a.Key != want || a.Val < 0 {
				t.Fatalf("attr %d = %+v, want %s >= 0", i, a, want)
			}
			if i > 0 {
				sum += a.Val
			}
		}
		if dur := ev.Attrs[0].Val; sum > dur {
			t.Fatalf("phases sum to %d ns, outside the span's %d", sum, dur)
		}
		if _, ok := attr(ev, "build_ns"); !ok {
			t.Fatal("Attr lookup by key failed")
		}
		if _, ok := attr(ev, "nope_ns"); ok {
			t.Fatal("Attr lookup found a phase that does not exist")
		}
	}
}

// TestSpanNoPhases pins that a span ended without any Phase call records
// only its duration (the open-phase bookkeeping must not invent a phase).
func TestSpanNoPhases(t *testing.T) {
	fr := NewFlightRecorder(2)
	fr.StartSpan("bare", 0).End()
	evs := fr.Events()
	if len(evs) != 1 || len(evs[0].Attrs) != 1 || evs[0].Attrs[0].Key != "dur_ns" {
		t.Fatalf("ring = %+v", evs)
	}
}

// TestSpanRingBounded: span records live in the recorder's one bounded ring,
// in End order, beside the events that point at them.
func TestSpanRingBounded(t *testing.T) {
	const capN = 4
	fr := NewFlightRecorder(capN)
	for i := 0; i < 11; i++ {
		sp := fr.StartSpan(fmt.Sprintf("s%d", i), 0)
		fr.RecordSpan("commit", sp.ID())
		sp.End()
	}
	evs := fr.Events()
	if len(evs) != capN {
		t.Fatalf("ring holds %d records, want %d", len(evs), capN)
	}
	for i, want := range []string{"commit", "s9", "commit", "s10"} {
		if evs[i].Type != want {
			t.Fatalf("ring[%d] = %q, want %q (got %+v)", i, evs[i].Type, want, evs)
		}
	}
	if evs[2].Span != evs[3].Span || evs[0].Span == evs[2].Span {
		t.Fatalf("commit events do not resolve to their spans: %+v", evs)
	}
}

// TestSpanInFlightNotRecorded: a span is in the ring only once it has ended,
// and one dropped without End never is.
func TestSpanInFlightNotRecorded(t *testing.T) {
	fr := NewFlightRecorder(4)
	sp := fr.StartSpan("slow", 0)
	fr.StartSpan("dropped", 0).Phase("p")
	if got := fr.Events(); len(got) != 0 {
		t.Fatalf("in-flight span leaked into the ring: %v", got)
	}
	sp.End()
	if got := fr.Events(); len(got) != 1 || got[0].Type != "slow" {
		t.Fatalf("ring after End = %+v", got)
	}
}

// TestFlightRecorderMinCapacity: a capacity below one is clamped to a ring of
// one record, which keeps the newest.
func TestFlightRecorderMinCapacity(t *testing.T) {
	fr := NewFlightRecorder(0)
	fr.StartSpan("x", 0).End()
	fr.StartSpan("y", 0).End()
	evs := fr.Events()
	if len(evs) != 1 || evs[0].Type != "y" {
		t.Fatalf("capacity-clamped ring = %+v", evs)
	}
}

// attr returns ev's first attribute named key and whether it has one.
func attr(ev Event, key string) (Attr, bool) {
	for _, a := range ev.Attrs {
		if a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}
