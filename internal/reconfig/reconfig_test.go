package reconfig

import (
	"errors"
	"sync"
	"testing"

	"mets/internal/obs"
)

func eventTypes(fr *obs.FlightRecorder) map[string]int {
	types := map[string]int{}
	for _, ev := range fr.Events() {
		types[ev.Type]++
	}
	return types
}

// TestPublishLockedRecordsOnePublication pins the fast path's bookkeeping:
// one generation bump, one applied count and one event per call, under the
// owner's own event name when it sets one.
func TestPublishLockedRecordsOnePublication(t *testing.T) {
	reg := obs.NewRegistry()
	fr := reg.FlightRecorder()
	s := New(Options{Name: "test", Obs: reg, FlightRec: fr})
	published := 0
	publish := func() error { published++; return nil }
	if err := s.PublishLocked("generation", Prepared{Publish: publish}); err != nil {
		t.Fatal(err)
	}
	if err := s.PublishLocked("merge", Prepared{Publish: publish, Event: "merge.commit", Span: 7}); err != nil {
		t.Fatal(err)
	}
	if published != 2 || s.Generation() != 2 {
		t.Fatalf("published %d times, generation %d; want 2 and 2", published, s.Generation())
	}
	if n := reg.Snapshot().Counters["reconfig.applied"]; n != 2 {
		t.Fatalf("reconfig.applied = %d, want 2", n)
	}
	types := eventTypes(fr)
	if types["reconfig.publish"] != 1 || types["merge.commit"] != 1 || len(types) != 2 {
		t.Fatalf("events = %v, want one reconfig.publish and one merge.commit", types)
	}
	for _, ev := range fr.Events() {
		if ev.Type == "merge.commit" && ev.Span != 7 {
			t.Fatalf("merge.commit span = %d, want the owner's span 7", ev.Span)
		}
	}
}

// TestApplyRecordsItsPhases pins what a full pipeline leaves in the event
// stream: one "reconfig.<kind>" record with the build and publish durations
// in that order, and the publication event under the same span.
func TestApplyRecordsItsPhases(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Options{Name: "test", Obs: reg, FlightRec: reg.FlightRecorder()})
	err := s.Apply(Change{Kind: "bulkload", Build: func() (Prepared, error) {
		return Prepared{
			Publish: func() error { return nil },
			Attrs:   []obs.Attr{obs.I64("entries", 9)},
		}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	evs := reg.Snapshot().Events
	if len(evs) != 2 || evs[0].Type != "reconfig.publish" || evs[1].Type != "reconfig.bulkload" {
		t.Fatalf("events = %+v, want the publication, then the pipeline's span record", evs)
	}
	if evs[0].Span == 0 || evs[0].Span != evs[1].Span {
		t.Fatalf("publication span %d, pipeline span %d; want the same nonzero ID", evs[0].Span, evs[1].Span)
	}
	if a, _ := attr(evs[0], "entries"); a.Val != 9 {
		t.Fatalf("publication attrs = %+v", evs[0].Attrs)
	}
	for i, want := range []string{"dur_ns", "build_ns", "publish_ns"} {
		if len(evs[1].Attrs) != 3 || evs[1].Attrs[i].Key != want {
			t.Fatalf("span record attrs = %+v, want dur_ns and the two phases in order", evs[1].Attrs)
		}
	}
}

// TestApplyRejectsOnBuildError pins the rejection path: a failed Build
// publishes nothing and counts one rejection.
func TestApplyRejectsOnBuildError(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Options{Name: "test", Obs: reg, FlightRec: reg.FlightRecorder()})
	bad := errors.New("entries out of order")
	err := s.Apply(Change{Kind: "bulkload", Build: func() (Prepared, error) {
		return Prepared{}, bad
	}})
	if !errors.Is(err, bad) {
		t.Fatalf("Apply error = %v, want it to wrap the build error", err)
	}
	if s.Generation() != 0 {
		t.Fatalf("generation %d; want 0", s.Generation())
	}
	snap := reg.Snapshot()
	if snap.Counters["reconfig.rejected"] != 1 || snap.Counters["reconfig.applied"] != 0 {
		t.Fatalf("rejected=%d applied=%d; want 1 and 0", snap.Counters["reconfig.rejected"], snap.Counters["reconfig.applied"])
	}
	if eventTypes(reg.FlightRecorder())["reconfig.reject"] != 1 {
		t.Fatalf("no reconfig.reject event; have %v", eventTypes(reg.FlightRecorder()))
	}
}

// TestConcurrentAppliesSerialize pins that whole pipelines never overlap:
// the unsynchronized counter below is only safe (and -race only quiet) if
// Apply runs one build-publish at a time.
func TestConcurrentAppliesSerialize(t *testing.T) {
	s := New(Options{Name: "test"})
	const workers, each = 8, 50
	inPipeline, applied := 0, 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				err := s.Apply(Change{Kind: "bulkload", Build: func() (Prepared, error) {
					inPipeline++
					return Prepared{Publish: func() error {
						if inPipeline != 1 {
							return errors.New("two pipelines overlapped")
						}
						inPipeline--
						applied++
						return nil
					}}, nil
				}})
				if err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if applied != workers*each || s.Generation() != workers*each {
		t.Fatalf("applied %d, generation %d; want %d", applied, s.Generation(), workers*each)
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
