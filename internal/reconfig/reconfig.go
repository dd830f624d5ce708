// Package reconfig is the shared reconfiguration seam: one publication
// pipeline for every generation swap in the system. Its two users are
// hybrid's generation swap and sharded's bulk load, which replaces every
// shard's generation. Both follow the same shape:
//
//	propose → build the next generation off-line → publish it atomically
//
// A Seam owns that shape. Owners describe a reconfiguration as a Change
// whose Build returns a Prepared (a publish closure over the freshly built
// state); the seam runs the pipeline, serializes concurrent
// reconfigurations and instruments every step (span phases, flight-recorder
// events, applied/rejected counters, a generation counter). There is no
// retire step: a generation is an immutable object behind an atomic pointer,
// the publishing store drops the owner's reference to its predecessor, and
// the garbage collector frees that predecessor once the last reader that
// loaded it is done.
//
// Swaps that already run under the owner's writer lock (hybrid's per-merge
// generation store) use PublishLocked: the fast path skips the seam mutex and
// the build phase but still shares the publication bookkeeping and
// event vocabulary — so "who swapped what, when, and why" reads the same
// across layers.
package reconfig

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mets/internal/obs"
)

// Prepared is a built-but-unpublished next generation: the closure the
// seam runs to publish it and the publication's event. All fields are
// optional.
type Prepared struct {
	// Publish makes the generation visible — typically one atomic pointer
	// store. An error rejects the change after the fact (nothing was made
	// visible, or the owner's publish is itself atomic-or-nothing).
	Publish func() error
	// Event overrides the flight-recorder event type recorded on a
	// successful publication (default "reconfig.publish"). The hybrid
	// index keeps its "merge.seal"/"merge.commit" vocabulary this way.
	Event string
	// Attrs are appended to the publication event.
	Attrs []obs.Attr
	// Span links a PublishLocked publication event to the owner's causal
	// span (hybrid's merge span); Apply links its own pipeline span instead.
	Span uint64
}

// Change is one proposed reconfiguration: Build constructs the next
// generation off-line (no reader- or writer-visible effects beyond what its
// Prepared closures later publish).
type Change struct {
	// Kind names the reconfiguration in events, spans, and errors
	// (e.g. "bulkload").
	Kind string
	// Build constructs the next generation and returns how to publish it.
	// On error the change is rejected; Build must have
	// cleaned up its own side effects.
	Build func() (Prepared, error)
}

// Options configure a Seam.
type Options struct {
	// Name identifies the seam in events and errors ("sharded",
	// "hybrid").
	Name string
	// Obs hosts the seam's counters and spans ("reconfig.applied",
	// "reconfig.rejected", "reconfig.<kind>" spans). Nil disables them.
	Obs *obs.Registry
	// FlightRec records publication/rejection events. Nil disables.
	FlightRec *obs.FlightRecorder
}

// Seam is one layer's reconfiguration pipeline. Create with New; the zero
// value is not useful.
type Seam struct {
	name string
	reg  *obs.Registry
	fr   *obs.FlightRecorder

	applied  *obs.Counter
	rejected *obs.Counter
	gens     atomic.Int64

	// mu serializes Apply pipelines (concurrent proposals would race their
	// builds and publications). PublishLocked does not take it — those
	// callers hold their own writer lock, which is the serialization.
	mu sync.Mutex
}

// New creates a seam.
func New(o Options) *Seam {
	return &Seam{
		name:     o.Name,
		reg:      o.Obs,
		fr:       o.FlightRec,
		applied:  o.Obs.Counter("reconfig.applied"),
		rejected: o.Obs.Counter("reconfig.rejected"),
	}
}

// Generation returns the number of publications through this seam.
func (s *Seam) Generation() int64 { return s.gens.Load() }

// Apply runs the full pipeline for one proposed change: build off-line,
// then publish. Concurrent Applies serialize; the owner's
// readers and writers are only affected for as long as the Prepared
// closures themselves hold the owner's locks.
func (s *Seam) Apply(c Change) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := s.reg.StartSpan("reconfig." + c.Kind)
	defer sp.End()
	sp.Phase("build")
	p, err := c.Build()
	if err != nil {
		s.reject(c.Kind, err)
		return fmt.Errorf("reconfig %s/%s: build: %w", s.name, c.Kind, err)
	}
	sp.Phase("publish")
	if err := s.publish(c.Kind, p, sp.ID()); err != nil {
		return fmt.Errorf("reconfig %s/%s: publish: %w", s.name, c.Kind, err)
	}
	return nil
}

// PublishLocked is the fast path for generation swaps already built under
// the owner's writer lock: it publishes and records without
// taking the seam mutex (the owner's lock is the serialization). The caller
// must hold that lock.
func (s *Seam) PublishLocked(kind string, p Prepared) error {
	return s.publish(kind, p, p.Span)
}

func (s *Seam) publish(kind string, p Prepared, span uint64) error {
	if p.Publish != nil {
		if err := p.Publish(); err != nil {
			s.reject(kind, err)
			return err
		}
	}
	s.gens.Add(1)
	s.applied.Inc()
	ev := p.Event
	if ev == "" {
		ev = "reconfig.publish"
	}
	attrs := make([]obs.Attr, 0, 3+len(p.Attrs))
	if ev == "reconfig.publish" {
		attrs = append(attrs, obs.Str("seam", s.name), obs.Str("kind", kind))
	}
	attrs = append(attrs, p.Attrs...)
	s.fr.RecordSpan(ev, span, attrs...)
	return nil
}

func (s *Seam) reject(kind string, err error) {
	s.rejected.Inc()
	s.fr.Record("reconfig.reject", obs.Str("seam", s.name),
		obs.Str("kind", kind), obs.Str("err", err.Error()))
}
