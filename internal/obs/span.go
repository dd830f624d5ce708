package obs

import "time"

// Span is a builder for one flight-recorder record: a background lifecycle
// event (a merge, a flush, a compaction, a reconfiguration) subdivided into
// named sequential phases (a hybrid merge's seal -> build -> swap). End
// appends it as one Event{Type: name, Span: ID} with attributes dur_ns, one
// <phase>_ns per phase in order, parent when there is one, then the
// annotations. The ID is the causal handle: commit-point events (RecordSpan),
// histogram exemplars (ObserveExemplar) and child spans carry it. A span not
// worth a record — the WAL committer keeps only its slowest batch — is
// dropped without End.
//
// A span is owned by one goroutine at a time; handing it across a goroutine
// boundary is fine as long as the handoff happens-before the next method call
// (starting the goroutine provides that). All methods no-op on a nil span.
type Span struct {
	fr      *FlightRecorder
	name    string
	id      uint64
	parent  uint64
	start   time.Time
	cur     string // the open phase; "" when none
	curFrom time.Time
	phases  []Attr
	attrs   []Attr
}

// StartSpan begins a span with a recorder-unique nonzero ID, causally linked
// to the span with ID parent (0 for none). Nil-safe: a nil recorder returns a
// nil (no-op) span.
func (fr *FlightRecorder) StartSpan(name string, parent uint64) *Span {
	if fr == nil {
		return nil
	}
	return &Span{fr: fr, name: name, id: fr.spans.Add(1), parent: parent, start: time.Now()}
}

// ID returns the span's recorder-unique nonzero ID; 0 on a nil span.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Annotate attaches typed attributes to the span's record. No-op on nil.
// Like Phase/End, only the owning goroutine may call it.
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// Phase ends the current phase (if any) and starts a new one. No-op on nil.
func (s *Span) Phase(name string) {
	if s == nil {
		return
	}
	now := time.Now()
	s.closePhase(now)
	s.cur, s.curFrom = name, now
}

func (s *Span) closePhase(now time.Time) {
	if s.cur != "" {
		s.phases = append(s.phases, I64(s.cur+"_ns", now.Sub(s.curFrom).Nanoseconds()))
		s.cur = ""
	}
}

// End finishes the span (closing any open phase) and appends its record to
// the ring. No-op on nil; calling End twice records twice — don't.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.closePhase(now)
	attrs := make([]Attr, 0, 2+len(s.phases)+len(s.attrs))
	attrs = append(attrs, I64("dur_ns", now.Sub(s.start).Nanoseconds()))
	attrs = append(attrs, s.phases...)
	if s.parent != 0 {
		attrs = append(attrs, I64("parent", int64(s.parent)))
	}
	s.fr.record(now, s.name, s.id, append(attrs, s.attrs...))
}
