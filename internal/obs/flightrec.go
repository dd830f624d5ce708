// Flight recorder: an always-on, fixed-size ring of structured lifecycle
// records — the one record stream of the process. A record is either a fact
// (a WAL rotation, a flush/compaction/merge commit, a journal replay or
// repair, a generation swap: a discrete thing that happened, with enough
// attributes to reconstruct the lead-up to a failure)
// or a finished span (span.go: the durations of the background work that led
// to such a fact, joined to it by the span ID). What happens once per
// operation — a commit, a get — is a histogram's business, not the ring's:
// a ring of per-commit records holds nothing else within milliseconds.
//
// The recorder never blocks progress and never grows: a writer claims a slot
// with one atomic increment and fills it under that slot's own (uncontended)
// mutex, so concurrent writers touch disjoint slots and a reader snapshotting
// the ring contends with at most one in-flight write per slot. When the
// engine hits a sticky durable error, quarantines a file, or closes, the ring
// is serialized to <dir>/flightrec.json through the vfs seam — the postmortem
// artifact every injected crash in dstest.RunCrash leaves behind.
package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultFlightEvents is the ring capacity of a registry's flight recorder:
// large enough to hold the full recovery story of a freshly reopened engine
// (every shard's replay and repair) plus a tail of steady-state traffic,
// small enough that a dump is a few tens of KB.
const DefaultFlightEvents = 256

// Attr is one typed attribute on a flight-recorder event: a key with either
// an integer or a string value (never both). Short JSON tags keep dumps
// compact.
type Attr struct {
	Key string `json:"k"`
	Val int64  `json:"v,omitempty"`
	Str string `json:"s,omitempty"`
}

// I64 builds an integer attribute.
func I64(key string, v int64) Attr { return Attr{Key: key, Val: v} }

// Str builds a string attribute.
func Str(key, s string) Attr { return Attr{Key: key, Str: s} }

// Event is one record. Seq is a 1-based global order (the ring keeps the
// highest DefaultFlightEvents of them); Span, when nonzero, is the ID of the
// causal span the event belongs to (a flush commit points at its flush span)
// or, on the span's own record, the span itself.
type Event struct {
	Seq   uint64 `json:"seq"`
	Time  int64  `json:"t_unix_ns"`
	Type  string `json:"type"`
	Span  uint64 `json:"span,omitempty"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// frSlot is one ring slot. The per-slot mutex is held only for the few stores
// of a single write or the copy of a single read — with DefaultFlightEvents
// slots, contention on any one slot is negligible.
type frSlot struct {
	mu sync.Mutex
	ev Event
}

// FlightRecorder is the event ring. All methods are nil-safe, so an engine
// can hold a possibly-nil recorder and record unconditionally.
type FlightRecorder struct {
	next  atomic.Uint64 // number of events ever recorded; Seq of the next is next+1
	spans atomic.Uint64 // number of spans ever started; the last one's ID
	slots []frSlot
}

// NewFlightRecorder creates a recorder with the given ring capacity
// (minimum 1).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity < 1 {
		capacity = 1
	}
	return &FlightRecorder{slots: make([]frSlot, capacity)}
}

// Record appends an event with no causal span. Nil-safe.
func (fr *FlightRecorder) Record(typ string, attrs ...Attr) {
	fr.RecordSpan(typ, 0, attrs...)
}

// RecordSpan appends an event linked to the given span ID. Cost: one atomic
// increment to claim a slot, one time.Now, and one uncontended mutex around
// the slot stores. Nil-safe.
func (fr *FlightRecorder) RecordSpan(typ string, span uint64, attrs ...Attr) {
	if fr != nil {
		fr.record(time.Now(), typ, span, attrs)
	}
}

func (fr *FlightRecorder) record(now time.Time, typ string, span uint64, attrs []Attr) {
	seq := fr.next.Add(1) // 1-based: a zero Seq means "slot never written"
	s := &fr.slots[(seq-1)%uint64(len(fr.slots))]
	s.mu.Lock()
	s.ev = Event{Seq: seq, Time: now.UnixNano(), Type: typ, Span: span, Attrs: attrs}
	s.mu.Unlock()
}

// Events returns the ring's contents in Seq order (oldest first). A snapshot
// taken while writers are active is a consistent set of fully written events;
// a concurrent overwrite may make the set non-contiguous in Seq, never torn.
// Nil-safe (returns nil).
func (fr *FlightRecorder) Events() []Event {
	if fr == nil {
		return nil
	}
	out := make([]Event, 0, len(fr.slots))
	for i := range fr.slots {
		s := &fr.slots[i]
		s.mu.Lock()
		ev := s.ev
		s.mu.Unlock()
		if ev.Seq != 0 {
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// FlightDump is the serialized form of a recorder: the dump trigger, when it
// was taken, and the surviving events oldest-first.
type FlightDump struct {
	Reason string  `json:"reason"`
	Time   int64   `json:"t_unix_ns"`
	Events []Event `json:"events"`
}

// DumpJSON serializes the current ring as an indented FlightDump document.
// Marshaling plain structs cannot fail, so the result is always valid JSON;
// a nil recorder dumps an empty event list.
func (fr *FlightRecorder) DumpJSON(reason string) []byte {
	d := FlightDump{Reason: reason, Time: time.Now().UnixNano(), Events: fr.Events()}
	if d.Events == nil {
		d.Events = []Event{}
	}
	b, err := json.MarshalIndent(d, "", " ")
	if err != nil { // unreachable for these types; keep the artifact honest
		return []byte(fmt.Sprintf(`{"reason":%q,"marshal_err":%q,"events":[]}`, reason, err))
	}
	return b
}

// ParseFlightDump decodes a flightrec.json artifact, validating that events
// are present in strictly increasing Seq order.
func ParseFlightDump(data []byte) (*FlightDump, error) {
	var d FlightDump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("obs: bad flight dump: %w", err)
	}
	for i := 1; i < len(d.Events); i++ {
		if d.Events[i].Seq <= d.Events[i-1].Seq {
			return nil, fmt.Errorf("obs: flight dump events out of order at %d (seq %d after %d)",
				i, d.Events[i].Seq, d.Events[i-1].Seq)
		}
	}
	return &d, nil
}
