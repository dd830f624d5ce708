package main

import (
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the span that caused this one (0 for the operation's
// own span). Times are ns since the tracer was created.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans in memory, one buffer per client so the traced path
// takes no lock, and writes them out when the benchmark ends.
type tracer struct {
	t0      time.Time
	clients []*clientTracer
	// overhead is what an empty span measures: the two clock reads. It is
	// taken off every span before medians, or a 30 ns routing call would
	// read as 80.
	overhead float64
}

type clientTracer struct {
	tr    *tracer
	id    uint64 // next span id; ids are unique per client by stride
	every int
	spans []span
	sink  int
}

// traceOpName is the name of the parent span of a traced point read.
const traceOpName = "op.get"

// newTracer traces every every-th op of each of n clients.
func newTracer(n, every int) *tracer {
	tr := &tracer{t0: time.Now()}
	for c := 0; c < n; c++ {
		tr.clients = append(tr.clients, &clientTracer{tr: tr, id: uint64(c + 1), every: every})
	}
	// Calibrate on client 0's buffer, then hand it over empty.
	cal := tr.clients[0].begin()
	for i := 0; i < 1000; i++ {
		cal.child("empty", func() {})
	}
	tr.overhead = median(durations(tr.clients[0].spans)["empty"])
	tr.clients[0].spans = nil
	return tr
}

func durations(spans []span) map[string][]float64 {
	byName := map[string][]float64{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(s.End-s.Start))
	}
	return byName
}

// client returns client c's buffer; nil (tracing off) on a nil tracer.
func (tr *tracer) client(c int) *clientTracer {
	if tr == nil {
		return nil
	}
	return tr.clients[c]
}

func (ct *clientTracer) nextID() uint64 {
	id := ct.id
	ct.id += uint64(len(ct.tr.clients))
	return id
}

// opTrace is the open parent span of one traced operation.
type opTrace struct {
	ct    *clientTracer
	id    uint64
	start time.Time
}

func (ct *clientTracer) begin() *opTrace {
	return &opTrace{ct: ct, id: ct.nextID(), start: time.Now()}
}

func (t *opTrace) end() {
	fin := time.Now()
	t.ct.spans = append(t.ct.spans, span{ID: t.id, Op: t.id, Name: traceOpName,
		Start: int64(t.start.Sub(t.ct.tr.t0)), End: int64(fin.Sub(t.ct.tr.t0))})
}

// keep consumes the result of a replayed call so the compiler cannot drop
// the call; one sink per client, because clients run concurrently.
func (t *opTrace) keep(v int) { t.ct.sink += v }

// child runs fn, the call the operation made into one layer, as a child span.
func (t *opTrace) child(name string, fn func()) {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	t.ct.spans = append(t.ct.spans, span{ID: t.ct.nextID(), Parent: t.id, Op: t.id, Name: name,
		Start: int64(t0.Sub(t.ct.tr.t0)), End: int64(t1.Sub(t.ct.tr.t0))})
}

func (tr *tracer) all() []span {
	var out []span
	for _, ct := range tr.clients {
		out = append(out, ct.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimes reduces the spans to the per-layer table: the median duration of
// each child span name, the median of the parent spans, and the parent's self
// time — its median minus its children's — under the remainder name. The
// parts therefore sum to the traced op median by construction.
func (tr *tracer) selfTimes(spans []span, remainder string) (parts map[string]float64, whole float64) {
	byName := durations(spans)
	whole = median(byName[traceOpName]) - tr.overhead
	delete(byName, traceOpName)
	parts = map[string]float64{}
	self := whole
	for name, durs := range byName {
		parts[name] = max(0, median(durs)-tr.overhead)
		self -= parts[name]
	}
	parts[remainder] = self
	return parts, whole
}
