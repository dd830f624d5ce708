// Package obs is the zero-dependency observability substrate for mets: a
// registry of named metrics — padded atomic counters and gauges, log-bucketed
// latency histograms (histogram.go), and one bounded ring of lifecycle records
// (flightrec.go; a span, span.go, builds one of them) — designed so that
// instrumentation is compile-time cheap on the hot path.
//
// # Nil-safety and cost model
//
// Every handle type is nil-safe: methods on a nil *Counter, *Gauge,
// *Histogram, *Span, or *Registry are no-ops (or return nil handles).
// Instrumented packages therefore keep possibly-nil handles resolved once at
// construction time, and the per-operation cost is
//
//   - disabled (nil registry): a single nil check, no allocation, no atomics;
//   - enabled: one atomic add per counter event (counters are padded to a
//     cache line so unrelated counters never false-share).
//
// Latency histograms cost two time.Now calls plus four atomic adds per
// observation and are reserved for paths that already take timestamps or for
// background work.
//
// # Concurrency
//
// All handle methods are safe for concurrent use. Snapshot may run
// concurrently with writers: it sees each atomic individually (counter values
// are exact at some instant; histogram snapshots are internally consistent in
// that Count equals the sum of the bucket counts that were loaded).
package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// cacheLine is the assumed cache-line size for padding (x86-64 and most
// arm64 cores; a wrong guess costs padding, not correctness).
const cacheLine = 64

// Counter is a monotonically increasing atomic counter, padded so that hot
// counters owned by different shards or operations never share a line.
type Counter struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc adds 1. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value; 0 on a nil counter.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float64 gauge (stored as bits), padded like
// Counter.
type Gauge struct {
	bits atomic.Uint64
	_    [cacheLine - 8]byte
}

// Set stores f. No-op on a nil gauge.
func (g *Gauge) Set(f float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(f))
	}
}

// Load returns the current value; 0 on a nil gauge.
func (g *Gauge) Load() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// registryData is the shared state behind a Registry and all its Sub views.
type registryData struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() float64
	hists    map[string]*Histogram
	flight   *FlightRecorder
}

// Registry names and owns metrics. The zero value is not useful; create one
// with NewRegistry. A nil *Registry is the disabled state: every accessor
// returns a nil (no-op) handle, so callers never branch on enablement.
//
// Sub returns a view that prefixes every name, sharing the underlying data;
// per-shard instrumentation uses Sub("shard3.") so snapshots show skew.
type Registry struct {
	data   *registryData
	prefix string
}

// NewRegistry creates an empty registry with a default-sized flight recorder.
func NewRegistry() *Registry {
	return &Registry{data: &registryData{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		gaugeFns: make(map[string]func() float64),
		hists:    make(map[string]*Histogram),
		flight:   NewFlightRecorder(DefaultFlightEvents),
	}}
}

// Sub returns a prefixed view of the registry (nil-safe: nil stays nil).
func (r *Registry) Sub(prefix string) *Registry {
	if r == nil {
		return nil
	}
	return &Registry{data: r.data, prefix: r.prefix + prefix}
}

// Counter returns (creating if needed) the named counter; nil on a nil
// registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	name = r.prefix + name
	d := r.data
	d.mu.RLock()
	c := d.counters[name]
	d.mu.RUnlock()
	if c != nil {
		return c
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if c = d.counters[name]; c == nil {
		c = new(Counter)
		d.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge; nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	name = r.prefix + name
	d := r.data
	d.mu.RLock()
	g := d.gauges[name]
	d.mu.RUnlock()
	if g != nil {
		return g
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if g = d.gauges[name]; g == nil {
		g = new(Gauge)
		d.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a derived gauge evaluated at snapshot time (e.g. a
// live FPR ratio of two counters, or a stage size read under the index's own
// lock). fn must be safe to call from any goroutine and must not call back
// into this registry. No-op on a nil registry.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	d := r.data
	d.mu.Lock()
	d.gaugeFns[r.prefix+name] = fn
	d.mu.Unlock()
}

// Histogram returns (creating if needed) the named histogram; nil on a nil
// registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	name = r.prefix + name
	d := r.data
	d.mu.RLock()
	h := d.hists[name]
	d.mu.RUnlock()
	if h != nil {
		return h
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if h = d.hists[name]; h == nil {
		h = NewHistogram()
		d.hists[name] = h
	}
	return h
}

// StartSpan begins a span named prefix+name on the registry's flight
// recorder; nil (no-op span) on a nil registry.
func (r *Registry) StartSpan(name string) *Span { return r.StartSpanChild(name, 0) }

// StartSpanChild begins a span named prefix+name causally linked to the span
// with ID parent; nil (no-op span) on a nil registry.
func (r *Registry) StartSpanChild(name string, parent uint64) *Span {
	if r == nil {
		return nil
	}
	return r.data.flight.StartSpan(r.prefix+name, parent)
}

// FlightRecorder exposes the registry's shared flight recorder (nil on a nil
// registry; the recorder's own methods are nil-safe, so callers may record
// unconditionally).
func (r *Registry) FlightRecorder() *FlightRecorder {
	if r == nil {
		return nil
	}
	return r.data.flight
}

// Snapshot is a point-in-time copy of every metric in a registry, ready for
// JSON encoding (expvar.Func in cmd/mets-server serves it verbatim).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Events     []Event                      `json:"events,omitempty"`
}

// Snapshot captures every counter, gauge (stored and derived), histogram,
// and the flight recorder's ring. Derived gauges are evaluated outside the
// registry lock so they may take their owners' locks. Zero-value snapshot on
// a nil registry.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	d := r.data
	d.mu.RLock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(d.counters)),
		Gauges:     make(map[string]float64, len(d.gauges)+len(d.gaugeFns)),
		Histograms: make(map[string]HistogramSnapshot, len(d.hists)),
	}
	for name, c := range d.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range d.gauges {
		s.Gauges[name] = g.Load()
	}
	fns := make(map[string]func() float64, len(d.gaugeFns))
	for name, fn := range d.gaugeFns {
		fns[name] = fn
	}
	for name, h := range d.hists {
		s.Histograms[name] = h.Snapshot()
	}
	d.mu.RUnlock()
	for name, fn := range fns {
		s.Gauges[name] = fn()
	}
	s.Events = d.flight.Events()
	return s
}
