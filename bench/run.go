package main

import (
	"fmt"
	"sync"
	"time"
)

// opKind is what one generated operation asks of the system under test.
type opKind uint8

const (
	opGet       opKind = iota // point read of a present key; the value must match
	opGetAbsent               // point read of an absent key; must be not-found
	opScan                    // short range op; order and bounds are checked
	opPut                     // acked write (Insert / PUT)
)

// class groups op kinds into the latency series the metrics name.
type class int

const (
	clsGet  class = iota // point reads of present keys
	clsMiss              // point reads of absent keys
	clsPut
	clsScan
	numClasses
)

// pointReads is what the get_* metrics are taken over. Hits are also kept
// apart because the traced run follows hits only, and half the point reads of
// lsm-filter are misses several times cheaper than its hits.
var pointReads = []class{clsGet, clsMiss}

func (k opKind) class() class {
	switch k {
	case opGetAbsent:
		return clsMiss
	case opScan:
		return clsScan
	case opPut:
		return clsPut
	}
	return clsGet
}

// op is one generated operation. idx addresses the workload's key table (the
// expected scan result is the run of keys from idx); val is the expected value
// of a read or the value of a write; hi bounds a closed-range seek.
type op struct {
	kind opKind
	idx  int
	val  uint64
	key  []byte
	hi   []byte
}

// instance is one set-up copy of a workload. The runner owns timing, client
// goroutines and statistics; the instance owns the system under test, the op
// streams and the answer checks.
type instance interface {
	// streams returns one op slice per closed-loop client for round r,
	// generated (and any per-round fresh state built) outside the timed part.
	streams(r int) ([][]op, error)
	// do runs one op for client c and reports whether the answer was right.
	do(c int, o *op) bool
	// endRound runs after the clients finish, outside the timed part.
	endRound(r int) error
	// layers replays, for a traced point read, the calls the op made into
	// each layer, one child span per call.
	layers(c int, o *op, t *opTrace)
	// finish adds the metrics read once after the last round (memory, I/O
	// counts, restart checks) and returns extra attempted/failed ops.
	finish(out metrics, traced bool) (attempted, failed int, err error)
	close()
}

// workload is a named way to build instances.
type workload struct {
	name    string
	clients int // closed-loop client goroutines (and connections), at most nproc
	// timeEvery is the k of "time every k-th op": 1 over the wire, larger
	// in-process so two clock reads stay under 5% of the op.
	timeEvery int
	// traceEvery is the same for the traced round, which also pays for the
	// replayed layer calls of every op it traces.
	traceEvery int
	// remainder names the layer a traced point read's self time goes to.
	remainder string
	setup     func(e *env) (instance, error)
}

type roundResult struct {
	elapsed time.Duration
	ops     int
	clientResult
}

// clientResult is what one client books in one round; a round's is the sum.
type clientResult struct {
	failed    int
	transient int
	lat       [numClasses]recorder
}

// check books the outcome of one op. A point read of a present key that
// comes back wrong is read once more: if the second answer is right the miss
// was transient — a reader racing a writer inside the engine — and is counted
// apart from failures, which are answers that stay wrong. README.md says why
// the distinction exists.
func (cr *clientResult) check(in instance, c int, o *op, ok bool) {
	switch {
	case ok:
	case o.kind == opGet && in.do(c, o):
		cr.transient++
	default:
		cr.failed++
	}
}

// runRound drives every client stream to completion, closed loop: a client
// issues its next op only when the previous answer has been checked.
func runRound(in instance, streams [][]op, timeEvery int, tr *tracer) roundResult {
	res := make([]clientResult, len(streams))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cr := &res[c]
			ct := tr.client(c)
			<-start
			ops := streams[c]
			// Every k-th op of each class is timed, counted per class so a
			// stream that alternates kinds still samples all of them.
			var seen [numClasses]int
			for i := range ops {
				o := &ops[i]
				k := o.kind.class()
				seen[k]++
				switch {
				case ct != nil && k == clsGet && seen[k]%ct.every == 0:
					t := ct.begin()
					ok := in.do(c, o)
					t.end()
					cr.check(in, c, o, ok)
					in.layers(c, o, t)
				case seen[k]%timeEvery == 0:
					t0 := time.Now()
					ok := in.do(c, o)
					cr.lat[k].add(time.Since(t0))
					cr.check(in, c, o, ok)
				default:
					cr.check(in, c, o, in.do(c, o))
				}
			}
		}(c)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	out := roundResult{elapsed: time.Since(t0)}
	for c := range res {
		out.ops += len(streams[c])
		out.failed += res[c].failed
		out.transient += res[c].transient
		for k := range out.lat {
			out.lat[k].merge(&res[c].lat[k])
		}
	}
	return out
}

// rounds is the outcome of the timed rounds of one run.
type rounds struct {
	results []roundResult
}

// addTo books the rounds' op counts into a run's result.
func (rs *rounds) addTo(res *result) {
	for _, r := range rs.results {
		res.Attempted += r.ops
		res.Failed += r.failed
		res.Transient += r.transient
	}
}

// throughput is completed correct ops per second, per round.
func (rs *rounds) throughput() summary {
	v := make([]float64, len(rs.results))
	n := 0
	for i, r := range rs.results {
		v[i] = float64(r.ops-r.failed) / r.elapsed.Seconds()
		n += r.ops
	}
	return summarize(v, n)
}

// quantile is the median over rounds of each round's q-quantile over the
// samples of the given classes. Classes the workload never issues report the
// zero summary.
func (rs *rounds) quantile(q float64, classes ...class) (summary, error) {
	var v []float64
	n := 0
	for i := range rs.results {
		var all recorder
		for _, k := range classes {
			all.merge(&rs.results[i].lat[k])
		}
		if all.count() == 0 {
			continue
		}
		x, err := all.quantile(q)
		if err != nil {
			return summary{}, fmt.Errorf("classes %v: %w", classes, err)
		}
		v = append(v, x)
		n += all.count()
	}
	if len(v) == 0 {
		return summary{}, nil
	}
	return summarize(v, n), nil
}

// timedRounds runs fixed-op-count rounds until the budget is spent (at least
// minR). Round numbers continue from first, so a workload whose state evolves
// sees each round once; it returns the next unused round number.
func timedRounds(in instance, w *workload, first int, budget time.Duration, minR int, tr *tracer) (*rounds, int, error) {
	rs := &rounds{}
	var spent time.Duration
	r := first
	for ; len(rs.results) < minR || spent < budget; r++ {
		st, err := in.streams(r)
		if err != nil {
			return nil, r, err
		}
		res := runRound(in, st, w.timeEvery, tr)
		if err := in.endRound(r); err != nil {
			return nil, r, err
		}
		rs.results = append(rs.results, res)
		spent += res.elapsed
	}
	return rs, r, nil
}
