// Command bench is this repository's one gated benchmark: five workloads,
// the end-to-end metrics BENCHMARK.json bounds, and a per-layer table taken
// from outside the layers. See README.md beside this file.
//
// It is a module of its own (mets/bench, taking mets from ../), run from here:
//
//	go run . -seed 1 -out results.json          # every workload, untraced
//	go run . -seed 1 -trace 1 -out results.json # plus the traced runs
//	go run . -workload lib-read -seed 1 -seconds 10 -trace 0
//	go run . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
)

var workloads = []*workload{
	{name: "lib-read", clients: 2, timeEvery: 4, traceEvery: 16, remainder: "hybrid.get_self_ns", setup: setupLibRead},
	{name: "lib-write-merge", clients: 2, timeEvery: 4, traceEvery: 16, remainder: "hybrid.get_self_ns", setup: setupLibWriteMerge},
	{name: "served-read", clients: servedClients, timeEvery: 1, traceEvery: 4, remainder: "client.rtt_self_ns", setup: setupServedRead},
	{name: "served-durable", clients: servedClients, timeEvery: 1, traceEvery: 1, remainder: "client.rtt_self_ns", setup: setupServedDurable},
	{name: "lsm-filter", clients: 1, timeEvery: 4, traceEvery: 16, remainder: "lsm.get_self_ns", setup: setupLSMFilter},
}

// env is what a run needs from its surroundings.
type env struct {
	seed  int64
	scale float64 // 1 for real runs; tests shrink key and op counts
	root  string  // checkout root: where BENCHMARK.json lives and the server is built
	work  string  // scratch directory inside the checkout, removed at exit

	buildOnce sync.Once
	bin       string
	buildErr  error

	mu       sync.Mutex
	children []*child
}

// n scales a count, never below floor (the fewest that still supports the
// quantiles the workload reports).
func (e *env) n(base, floor int) int {
	return max(floor, int(float64(base)*e.scale))
}

func (e *env) track(c *child) {
	e.mu.Lock()
	e.children = append(e.children, c)
	e.mu.Unlock()
}

// cleanup kills whatever child is still running and removes the scratch
// directory. It runs on every exit path, interrupt included.
func (e *env) cleanup() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, c := range e.children {
		c.kill()
	}
	e.children = nil
	os.RemoveAll(e.work)
}

// newEnv finds the checkout root above the working directory and makes the
// scratch directory under its .bench_build.
func newEnv(seed int64, scale float64) (*env, error) {
	dir, err := checkoutRoot()
	if err != nil {
		return nil, err
	}
	base := filepath.Join(dir, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	return &env{seed: seed, scale: scale, root: dir, work: work}, nil
}

// checkoutRoot is the nearest directory at or above the working directory
// that holds BENCHMARK.json: bench/ is a module of its own inside the tree
// it measures, so go.mod does not mark the root.
func checkoutRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no %s at or above the working directory: run from the repository", manifestName)
		}
		dir = parent
	}
}

// calibrate times a fixed pure-CPU kernel, so rows from different hosts can
// be normalised and a noisy machine shows.
func calibrate() float64 {
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		d := float64(time.Since(t0))
		sink += int(x & 1)
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}

// traceEnabler is implemented by instances that build stand-ins for the
// traced run only.
type traceEnabler interface{ enableTrace() error }

// plan is how much one run does.
type plan struct {
	seconds int // budget of the timed rounds
	// setupReps is how many copies of the workload an untraced run sets up
	// one after the other; setup_s is the median, so one slow start (a cold
	// build, a page-cache miss) does not decide it. A traced run sets up one.
	setupReps int
	// minRounds floors the timed rounds per copy, whatever the budget:
	// lsm-filter counts I/O over the first lsmIORounds rounds of a copy.
	minRounds int
}

func defaultPlan(seconds int) plan {
	return plan{seconds: seconds, setupReps: 3, minRounds: lsmIORounds}
}

// runWorkload is one run of one workload: set-up, a discarded warm-up round,
// the timed rounds, and — traced — one more round under the tracer plus the
// layer probes. Untraced runs report the end-to-end metrics, traced runs the
// per-layer ones.
func runWorkload(e *env, w *workload, man *manifest, p plan, traced bool, dumps *[]traceDump) (*result, error) {
	defs := man.EndToEnd
	reps := p.setupReps
	if traced {
		defs, reps = man.PerLayer, 1
	}
	out := newMetrics(defs)
	res := &result{Workload: w.name, Seed: e.seed, Traced: traced}
	var calib float64
	if traced {
		calib = calibrate()
	}

	// An untraced run spreads its timed rounds over setupReps independent
	// copies of the workload: how one copy happens to land in memory moves
	// its timings by more than rounds of one copy differ, and a median over
	// rounds of several copies is steadier than over rounds of one.
	budget := time.Duration(p.seconds) * time.Second / time.Duration(reps)
	if traced {
		budget /= 2 // the traced round and the probes take the other half
	}
	var in instance
	defer func() {
		if in != nil {
			in.close()
		}
	}()
	var setups []float64
	rs := &rounds{}
	next := 0
	for rep := 0; rep < reps; rep++ {
		if in != nil {
			in.close()
		}
		t0 := time.Now()
		var err error
		if in, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		runtime.GC()
		// The warm-up round lets caches fill and lazy set-up finish; it is
		// checked like any other round but never timed.
		warm, _, err := timedRounds(in, w, 0, 0, 1, nil)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		warm.addTo(res)
		part, n, err := timedRounds(in, w, 1, budget, p.minRounds, nil)
		if err != nil {
			return nil, err
		}
		rs.results = append(rs.results, part.results...)
		next = n
	}
	rs.addTo(res)

	if !traced {
		getP50, err := rs.quantile(0.50, pointReads...)
		if err != nil {
			return nil, err
		}
		out.setSummary("setup_s", summarize(setups, len(setups)))
		out.setSummary("throughput_ops_s", rs.throughput())
		out.setSummary("get_p50_ns", getP50)
	} else {
		for _, m := range []struct {
			name    string
			q       float64
			classes []class
		}{
			{"get_p99_ns", 0.99, pointReads},
			{"put_p50_ns", 0.50, []class{clsPut}},
			{"put_p99_ns", 0.99, []class{clsPut}},
			{"scan_p50_ns", 0.50, []class{clsScan}},
		} {
			s, err := rs.quantile(m.q, m.classes...)
			if err != nil {
				return nil, err
			}
			if s.Rounds > 0 {
				out.setSummary(m.name, s)
			}
		}
		hitP50, err := rs.quantile(0.50, clsGet)
		if err != nil {
			return nil, err
		}
		if te, ok := in.(traceEnabler); ok {
			if err := te.enableTrace(); err != nil {
				return nil, fmt.Errorf("trace set-up: %w", err)
			}
		}
		tr := newTracer(w.clients, w.traceEvery)
		trs, _, err := timedRounds(in, w, next, 0, 1, tr)
		if err != nil {
			return nil, err
		}
		trs.addTo(res)
		spans := tr.all()
		parts, whole := tr.selfTimes(spans, w.remainder)
		for name, v := range parts {
			out.set(name, v)
		}
		out.set("trace.get_ns", whole)
		out.set("host.trace_overhead_share", (whole-hitP50.Median)/hitP50.Median)
		out.set("host.calib_ns", calib)
		*dumps = append(*dumps, traceDump{Workload: w.name, Spans: spans})
	}

	extra, lost, err := in.finish(out, traced)
	if err != nil {
		return nil, err
	}
	res.Attempted += extra
	res.Failed += lost
	res.Correct = res.Failed == 0
	if res.Metrics, err = out.reported(!traced); err != nil {
		return nil, err
	}
	return res, nil
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	var (
		name     = flag.String("workload", "", "run one workload and print the driver's result line (default: all, into -out)")
		seed     = flag.Int64("seed", 1, "the only input that changes the generated data")
		seconds  = flag.Int("seconds", 10, "how long the timed rounds of one run measure")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics (all-workload mode runs both)")
		out      = flag.String("out", "", "write results as JSON (default results.json when running every workload)")
		traceOut = flag.String("trace-out", "trace.json", "where a traced run writes its spans")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare a.json b.json"))
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace takes 0 or 1"))
	}

	e, err := newEnv(*seed, 1)
	if err != nil {
		fatal(err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.cleanup()
		os.Exit(130)
	}()
	os.Exit(func() int {
		defer e.cleanup() // also when a bug panics
		return run(e, *name, *seconds, *trace == 1, *out, *traceOut)
	}())
}

func run(e *env, name string, seconds int, traced bool, out, traceOut string) int {
	man, err := loadManifest(e.root)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("bench: seed %d, GOMAXPROCS %d, scratch and durability directories under %s\n",
		e.seed, runtime.GOMAXPROCS(0), e.work)

	type job struct {
		w      *workload
		traced bool
	}
	var jobs []job
	if name != "" {
		w := workloadByName(name)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", name))
		}
		jobs = []job{{w, traced}}
	} else {
		if out == "" {
			out = "results.json"
		}
		for _, w := range workloads {
			jobs = append(jobs, job{w, false})
			if traced {
				jobs = append(jobs, job{w, true})
			}
		}
	}

	file := resultFile{Seed: e.seed, GoMaxProcs: runtime.GOMAXPROCS(0), Seconds: seconds}
	var dumps []traceDump
	code := 0
	for _, j := range jobs {
		res, err := runWorkload(e, j.w, man, defaultPlan(seconds), j.traced, &dumps)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", j.w.name, err))
		}
		res.print(os.Stdout)
		if !res.Correct {
			code = 1
		}
		file.Runs = append(file.Runs, res)
	}
	if len(dumps) > 0 {
		if err := writeJSON(traceOut, dumps); err != nil {
			return fail(err)
		}
	}
	if out != "" {
		if err := writeJSON(out, file); err != nil {
			return fail(err)
		}
	}
	if name != "" {
		// The driver reads the last line of standard output.
		line, err := json.Marshal(file.Runs[0].driverLine())
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
	}
	return code
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

func fatal(err error) { os.Exit(fail(err)) }
