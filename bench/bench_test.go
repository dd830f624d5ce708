package main

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"mets/internal/lsm"
)

// testEnv runs workloads at 1/100 scale with scratch space in the test's
// temporary directory.
func testEnv(t *testing.T, seed int64) *env {
	t.Helper()
	root, err := checkoutRoot()
	if err != nil {
		t.Fatal(err)
	}
	e := &env{seed: seed, scale: 0.01, root: root, work: t.TempDir()}
	t.Cleanup(e.cleanup)
	return e
}

func TestRecorderMatchesSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var r recorder
	var oracle []float64
	for i := 0; i < 20_000; i++ {
		// Log-uniform over five decades, the shape of real latencies.
		d := time.Duration(math.Exp(rng.Float64()*math.Log(1e5)) * 100)
		r.add(d)
		oracle = append(oracle, float64(d))
	}
	sort.Float64s(oracle)
	if r.count() != len(oracle) {
		t.Fatalf("count %d, want %d", r.count(), len(oracle))
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got, err := r.quantile(q)
		if err != nil {
			t.Fatalf("p%g: %v", q*100, err)
		}
		want := oracle[int(math.Ceil(q*float64(len(oracle))))-1]
		if math.Abs(got-want)/want > 0.03 {
			t.Errorf("p%g = %g, oracle %g: off by more than 3%%", q*100, got, want)
		}
	}
	// 20000 samples leave 2 beyond p99.99: not enough to report it.
	if _, err := r.quantile(0.9999); err == nil {
		t.Error("p99.99 of 20000 samples was reported with fewer than 10 samples beyond it")
	}
	// p99 needs 1000 samples to have 10 beyond it.
	small := recorder{ns: make([]int64, 999)}
	if _, err := small.quantile(0.99); err == nil {
		t.Error("p99 of 999 samples was reported")
	}
	small.ns = append(small.ns, 1)
	if _, err := small.quantile(0.99); err != nil {
		t.Errorf("p99 of 1000 samples: %v", err)
	}
}

func TestSummarizeQuartiles(t *testing.T) {
	s := summarize([]float64{5, 1, 3, 2, 4}, 50)
	if s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 || s.Rounds != 5 || s.Samples != 50 {
		t.Errorf("summarize = %+v", s)
	}
	if c := summarize([]float64{7, 7, 7}, 0); c.Q1 != 7 || c.Q3 != 7 {
		t.Errorf("constant series has spread: %+v", c)
	}
}

// counted runs the warm-up and the counted rounds of an lsm-filter instance
// and returns its deterministic metrics.
func counted(t *testing.T, w *lsmFilter) (ioPerOp, bitsPerKey float64) {
	t.Helper()
	wl := workloadByName("lsm-filter")
	rs, _, err := timedRounds(w, wl, 0, 0, 1+lsmIORounds, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs.results {
		if r.failed != 0 {
			t.Fatalf("%d of %d ops failed", r.failed, r.ops)
		}
	}
	var reads int64
	for _, s := range w.perRound[1:] {
		reads += s.BlockReads
	}
	return float64(reads) / float64(lsmIORounds*len(w.ops[0])), float64(w.db.FilterMemory()) * 8 / float64(len(w.keys))
}

func TestSeedIsTheOnlyInput(t *testing.T) {
	surfBuilder := lsm.SuRFFilterBuilder(lsmSuRF)
	a, err := setupLSM(testEnv(t, 7), surfBuilder)
	if err != nil {
		t.Fatal(err)
	}
	b, err := setupLSM(testEnv(t, 7), surfBuilder)
	if err != nil {
		t.Fatal(err)
	}
	if streamHash(a.ops) != streamHash(b.ops) {
		t.Error("same seed, different lsm-filter op streams")
	}
	ioA, bitsA := counted(t, a)
	ioB, bitsB := counted(t, b)
	if ioA != ioB || bitsA != bitsB {
		t.Errorf("same seed: io_per_op %v vs %v, bits_per_key %v vs %v", ioA, ioB, bitsA, bitsB)
	}
	c, err := setupLSM(testEnv(t, 8), surfBuilder)
	if err != nil {
		t.Fatal(err)
	}
	if streamHash(c.ops) == streamHash(a.ops) {
		t.Error("a second seed produced the same op stream")
	}
	counted(t, c) // a second seed must run clean

	// The library workloads: identical streams and identical memory.
	for _, setup := range []func(*env) (instance, error){setupLibRead, setupLibWriteMerge} {
		var hashes []uint64
		var bits []float64
		for rep := 0; rep < 2; rep++ {
			in, err := setup(testEnv(t, 7))
			if err != nil {
				t.Fatal(err)
			}
			st, err := in.streams(0)
			if err != nil {
				t.Fatal(err)
			}
			hashes = append(hashes, streamHash(st))
			res := runRound(in, st, 1, nil)
			if res.failed != 0 {
				t.Fatalf("%d ops failed", res.failed)
			}
			if err := in.endRound(0); err != nil {
				t.Fatal(err)
			}
			out := newMetrics([]metricDef{{Name: "bits_per_key"}})
			if _, _, err := in.finish(out, false); err != nil {
				t.Fatal(err)
			}
			bits = append(bits, out.vals["bits_per_key"].Median)
		}
		if hashes[0] != hashes[1] || bits[0] != bits[1] || bits[0] == 0 {
			t.Errorf("same seed: stream hashes %x, bits_per_key %v", hashes, bits)
		}
	}
}

// TestFilterCutsIO is the sanity check behind the lsm-filter workload: with
// the SuRF builder the same op stream must read strictly fewer blocks than
// with filters disabled.
func TestFilterCutsIO(t *testing.T) {
	with, err := setupLSM(testEnv(t, 3), lsm.SuRFFilterBuilder(lsmSuRF))
	if err != nil {
		t.Fatal(err)
	}
	without, err := setupLSM(testEnv(t, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	ioWith, _ := counted(t, with)
	ioWithout, _ := counted(t, without)
	// At test scale every block fits the cache after the warm-up, so compare
	// block fetches (reads + cache hits), which the cache cannot hide.
	fetches := func(w *lsmFilter) (n int64) {
		for _, s := range w.perRound[1:] {
			n += s.BlockReads + s.CacheHits
		}
		return
	}
	if fetches(with) >= fetches(without) {
		t.Errorf("SuRF fetched %d blocks, no filter %d (io_per_op %v vs %v)", fetches(with), fetches(without), ioWith, ioWithout)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestManifestMatchesProgram(t *testing.T) {
	root, err := checkoutRoot()
	if err != nil {
		t.Fatal(err)
	}
	man, err := loadManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, program %d", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: manifest %q, program %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if workloads[i].clients > 2 {
			t.Errorf("workload %s drives %d clients; the sandbox has 2 cores", w.Name, workloads[i].clients)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), man.EndToEnd...), man.PerLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if d.Unit == "" || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range man.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// parts are the per-layer metrics a traced point read is split into; they
// must sum to trace.get_ns.
var parts = map[string][]string{
	"lib-read":        {"keycodec.encode_ns", "sharded.route_ns", "bloom.probe_ns", "hybrid.get_self_ns"},
	"lib-write-merge": {"keycodec.encode_ns", "sharded.route_ns", "bloom.probe_ns", "hybrid.get_self_ns"},
	"served-read":     {"wire.codec_ns", "server.store_get_ns", "client.rtt_self_ns"},
	"served-durable":  {"wire.codec_ns", "server.store_get_ns", "client.rtt_self_ns"},
	"lsm-filter":      {"surf.lookup_ns", "lsm.get_self_ns"},
}

// TestSmoke runs every workload end to end at 1/100 scale — child server,
// crash and restart, traced round and layer probes included — and checks that
// what a run emits is exactly what BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	root, err := checkoutRoot()
	if err != nil {
		t.Fatal(err)
	}
	man, err := loadManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	plan := plan{setupReps: 1, minRounds: lsmIORounds}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			e := testEnv(t, 5)
			for _, traced := range []bool{false, true} {
				if traced && testing.Short() && w.name != "lib-write-merge" && w.name != "served-read" {
					continue // -short keeps one traced run in-process and one over the wire
				}
				var dumps []traceDump
				res, err := runWorkload(e, w, man, plan, traced, &dumps)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("traced=%v: correct %v, %d of %d failed", traced, res.Correct, res.Failed, res.Attempted)
				}
				defs := man.EndToEnd
				if traced {
					defs = man.PerLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("traced=%v: %d metrics emitted, manifest declares %d", traced, len(res.Metrics), len(defs))
				}
				vals := map[string]float64{}
				for i, m := range res.Metrics {
					if m.Name != defs[i].Name || m.Unit != defs[i].Unit {
						t.Errorf("metric %d: emitted %s [%s], manifest %s [%s]", i, m.Name, m.Unit, defs[i].Name, defs[i].Unit)
					}
					if _, dup := vals[m.Name]; dup {
						t.Errorf("metric %s emitted twice", m.Name)
					}
					vals[m.Name] = m.Median
					if !traced && m.Median <= 0 {
						t.Errorf("end-to-end metric %s = %v; must never be 0", m.Name, m.Median)
					}
				}
				if !traced {
					continue
				}
				var sum float64
				for _, p := range parts[w.name] {
					sum += vals[p]
				}
				if whole := vals["trace.get_ns"]; whole <= 0 || math.Abs(sum-whole) > 1e-6*whole {
					t.Errorf("layer self times sum to %v, traced op median is %v", sum, whole)
				}
				if len(dumps) != 1 || len(dumps[0].Spans) == 0 {
					t.Errorf("traced run kept no spans")
				}
			}
		})
	}
}

func TestCompareVerdicts(t *testing.T) {
	root, err := checkoutRoot()
	if err != nil {
		t.Fatal(err)
	}
	man, err := loadManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	var bound float64
	for _, d := range man.EndToEnd {
		if d.Name == "get_p50_ns" {
			bound = d.Bound
		}
	}
	// mk makes a file whose get_p50_ns is worse by the given share and whose
	// throughput quartiles are spread apart around the median.
	mk := func(worse, spread float64) resultFile {
		r := &result{Workload: "lib-read", Correct: true, Attempted: 10}
		for _, d := range man.EndToEnd {
			s := summary{Median: 100, Q1: 100, Q3: 100}
			switch d.Name {
			case "get_p50_ns":
				s = summary{Median: 100 * (1 + worse), Q1: 100 * (1 + worse), Q3: 100 * (1 + worse)}
			case "throughput_ops_s":
				s.Q1, s.Q3 = 100*(1-spread), 100*(1+spread)
			}
			r.Metrics = append(r.Metrics, reported{Name: d.Name, Unit: d.Unit, summary: s})
		}
		return resultFile{Runs: []*result{r}}
	}
	dir := t.TempDir()
	write := func(name string, f resultFile) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, f); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", mk(0, 0))
	var out bytes.Buffer
	if code := compareFiles(&out, base, write("same.json", mk(bound/2, 0))); code != 0 {
		t.Errorf("worse by half the bound: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, base, write("worse.json", mk(2*bound, 0))); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("worse by twice the bound: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, base, write("noisy.json", mk(0, bound))); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("quartiles two bounds apart: exit %d\n%s", code, out.String())
	}
}
