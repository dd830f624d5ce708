package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// manifest is BENCHMARK.json. It is the one place metric names, units,
// directions and bounds are written down: the program reads it at start, so
// what it emits and what the manifest declares cannot drift apart.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

const manifestName = "BENCHMARK.json"

func loadManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, manifestName))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", manifestName, err)
	}
	return &m, nil
}

// metrics collects one run's values against the manifest's definitions.
type metrics struct {
	defs []metricDef
	vals map[string]summary
}

func newMetrics(defs []metricDef) metrics {
	return metrics{defs: defs, vals: map[string]summary{}}
}

// set records a metric that is read once, not a statistic over rounds.
func (m metrics) set(name string, v float64) {
	m.setSummary(name, summary{Median: v, Q1: v, Q3: v})
}

// setSummary panics on a name the manifest does not declare or one set
// twice: both are bugs in the benchmark, not conditions of a run.
func (m metrics) setSummary(name string, s summary) {
	if _, dup := m.vals[name]; dup {
		panic("metric set twice: " + name)
	}
	for _, d := range m.defs {
		if d.Name == name {
			m.vals[name] = s
			return
		}
	}
	panic("metric not in BENCHMARK.json: " + name)
}

// reported pairs every declared metric with its value. A per-layer metric
// nobody set belongs to a layer the workload does not pass through and reads
// 0; an end-to-end metric must always be set.
func (m metrics) reported(strict bool) ([]reported, error) {
	out := make([]reported, 0, len(m.defs))
	for _, d := range m.defs {
		s, ok := m.vals[d.Name]
		if !ok && strict {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		out = append(out, reported{Name: d.Name, Unit: d.Unit, summary: s})
	}
	return out, nil
}

type reported struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	summary
}

// result is one run of one workload.
type result struct {
	Workload  string     `json:"workload"`
	Seed      int64      `json:"seed"`
	Traced    bool       `json:"traced"`
	Correct   bool       `json:"correct"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	Transient int        `json:"transient_read_misses"`
	Metrics   []reported `json:"metrics"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Seed       int64     `json:"seed"`
	GoMaxProcs int       `json:"gomaxprocs"`
	Seconds    int       `json:"seconds"`
	Runs       []*result `json:"runs"`
}

type traceDump struct {
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`
}

// print writes every metric by name with its unit, quartiles and counts.
func (r *result) print(w io.Writer) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "\n== %s: %s, seed %d: %d ops attempted, %d failed (failed_ops_share %.6f), %d transient read misses\n",
		r.Workload, kind, r.Seed, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)), r.Transient)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tmedian\tq1\tq3\tunit\trounds\tsamples\t")
	for _, m := range r.Metrics {
		fmt.Fprintf(tw, "%s\t%.6g\t%.6g\t%.6g\t%s\t%d\t%d\t\n", m.Name, m.Median, m.Q1, m.Q3, m.Unit, m.Rounds, m.Samples)
	}
	tw.Flush()
}

// driverLine is the object the benchmark contract wants on the last line.
func (r *result) driverLine() any {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]mv{}
	for _, m := range r.Metrics {
		ms[m.Name] = mv{m.Median, m.Unit}
	}
	return struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms}
}
