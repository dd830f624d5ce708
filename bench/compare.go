package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// compareFiles prints, per workload and metric, both medians, how much worse
// the second is, the bound and a verdict, and returns the exit code: 1 when
// any end-to-end metric regressed. Per-layer rows carry no bound and are
// printed for information.
func compareFiles(w io.Writer, pathA, pathB string) int {
	root, err := checkoutRoot()
	if err != nil {
		return fail(err)
	}
	man, err := loadManifest(root)
	if err != nil {
		return fail(err)
	}
	a, err := readResults(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readResults(pathB)
	if err != nil {
		return fail(err)
	}
	defs := map[string]metricDef{}
	for _, d := range man.EndToEnd {
		defs[d.Name] = d
	}
	for _, d := range man.PerLayer {
		d.Bound = -1
		defs[d.Name] = d
	}

	regressed := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\tb\tworse by\tbound\tverdict\t")
	for _, ra := range a.Runs {
		rb := b.find(ra.Workload, ra.Traced)
		if rb == nil {
			continue
		}
		if rb.Failed > ra.Failed {
			regressed++
			fmt.Fprintf(tw, "%s\tfailed ops\tcount\t%d\t%d\t\tany increase\tregressed\t\n", ra.Workload, ra.Failed, rb.Failed)
		}
		for i, ma := range ra.Metrics {
			mb := rb.Metrics[i]
			d := defs[ma.Name]
			verdict := compareOne(d, ma.summary, mb.summary)
			if verdict == "regressed" {
				regressed++
			}
			bound := ""
			if d.Bound >= 0 {
				bound = fmt.Sprintf("%.1f%%", d.Bound*100)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%s\t%s\t\n",
				ra.Workload, ma.Name, ma.Unit, ma.Median, mb.Median, worseBy(d, ma.Median, mb.Median)*100, bound, verdict)
		}
	}
	tw.Flush()
	if regressed > 0 {
		fmt.Fprintf(w, "%d regressed\n", regressed)
		return 1
	}
	return 0
}

// worseBy is how much worse b is than a as a share of a, in the metric's
// own direction: positive is worse.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareOne gives the verdict for one metric: unresolved when either side's
// own quartile spread is wider than the bound, because then the runs cannot
// tell a regression of that size from noise.
func compareOne(d metricDef, a, b summary) string {
	if d.Bound < 0 {
		return "info"
	}
	spread := func(s summary) float64 {
		if s.Median == 0 {
			return 0
		}
		return (s.Q3 - s.Q1) / s.Median
	}
	switch {
	case spread(a) > d.Bound || spread(b) > d.Bound:
		return "unresolved"
	case worseBy(d, a.Median, b.Median) > d.Bound:
		return "regressed"
	}
	return "ok"
}

func (f *resultFile) find(workload string, traced bool) *result {
	for _, r := range f.Runs {
		if r.Workload == workload && r.Traced == traced {
			return r
		}
	}
	return nil
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
