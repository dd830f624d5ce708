// Prometheus text-exposition rendering of a Snapshot. Kept inside obs so any
// registry — the bench harness's, a future server's — gets a scrapeable
// /metrics surface for free, with zero dependencies: the text format is just
// lines of "name{labels} value".
//
// Mapping: counters and gauges render 1:1; log2 histograms render as
// Prometheus summaries (pre-computed p50/p95/p99 quantiles plus _sum and
// _count), because the log2 buckets do not have the cumulative le= shape a
// Prometheus histogram type requires and the quantiles are what dashboards
// want anyway. The exact max rides along as a companion <name>_max gauge.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// promNamespace prefixes every exported metric family.
const promNamespace = "mets_"

// promName maps a registry metric name (dotted, e.g. "shard3.wal.fsyncs") to
// a Prometheus metric name: namespace + [a-zA-Z0-9_]-sanitized name.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(promNamespace) + len(name))
	b.WriteString(promNamespace)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4). Output is deterministic: families are sorted by
// name. Flight events are not rendered — they are structural, not numeric;
// scrape the JSON surface for those.
func WritePrometheus(w io.Writer, s Snapshot) error {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, s.Counters[name]); err != nil {
			return err
		}
	}

	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", n, n, s.Gauges[name]); err != nil {
			return err
		}
	}

	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		n := promName(name)
		_, err := fmt.Fprintf(w,
			"# TYPE %s summary\n"+
				"%s{quantile=\"0.5\"} %d\n"+
				"%s{quantile=\"0.95\"} %d\n"+
				"%s{quantile=\"0.99\"} %d\n"+
				"%s_sum %d\n"+
				"%s_count %d\n"+
				"# TYPE %s_max gauge\n"+
				"%s_max %d\n",
			n, n, h.P50, n, h.P95, n, h.P99, n, h.Sum, n, h.Count, n, n, h.Max)
		if err != nil {
			return err
		}
	}
	return nil
}
