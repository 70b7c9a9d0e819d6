package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// helpFor documents the canonical metric families for the Prometheus
// exposition. Families not listed here are exposed without a HELP line.
var helpFor = map[string]string{
	MetricRounds:               "Scheduling rounds completed by the Coordinator.",
	MetricCandidatesEvaluated:  "Candidate resource sets planned and estimated.",
	MetricCandidatesPruned:     "Candidate resource sets skipped by the lower-bound prune.",
	MetricCandidatesInfeasible: "Candidate resource sets the planner rejected.",
	MetricRoundSeconds:         "End-to-end scheduling round latency in seconds.",
	MetricSnapshotSeconds:      "Information-snapshot build latency in seconds.",
	MetricStageSeconds:         "Per-stage latency of the scheduling round in seconds.",
	MetricBankUpdates:          "Forecaster-bank absorptions (one per watched resource per sweep).",
	MetricSensorSweeps:         "NWS batch sensor sweeps completed.",
	MetricSimEvents:            "Discrete-event simulator events dispatched.",
	MetricPredictionError:      "Absolute error of joined scheduling predictions in seconds.",
	MetricForecastSkill:        "Forecast skill 1 - MAE/MAE_naive vs the last-value baseline.",
	MetricDriftAlarms:          "Page-Hinkley drift alarms across decision and forecaster detectors.",
	MetricAuditJoined:          "Predictions joined with an observed actual.",
	MetricAuditOrphaned:        "Actuals that found no standing prediction.",
	MetricAuditExpired:         "Predictions whose actual never arrived inside the TTL.",
	MetricAuditPending:         "Outstanding predictions awaiting their actual.",
	MetricGoroutines:           "Live goroutines in the serving process.",
	MetricHeapBytes:            "Heap bytes currently allocated and in use.",
	MetricGCPauseTotal:         "Cumulative stop-the-world GC pause seconds.",
	MetricGCCycles:             "Completed GC cycles.",
	MetricProcessUptime:        "Seconds since the metrics registry enabled runtime collection.",
}

// escapeLabelValue applies Prometheus label-value escaping: backslash,
// double quote, and newline must be escaped inside the quotes.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// escapeHelp applies HELP-line escaping: backslash and newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// splitName splits a registry key into its base metric name and the raw
// label body (without braces, "" when unlabeled). Keys are built by
// NameWithLabels, so the body is already escaped for re-emission.
func splitName(key string) (base, labels string) {
	i := strings.IndexByte(key, '{')
	if i < 0 {
		return key, ""
	}
	return key[:i], strings.TrimSuffix(key[i+1:], "}")
}

// formatFloat renders a sample value the way Prometheus clients do:
// shortest float64 round-trip representation, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case v > 1.7e308:
		return "+Inf"
	case v < -1.7e308:
		return "-Inf"
	case v != v:
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// series is one registry entry regrouped for exposition.
type series struct {
	labels string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is every series sharing one base metric name; the exposition
// format requires them contiguous under a single TYPE header.
type family struct {
	base string
	typ  string // "counter", "gauge", "histogram"
	ss   []series
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers per metric family, labeled
// series grouped under their family, histograms as cumulative
// `_bucket{le="..."}` series closed by `le="+Inf"` plus `_sum` and
// `_count`. Registry keys of the form `name{label="value"}` (see
// NameWithLabels) expose as natively labeled series. Families are
// emitted in name order, series within a family in label order, so the
// output is deterministic. A name collision across instrument kinds
// (the same base registered as, say, counter and gauge) would be
// invalid exposition; the registry's canonical names keep kinds
// disjoint, and such series are emitted under separate TYPE headers
// anyway.
func (m *Metrics) WritePrometheus(w io.Writer) (int64, error) {
	m.collect()
	m.mu.Lock()
	fams := map[string]*family{}
	add := func(key, typ string, s series) {
		base, labels := splitName(key)
		s.labels = labels
		// Kind-collision guard: keep one family per (base, kind).
		fk := base + " " + typ
		f := fams[fk]
		if f == nil {
			f = &family{base: base, typ: typ}
			fams[fk] = f
		}
		f.ss = append(f.ss, s)
	}
	for k, c := range m.counters {
		add(k, "counter", series{c: c})
	}
	for k, g := range m.gauges {
		add(k, "gauge", series{g: g})
	}
	for k, h := range m.histograms {
		add(k, "histogram", series{h: h})
	}
	m.mu.Unlock()

	order := make([]*family, 0, len(fams))
	for _, f := range fams {
		sort.Slice(f.ss, func(i, j int) bool { return f.ss[i].labels < f.ss[j].labels })
		order = append(order, f)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].base != order[j].base {
			return order[i].base < order[j].base
		}
		return order[i].typ < order[j].typ
	})

	var sb strings.Builder
	for _, f := range order {
		if help := helpFor[f.base]; help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", f.base, escapeHelp(help))
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.base, f.typ)
		for _, s := range f.ss {
			switch {
			case s.c != nil:
				fmt.Fprintf(&sb, "%s%s %d\n", f.base, wrapLabels(s.labels), s.c.Value())
			case s.g != nil:
				fmt.Fprintf(&sb, "%s%s %s\n", f.base, wrapLabels(s.labels), formatFloat(s.g.Value()))
			case s.h != nil:
				writeHistogram(&sb, f.base, s.labels, s.h)
			}
		}
	}
	k, err := io.WriteString(w, sb.String())
	return int64(k), err
}

// wrapLabels re-braces a raw label body ("" stays "").
func wrapLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// writeHistogram emits one histogram series: cumulative buckets with the
// le label merged after any existing labels, then _sum and _count.
func writeHistogram(sb *strings.Builder, base, labels string, h *Histogram) {
	bounds, counts := h.Buckets()
	prefix := labels
	if prefix != "" {
		prefix += ","
	}
	var cum uint64
	for i, b := range bounds {
		cum += counts[i]
		fmt.Fprintf(sb, "%s_bucket{%sle=%q} %d\n", base, prefix, formatFloat(b), cum)
	}
	cum += counts[len(counts)-1]
	fmt.Fprintf(sb, "%s_bucket{%sle=\"+Inf\"} %d\n", base, prefix, cum)
	fmt.Fprintf(sb, "%s_sum%s %s\n", base, wrapLabels(labels), formatFloat(h.Sum()))
	fmt.Fprintf(sb, "%s_count%s %d\n", base, wrapLabels(labels), h.Count())
}
