package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// promName maps an observer name onto the Prometheus metric-name alphabet
// [a-zA-Z0-9_:]: the dotted obs vocabulary becomes underscored
// ("codegen.trees" -> "codegen_trees").
func promName(s string) string {
	var b strings.Builder
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteRune(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabel escapes a label value per the exposition format.
func promLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WritePrometheus renders everything o accumulated in the Prometheus
// text exposition format (version 0.0.4): counters as
// <namespace>_<name>_total, histograms as native histograms with
// cumulative le="2^i-1" buckets plus p50/p90/p99 gauge estimates,
// phase-span aggregates as labeled counter pairs, and table coverage as
// gauges. namespace prefixes every metric name ("ggcd" exports
// ggcd_codegen_trees_total; empty exports bare names), and help maps a
// raw metric name, before sanitization, to its HELP text. It is safe to
// call while o records concurrently; a service folds each request's
// observer into one long-lived o with Merge and scrapes that.
func WritePrometheus(w io.Writer, o *Observer, namespace string, help map[string]string) {
	if o == nil {
		return
	}
	metric := func(name string) string {
		if namespace == "" {
			return promName(name)
		}
		return namespace + "_" + promName(name)
	}
	header := func(name, m, typ string) {
		if h := help[name]; h != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", m, h)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", m, typ)
	}

	o.mu.RLock()
	counterNames := append([]string(nil), o.counterOrder...)
	histNames := append([]string(nil), o.histOrder...)
	o.mu.RUnlock()

	sort.Strings(counterNames)
	for _, name := range counterNames {
		m := metric(name) + "_total"
		header(name, m, "counter")
		fmt.Fprintf(w, "%s %d\n", m, o.Counter(name))
	}

	sort.Strings(histNames)
	for _, name := range histNames {
		h := o.Histogram(name)
		if h == nil {
			continue
		}
		m := metric(name)
		header(name, m, "histogram")
		// Cumulative buckets: bucket i of the power-of-two layout holds
		// integer values <= 2^i - 1, which is exactly an le bound. Stop
		// at the highest populated bucket; +Inf always closes the series.
		top := 0
		for i, n := range h.Buckets {
			if n > 0 {
				top = i
			}
		}
		cum := int64(0)
		for i := 0; i <= top; i++ {
			cum += h.Buckets[i]
			le := int64(1)<<uint(i) - 1 // 0, 1, 3, 7, ...
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", m, le, cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", m, h.Count)
		fmt.Fprintf(w, "%s_sum %d\n", m, h.Sum)
		fmt.Fprintf(w, "%s_count %d\n", m, h.Count)
		for _, q := range []struct {
			suffix string
			v      float64
		}{{"p50", h.P50}, {"p90", h.P90}, {"p99", h.P99}} {
			g := m + "_" + q.suffix
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", g, g, q.v)
		}
	}

	phases := o.Phases()
	if len(phases) > 0 {
		sort.Slice(phases, func(i, j int) bool { return phases[i].Path < phases[j].Path })
		ns, spans := metric("phase.ns")+"_total", metric("phase.spans")+"_total"
		header("phase.ns", ns, "counter")
		for _, p := range phases {
			fmt.Fprintf(w, "%s{path=\"%s\"} %d\n", ns, promLabel(p.Path), p.Ns)
		}
		header("phase.spans", spans, "counter")
		for _, p := range phases {
			fmt.Fprintf(w, "%s{path=\"%s\"} %d\n", spans, promLabel(p.Path), p.Count)
		}
	}

	if prods, states := o.CoverageUniverse(); prods > 0 {
		fired := o.ProdFireCounts()
		delete(fired, 0) // the augmented rule is accepted, not reduced
		visited := o.StateVisitCounts()
		for _, g := range []struct {
			name string
			v    int
		}{
			{"table.productions_fired", len(fired)},
			{"table.productions_total", prods},
			{"table.states_visited", len(visited)},
			{"table.states_total", states},
		} {
			m := metric(g.name)
			header(g.name, m, "gauge")
			fmt.Fprintf(w, "%s %d\n", m, g.v)
		}
	}
}
