package obs

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// parsePromText is a minimal validator of the Prometheus text exposition
// format: every non-comment line must be `name{labels} value` with a
// parseable float value, and every sample must be preceded by a TYPE
// declaration for its metric family.
func parsePromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]bool)
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) < 3 || (f[1] != "TYPE" && f[1] != "HELP") {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			if f[1] == "TYPE" {
				typed[f[2]] = true
			}
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("line %d: no value in %q", ln+1, line)
		}
		key, val := line[:i], line[i+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, val, err)
		}
		name := key
		if j := strings.IndexByte(name, '{'); j >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("line %d: unterminated labels in %q", ln+1, line)
			}
			name = name[:j]
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := strings.CutSuffix(name, suffix); ok {
				family = f
				break
			}
		}
		if !typed[name] && !typed[family] {
			t.Errorf("line %d: sample %q has no TYPE declaration", ln+1, line)
		}
		samples[key] = v
	}
	return samples
}

func TestWritePrometheus(t *testing.T) {
	store := New(Config{})
	help := map[string]string{"requests": "compile requests served"}
	store.Count("requests", 3)
	store.Count("errors", 1)
	for _, v := range []int64{1, 2, 3, 100} {
		store.Observe("compile.ns", v)
	}

	// A per-request observer folds in: its counters, phases and coverage
	// appear on the next scrape.
	o := New(Config{})
	o.SetCoverageUniverse(10, 20, nil)
	sp := o.Start("compile")
	o.Count("codegen.trees", 7)
	o.ProdReduced(3)
	o.StateVisited(5)
	sp.End()
	store.Merge(o)

	var buf bytes.Buffer
	WritePrometheus(&buf, store, "ggcd", help)
	out := buf.String()
	samples := parsePromText(t, out)

	for key, want := range map[string]float64{
		"ggcd_requests_total":                    3,
		"ggcd_errors_total":                      1,
		"ggcd_codegen_trees_total":               7,
		"ggcd_compile_ns_count":                  4,
		"ggcd_compile_ns_sum":                    106,
		`ggcd_compile_ns_bucket{le="3"}`:         3,
		`ggcd_compile_ns_bucket{le="+Inf"}`:      4,
		`ggcd_phase_spans_total{path="compile"}`: 1,
		"ggcd_table_productions_fired":           1,
		"ggcd_table_productions_total":           10,
		"ggcd_table_states_visited":              1,
		"ggcd_table_states_total":                20,
	} {
		if got, ok := samples[key]; !ok || got != want {
			t.Errorf("sample %s = %v (present %v), want %v", key, got, ok, want)
		}
	}
	if !strings.Contains(out, "# HELP ggcd_requests_total compile requests served") {
		t.Errorf("missing HELP line:\n%s", out)
	}
	if strings.Contains(out, "# HELP ggcd_errors_total") {
		t.Errorf("HELP line for a metric without help text:\n%s", out)
	}
	if _, ok := samples["ggcd_compile_ns_p99"]; !ok {
		t.Errorf("missing p99 gauge:\n%s", out)
	}
	// Cumulative buckets must be monotone and end at the count.
	if samples[`ggcd_compile_ns_bucket{le="1"}`] > samples[`ggcd_compile_ns_bucket{le="3"}`] {
		t.Errorf("buckets not cumulative:\n%s", out)
	}

	// An empty namespace exports bare names; a nil observer exports nothing.
	buf.Reset()
	WritePrometheus(&buf, store, "", nil)
	if !strings.Contains(buf.String(), "\nrequests_total 3\n") {
		t.Errorf("bare-name scrape missing requests_total:\n%s", buf.String())
	}
	buf.Reset()
	WritePrometheus(&buf, nil, "ggcd", help)
	if buf.Len() != 0 {
		t.Errorf("nil observer scraped %q", buf.String())
	}
}

// A scrape must be safe while requests record and merge concurrently.
func TestWritePrometheusConcurrentScrape(t *testing.T) {
	store := New(Config{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				store.Count("reqs", 1)
				store.Observe("lat", int64(i))
				o := New(Config{})
				o.Count("codegen.trees", 1)
				store.Merge(o)
			}
		}()
	}
	for i := 0; i < 20; i++ {
		WritePrometheus(&bytes.Buffer{}, store, "x", nil)
	}
	wg.Wait()
	if got := store.Counter("reqs"); got != 4*500 {
		t.Errorf("reqs = %d, want %d", got, 4*500)
	}
	if got := store.Counter("codegen.trees"); got != 4*500 {
		t.Errorf("merged trees = %d, want %d", got, 4*500)
	}
}

func TestPromNameSanitize(t *testing.T) {
	for in, want := range map[string]string{
		"codegen.trees": "codegen_trees",
		"peep-hits/all": "peep_hits_all",
		"9lives":        "_9lives",
		"ok_name:colon": "ok_name:colon",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
