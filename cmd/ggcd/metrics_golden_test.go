package main

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// timeValued reports whether a scrape line belongs to a family whose
// values are wall times, which differ from run to run.
func timeValued(line string) bool {
	name := line
	if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
		name = rest
	} else if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
		name = rest
	}
	return strings.HasPrefix(name, "ggcd_compile_ns") || strings.HasPrefix(name, "ggcd_phase_ns_total")
}

// TestMetricsGolden pins the /metrics scrape after a fixed request
// sequence — both targets, both response formats, one cache hit and one
// rejected source — to testdata/metrics.golden, minus the time-valued
// families: every HELP and TYPE line, counter, histogram bucket, phase
// span count and coverage gauge must match byte for byte.
func TestMetricsGolden(t *testing.T) {
	_, ts := newCachedTestServer(t)
	for _, req := range []struct {
		query, body string
		status      int
	}{
		{"", prog, http.StatusOK},                           // vax, text, miss
		{"?format=json", prog, http.StatusOK},               // vax, json, hit
		{"?target=risc&format=json", prog, http.StatusOK},   // risc, json, miss
		{"?target=risc&peephole=1", prog, http.StatusOK},    // risc, text, miss
		{"", "int main( {", http.StatusUnprocessableEntity}, // vax, 422
	} {
		resp, err := http.Post(ts.URL+"/compile"+req.query, "text/plain", strings.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != req.status {
			t.Fatalf("POST /compile%s: status %d, want %d", req.query, resp.StatusCode, req.status)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var got strings.Builder
	for _, line := range strings.SplitAfter(string(body), "\n") {
		if line != "" && !timeValued(line) {
			got.WriteString(line)
		}
	}

	golden := filepath.Join("testdata", "metrics.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("scrape differs from %s:\n got:\n%s\nwant:\n%s", golden, got.String(), want)
	}
}
