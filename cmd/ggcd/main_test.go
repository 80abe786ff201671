package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

const prog = `int main() { int i = 1, s = 0; while (i <= 10) { s += i; i++; } return s; }`

func newTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	s := newServer(serverConfig{Timeout: 30 * time.Second})
	ts := httptest.NewServer(s.mux)
	t.Cleanup(ts.Close)
	return s, ts
}

func TestCompileEndpoint(t *testing.T) {
	s, ts := newTestServer(t)

	resp, err := http.Post(ts.URL+"/compile?peephole=1", "text/plain", strings.NewReader(prog))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "_main:") {
		t.Errorf("response is not assembly:\n%s", body)
	}
	if ns, err := strconv.ParseInt(resp.Header.Get("X-Ggcd-Compile-Ns"), 10, 64); err != nil || ns <= 0 {
		t.Errorf("X-Ggcd-Compile-Ns = %q", resp.Header.Get("X-Ggcd-Compile-Ns"))
	}
	if got := s.metrics.Counter("requests"); got != 1 {
		t.Errorf("requests counter = %d, want 1", got)
	}
	if got := s.metrics.Counter("codegen.trees"); got <= 0 {
		t.Errorf("merged codegen.trees = %d, want > 0", got)
	}
}

func TestCompileJSONWithEvents(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/compile?format=json", "text/plain", strings.NewReader(prog))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cr compileResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatalf("decoding JSON response: %v", err)
	}
	if !strings.Contains(cr.Asm, "_main:") {
		t.Errorf("asm missing main:\n%s", cr.Asm)
	}
	if cr.Stats.Trees <= 0 || cr.Stats.AsmLines <= 0 {
		t.Errorf("stats not populated: %+v", cr.Stats)
	}
	// Per-request span events ride along; at least the compile span.
	spans := 0
	for _, raw := range cr.Events {
		var e struct{ Kind, Path string }
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("bad event %s: %v", raw, err)
		}
		if e.Kind == "span" {
			spans++
		}
	}
	if spans == 0 {
		t.Errorf("no span events in JSON response (%d events)", len(cr.Events))
	}
}

func TestCompileErrors(t *testing.T) {
	s, ts := newTestServer(t)

	for _, tc := range []struct {
		name, url, body string
		wantStatus      int
	}{
		{"bad source", "/compile", "int main( {", http.StatusUnprocessableEntity},
		{"empty body", "/compile", "   ", http.StatusBadRequest},
		{"bad workers", "/compile?workers=x", prog, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+tc.url, "text/plain", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.wantStatus)
		}
	}
	if got := s.metrics.Counter("errors"); got != 1 {
		t.Errorf("errors counter = %d, want 1 (only the bad-source request compiles)", got)
	}
}

// TestDeepNestingRejected: a request nested far past the front end's
// budget — 300000 parentheses, 600 KB, under the 1 MiB MaxSource — gets a
// 422 naming the limit instead of overflowing the daemon's stack, and the
// same server then answers a valid compile.
func TestDeepNestingRejected(t *testing.T) {
	_, ts := newTestServer(t)
	const depth = 300000
	deep := "int main() { return " + strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth) + "; }"
	resp, err := http.Post(ts.URL+"/compile", "text/plain", strings.NewReader(deep))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "nesting depth exceeds the limit of") {
		t.Errorf("body does not name the nesting limit: %s", body)
	}

	resp, err = http.Post(ts.URL+"/compile", "text/plain", strings.NewReader(prog))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "_main:") {
		t.Fatalf("valid compile after the rejected one: status %d: %s", resp.StatusCode, body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	// Two compiles so the counters are visibly cumulative.
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/compile", "text/plain", strings.NewReader(prog))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	if !strings.Contains(resp.Header.Get("Content-Type"), "text/plain") {
		t.Errorf("content type %q", resp.Header.Get("Content-Type"))
	}
	for _, want := range []string{
		"# TYPE ggcd_requests_total counter",
		"ggcd_requests_total 2",
		"# TYPE ggcd_compile_ns histogram",
		"ggcd_compile_ns_count 2",
		"ggcd_compile_ns_p99",
		`ggcd_phase_ns_total{path="compile"}`,
		"ggcd_table_productions_fired",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	// Every sample line must parse as name[{labels}] value.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
	}
}

func TestHealthAndDebugEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/healthz", "/debug/pprof/"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
	}
}

func TestCompileTimeout(t *testing.T) {
	s := newServer(serverConfig{Timeout: 1 * time.Nanosecond})
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/compile", "text/plain", strings.NewReader(prog))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if got := s.metrics.Counter("timeouts"); got != 1 {
		t.Errorf("timeouts counter = %d, want 1", got)
	}
}

func newCachedTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	s := newServer(serverConfig{Timeout: 30 * time.Second, CacheEntries: 64})
	ts := httptest.NewServer(s.mux)
	t.Cleanup(ts.Close)
	return s, ts
}

// postProg posts one compile request and returns the response body and
// the X-GGCD-Cache header.
func postProg(t *testing.T, url, body string) (asm, cacheState string) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	return string(b), resp.Header.Get("X-GGCD-Cache")
}

// Sequential identical requests: first misses, the rest hit, responses
// stay byte-identical, and /metrics exports the cache series.
func TestCompileCacheHeader(t *testing.T) {
	s, ts := newCachedTestServer(t)
	first, state := postProg(t, ts.URL+"/compile", prog)
	if state != "miss" {
		t.Errorf("first request X-GGCD-Cache = %q, want miss", state)
	}
	second, state := postProg(t, ts.URL+"/compile", prog)
	if state != "hit" {
		t.Errorf("second request X-GGCD-Cache = %q, want hit", state)
	}
	if first != second {
		t.Error("cached response differs from fresh response")
	}
	// A different configuration of the same source is its own entry.
	if _, state := postProg(t, ts.URL+"/compile?peephole=1", prog); state != "miss" {
		t.Errorf("peephole variant X-GGCD-Cache = %q, want miss", state)
	}
	// A different response format is not: both formats render from the
	// same cached result.
	if _, state := postProg(t, ts.URL+"/compile?format=json", prog); state != "hit" {
		t.Errorf("json variant X-GGCD-Cache = %q, want hit", state)
	}
	if hits, misses := s.metrics.Counter("cache.hits"), s.metrics.Counter("cache.misses"); hits != 2 || misses != 2 {
		t.Errorf("cache.hits=%d cache.misses=%d, want 2 and 2", hits, misses)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"ggcd_cache_hits_total 2",
		"ggcd_cache_misses_total 2",
		"ggcd_cache_evictions_total 0",
		"ggcd_cache_inflight_coalesced_total 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestCompileJSONCacheHit: a format=json cache hit says so in its body.
// The first request compiles and carries its events; the second, for the
// same source, compiles nothing and carries none.
func TestCompileJSONCacheHit(t *testing.T) {
	_, ts := newCachedTestServer(t)
	var got [2]compileResponse
	for i := range got {
		asm, state := postProg(t, ts.URL+"/compile?format=json", prog)
		if err := json.Unmarshal([]byte(asm), &got[i]); err != nil {
			t.Fatalf("request %d: decoding JSON response: %v", i, err)
		}
		if want := []string{"miss", "hit"}[i]; state != want {
			t.Errorf("request %d: X-GGCD-Cache = %q, want %s", i, state, want)
		}
	}
	if got[0].Cached || len(got[0].Events) == 0 {
		t.Errorf("first request: cached %v with %d events, want a compile with events",
			got[0].Cached, len(got[0].Events))
	}
	if !got[1].Cached || len(got[1].Events) != 0 {
		t.Errorf("second request: cached %v with %d events, want a hit with none",
			got[1].Cached, len(got[1].Events))
	}
	if got[0].Asm != got[1].Asm {
		t.Error("cache hit returned different assembly")
	}
}

// The CI smoke's property, under the race detector: N concurrent
// identical requests produce exactly one miss — the singleflight leader
// — and N-1 hits, all byte-identical.
func TestCompileCacheCoalescing(t *testing.T) {
	_, ts := newCachedTestServer(t)
	const n = 8
	asms := make([]string, n)
	states := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/compile", "text/plain", strings.NewReader(prog))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, b)
				return
			}
			asms[i] = string(b)
			states[i] = resp.Header.Get("X-GGCD-Cache")
		}(i)
	}
	wg.Wait()
	misses, hits := 0, 0
	for i := 0; i < n; i++ {
		switch states[i] {
		case "miss":
			misses++
		case "hit":
			hits++
		default:
			t.Errorf("request %d: X-GGCD-Cache = %q", i, states[i])
		}
		if asms[i] != asms[0] {
			t.Errorf("request %d: response differs from request 0", i)
		}
	}
	if misses != 1 || hits != n-1 {
		t.Errorf("%d misses and %d hits, want exactly 1 and %d", misses, hits, n-1)
	}
}

// A server without a cache must not advertise one.
func TestNoCacheNoHeader(t *testing.T) {
	_, ts := newTestServer(t)
	if _, state := postProg(t, ts.URL+"/compile", prog); state != "" {
		t.Errorf("X-GGCD-Cache = %q on a cacheless server, want absent", state)
	}
}

// TestCompileTargetParam: ?target= selects the backend, per-target series
// count both admissions and generated units, and an unknown name is a 400
// that lists what would have worked.
func TestCompileTargetParam(t *testing.T) {
	s, ts := newTestServer(t)

	resp, err := http.Post(ts.URL+"/compile?target=risc", "text/plain", strings.NewReader(prog))
	if err != nil {
		t.Fatal(err)
	}
	riscAsm, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("target=risc: status %d: %s", resp.StatusCode, riscAsm)
	}
	if !strings.Contains(string(riscAsm), "_main:") {
		t.Errorf("response is not assembly:\n%s", riscAsm)
	}

	resp, err = http.Post(ts.URL+"/compile", "text/plain", strings.NewReader(prog))
	if err != nil {
		t.Fatal(err)
	}
	vaxAsm, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(vaxAsm) == string(riscAsm) {
		t.Error("risc and vax requests returned identical assembly")
	}

	for counter, want := range map[string]int64{
		"requests.target.risc": 1,
		"requests.target.vax":  1,
		"codegen.target.risc":  1,
		"codegen.target.vax":   1,
	} {
		if got := s.metrics.Counter(counter); got != want {
			t.Errorf("%s = %d, want %d", counter, got, want)
		}
	}

	// The pre-registered series appear in a scrape even at zero.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, series := range []string{
		"ggcd_requests_target_risc_total 1",
		"ggcd_requests_target_vax_total 1",
		"ggcd_codegen_target_risc_total 1",
		"ggcd_codegen_target_vax_total 1",
	} {
		if !strings.Contains(string(metrics), series) {
			t.Errorf("metrics missing %q", series)
		}
	}

	resp, err = http.Post(ts.URL+"/compile?target=z80", "text/plain", strings.NewReader(prog))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("target=z80: status %d, want 400", resp.StatusCode)
	}
	for _, want := range []string{"z80", "risc", "vax"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("400 body %q does not mention %q", body, want)
		}
	}
}
