package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"ggcg"
	"ggcg/internal/obs"
)

// serverConfig bounds one daemon instance.
type serverConfig struct {
	// Timeout caps how long one compile request may run before the
	// client gets 503. The compile goroutine itself is CPU-bound and
	// runs to completion; the bound is on the response, which is what a
	// load balancer needs.
	Timeout time.Duration

	// MaxSource caps the request body size.
	MaxSource int64

	// CacheEntries and CacheBytes bound the compile-result cache.
	// CacheEntries <= 0 disables caching entirely; CacheBytes <= 0 with
	// caching enabled uses the compcache default byte budget.
	CacheEntries int
	CacheBytes   int64

	// compileStarted and compileGate are test hooks: when set, the compile
	// goroutine announces itself on compileStarted and then blocks on
	// compileGate before doing any work, so a test can hold a request
	// in flight across a shutdown and release it on cue.
	compileStarted chan<- struct{}
	compileGate    <-chan struct{}
}

// server is the daemon's handler set plus its cumulative metrics store
// and (when enabled) the shared compile-result cache.
type server struct {
	cfg serverConfig

	// metrics is the cumulative store behind /metrics: request-level
	// counters and histograms recorded directly, plus every request's
	// own observer folded in with Merge, so one scrape shows both the
	// service's metrics and the pipeline's instrumentation vocabulary
	// (codegen.trees, peep.* and friends) accumulated since startup.
	metrics *obs.Observer

	cache *ggcg.Cache
	mux   *http.ServeMux
}

// metricHelp is the HELP text of every metric the daemon names itself;
// the pipeline counters merged in from request observers export without
// one.
var metricHelp = func() map[string]string {
	help := map[string]string{
		"requests":                 "compile requests accepted",
		"errors":                   "compile requests that failed (bad source)",
		"timeouts":                 "compile requests that exceeded the deadline",
		"compile.ns":               "wall time per compile request, ns",
		"source.bytes":             "request source size, bytes",
		"asm.lines":                "assembly lines per successful request",
		"cache.hits":               "requests served from the compile cache (stored or coalesced)",
		"cache.misses":             "requests that compiled fresh",
		"cache.evictions":          "cache entries dropped by the LRU bounds",
		"cache.inflight_coalesced": "requests that waited on an identical in-flight compile",
	}
	for _, name := range ggcg.Targets() {
		help["requests.target."+name] = "compile requests for target " + name
		help["codegen.target."+name] = "units generated for target " + name
	}
	return help
}()

// compileResponse is the format=json response body. Cached reports a
// compile-cache hit: nothing was compiled for this request, so Events
// holds none of the compile's spans (the X-GGCD-Cache header says the
// same).
type compileResponse struct {
	Asm    string            `json:"asm"`
	Stats  ggcg.Stats        `json:"stats"`
	Cached bool              `json:"cached"`
	Events []json.RawMessage `json:"events,omitempty"`
}

func newServer(cfg serverConfig) *server {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.MaxSource <= 0 {
		cfg.MaxSource = 1 << 20
	}
	s := &server{cfg: cfg, metrics: obs.New(obs.Config{}), mux: http.NewServeMux()}
	// One series per registered backend, counted twice: requests.target.*
	// at admission (every accepted request, including failures) and
	// codegen.target.* from the merged per-request observers (units the
	// table-driven generator actually compiled). Pre-registered at zero so
	// a scrape shows every target's series before its first request.
	for _, name := range ggcg.Targets() {
		s.metrics.Count("requests.target."+name, 0)
		s.metrics.Count("codegen.target."+name, 0)
	}
	if cfg.CacheEntries > 0 {
		s.cache = ggcg.NewCache(ggcg.CacheConfig{
			MaxEntries: cfg.CacheEntries,
			MaxBytes:   cfg.CacheBytes,
			Metrics:    s.metrics,
		})
		// Pre-register the series at zero so a scrape shows them before
		// the first request, and a smoke test can grep them reliably.
		for _, name := range []string{"cache.hits", "cache.misses", "cache.evictions", "cache.inflight_coalesced"} {
			s.metrics.Count(name, 0)
		}
	}

	s.mux.HandleFunc("POST /compile", s.handleCompile)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)

	return s
}

// compiled carries one compile result across the timeout boundary.
type compiled struct {
	out *ggcg.Compiled
	o   *ggcg.Observer
	err error
}

func (s *server) handleCompile(w http.ResponseWriter, r *http.Request) {
	src, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxSource+1))
	if err != nil {
		http.Error(w, "ggcd: reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if int64(len(src)) > s.cfg.MaxSource {
		http.Error(w, fmt.Sprintf("ggcd: source exceeds %d bytes", s.cfg.MaxSource), http.StatusRequestEntityTooLarge)
		return
	}
	if len(bytes.TrimSpace(src)) == 0 {
		http.Error(w, "ggcd: empty source", http.StatusBadRequest)
		return
	}

	q := r.URL.Query()
	cfg := ggcg.Config{
		Target:       q.Get("target"),
		Baseline:     q.Get("baseline") == "1",
		Peephole:     q.Get("peephole") == "1",
		NoReverseOps: q.Get("noreverse") == "1",
	}
	targetName := cfg.Target
	if targetName == "" {
		targetName = "vax"
	}
	if !slices.Contains(ggcg.Targets(), targetName) {
		http.Error(w, fmt.Sprintf("ggcd: unknown target %q (registered: %s)",
			cfg.Target, strings.Join(ggcg.Targets(), ", ")), http.StatusBadRequest)
		return
	}
	if ws := q.Get("workers"); ws != "" {
		n, err := strconv.Atoi(ws)
		if err != nil || n < 0 {
			http.Error(w, "ggcd: bad workers parameter", http.StatusBadRequest)
			return
		}
		cfg.Workers = n
	}
	wantJSON := q.Get("format") == "json"
	// Both response formats render from the same cached result; a
	// format=json response's events come from this request's own
	// observer, never from the cache entry.
	cfg.Cache = s.cache

	s.metrics.Count("requests", 1)
	s.metrics.Count("requests.target."+targetName, 1)
	s.metrics.Observe("source.bytes", int64(len(src)))

	// Every request records into its own observer — span events included
	// when the client asked for them — folded into the cumulative store
	// afterwards, exactly like a batch worker shard.
	var events bytes.Buffer
	o := ggcg.NewObserver(ggcg.ObserverConfig{Events: &events})
	cfg.Observer = o

	start := time.Now()
	done := make(chan compiled, 1)
	go func() {
		if s.cfg.compileStarted != nil {
			s.cfg.compileStarted <- struct{}{}
		}
		if s.cfg.compileGate != nil {
			<-s.cfg.compileGate
		}
		out, err := ggcg.Compile(string(src), cfg)
		o.Flush()
		done <- compiled{out: out, o: o, err: err}
	}()

	ctx := r.Context()
	timer := time.NewTimer(s.cfg.Timeout)
	defer timer.Stop()
	var res compiled
	select {
	case res = <-done:
	case <-timer.C:
		s.metrics.Count("timeouts", 1)
		http.Error(w, "ggcd: compile deadline exceeded", http.StatusServiceUnavailable)
		return
	case <-ctx.Done():
		s.metrics.Count("canceled", 1)
		return
	}
	elapsed := time.Since(start)

	s.metrics.Observe("compile.ns", elapsed.Nanoseconds())
	s.metrics.Merge(res.o)
	if res.err != nil {
		s.metrics.Count("errors", 1)
		http.Error(w, "ggcd: "+res.err.Error(), http.StatusUnprocessableEntity)
		return
	}
	s.metrics.Observe("asm.lines", int64(res.out.Stats.AsmLines))

	w.Header().Set("X-Ggcd-Compile-Ns", strconv.FormatInt(elapsed.Nanoseconds(), 10))
	if s.cache != nil {
		state := "miss"
		if res.out.Cached {
			state = "hit"
		}
		w.Header().Set("X-GGCD-Cache", state)
	}
	if !wantJSON {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, res.out.Asm)
		return
	}
	resp := compileResponse{Asm: res.out.Asm, Stats: res.out.Stats, Cached: res.out.Cached}
	dec := json.NewDecoder(bytes.NewReader(events.Bytes()))
	for dec.More() {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			break
		}
		resp.Events = append(resp.Events, raw)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&resp)
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WritePrometheus(w, s.metrics, "ggcd", metricHelp)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	for _, name := range ggcg.Targets() {
		if _, err := ggcg.InfoFor(name); err != nil {
			http.Error(w, "ggcd: tables unavailable: "+err.Error(), http.StatusInternalServerError)
			return
		}
	}
	io.WriteString(w, "ok\n")
}
