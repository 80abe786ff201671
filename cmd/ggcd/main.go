// Ggcd is the compile daemon: a long-running HTTP service that compiles
// the C dialect to VAX assembly over the shared tables and surfaces the
// pipeline's instrumentation as standard operational telemetry. It is the
// service form of the paper's economics: the static half (table
// construction) was paid once, offline, when the tables were generated;
// startup only loads them and every request pays only the table-driven
// walk.
//
// Endpoints:
//
//	POST /compile        source in the body, assembly out.
//	                     Query: target=name (backend to generate for,
//	                     default vax; unknown names get 400 with the
//	                     registered list), peephole=1, baseline=1,
//	                     noreverse=1, workers=N (per-unit function
//	                     parallelism), format=json (JSON response with
//	                     stats, "cached" (a cache hit, which compiled
//	                     nothing) and the request's span events instead
//	                     of bare assembly).
//	                     With the compile cache enabled (the default),
//	                     repeated identical requests are served from a
//	                     content-addressed store — concurrent duplicates
//	                     coalesce onto one compile — and each response
//	                     carries an X-GGCD-Cache: hit|miss header.
//	GET  /metrics        Prometheus text exposition: cumulative request
//	                     and pipeline counters (including per-target
//	                     request and unit series), latency histograms
//	                     with p50/p90/p99, per-phase span aggregates,
//	                     table coverage
//	GET  /healthz        liveness (also verifies every target's tables
//	                     are built)
//	GET  /debug/pprof/   runtime profiles
//
// Usage:
//
//	ggcd [-addr :8421] [-timeout 10s] [-drain 5s] [-max-source 1048576]
//	     [-cache-entries 4096] [-cache-bytes 67108864]
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: listeners close,
// in-flight requests get -drain to finish.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ggcg"
)

func main() {
	var (
		addr         = flag.String("addr", ":8421", "listen address")
		timeout      = flag.Duration("timeout", 10*time.Second, "per-request compile timeout")
		drain        = flag.Duration("drain", 5*time.Second, "graceful-shutdown drain window")
		maxSource    = flag.Int64("max-source", 1<<20, "maximum request body size in bytes")
		cacheEntries = flag.Int("cache-entries", 4096, "compile cache entry bound (0 disables the cache)")
		cacheBytes   = flag.Int64("cache-bytes", 64<<20, "compile cache byte budget")
	)
	flag.Parse()

	// Build every target's shared tables before accepting traffic, so no
	// target's first request is charged for the static half and a broken
	// machine description fails fast at startup.
	start := time.Now()
	targets := ggcg.Targets()
	for _, name := range targets {
		if _, err := ggcg.InfoFor(name); err != nil {
			log.Fatalf("ggcd: building %s tables: %v", name, err)
		}
	}
	log.Printf("ggcd: tables built for %s in %v", strings.Join(targets, ", "), time.Since(start).Round(time.Millisecond))

	d := newDaemon(serverConfig{
		Timeout: *timeout, MaxSource: *maxSource,
		CacheEntries: *cacheEntries, CacheBytes: *cacheBytes,
	}, *drain)
	if *cacheEntries > 0 {
		log.Printf("ggcd: compile cache: %d entries / %d bytes", *cacheEntries, *cacheBytes)
	} else {
		log.Printf("ggcd: compile cache disabled")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("ggcd: listen: %v", err)
	}
	log.Printf("ggcd: listening on %s", *addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err = d.serve(ctx, ln)
	if ctx.Err() == nil {
		log.Fatalf("ggcd: serve: %v", err)
	}
	stop()
	if err != nil {
		log.Printf("ggcd: drain incomplete: %v", err)
		os.Exit(1)
	}
	log.Printf("ggcd: served %d compile requests", d.srv.metrics.Counter("requests"))
}
