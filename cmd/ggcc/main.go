// Ggcc compiles a small dialect of C to assembly for a registered target
// machine (the VAX by default; -target selects another, e.g. risc) using
// the table-driven Graham-Glanville code generator (or, with -baseline,
// the hand-written ad hoc VAX generator it is compared against),
// optionally executing the result on the target's bundled simulator.
//
// With several input files ggcc becomes a batch compiler: the units are
// compiled concurrently by -j workers over the shared once-built tables
// and the assembly is written in input order; -stats then also reports
// aggregate throughput (units/sec, trees/sec).
//
// Usage:
//
//	ggcc [flags] file.c [file2.c ...]
//
//	-S            write assembly to stdout (default when not running)
//	-target name  generate code for the named backend (default vax);
//	              -run executes on that target's simulator
//	-o file       write assembly to file (single input only)
//	-j N          number of parallel workers (0 = GOMAXPROCS); with one
//	              input file the workers compile its functions
//	-baseline     use the ad hoc baseline code generator
//	-no-reverse   disable the reverse-operator reordering (§5.1.3)
//	-trace        print the pattern matcher's shift/reduce actions
//	              (single input only)
//	-run          assemble and execute main(), printing its result
//	              (single input only)
//	-stats        print code-generation statistics (and, for a batch,
//	              aggregate throughput)
//	-cache        serve duplicate units from a content-addressed
//	              compile-result cache: in a batch, identical units
//	              compile once (concurrent duplicates coalesce onto a
//	              single compile); -stats adds a hit-rate line
//	-profile      print the instrumentation report (phase spans, counters,
//	              histograms, coverage, execution profile) to stderr
//	-coverage     print machine-description table coverage (productions
//	              fired, states visited, never-fired productions)
//	-events file  write the structured JSONL event stream to file
//	-tracefile f  write a Chrome trace_event timeline to f; open it in
//	              ui.perfetto.dev (with -j, one track per worker)
//	-allocs       measure per-span heap allocation deltas, rendered as
//	              "allocated bytes" counter tracks in -tracefile
//
// Output files (-o, -events, -tracefile) are created before compilation
// starts, so an unwritable path fails immediately with a non-zero exit
// rather than after a long batch; they are flushed and closed on every
// exit path, including compile failures.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"ggcg"
	"ggcg/internal/obs/traceexport"
)

func main() {
	var (
		outFile   = flag.String("o", "", "write assembly to `file` (single input only)")
		targetFlg = flag.String("target", "", "code generation `target` (default vax; see ggcg.Targets)")
		jobs      = flag.Int("j", 0, "parallel workers (0 = GOMAXPROCS)")
		baseline  = flag.Bool("baseline", false, "use the ad hoc baseline code generator")
		optimize  = flag.Bool("O", false, "run the peephole optimizer over the output")
		noReverse = flag.Bool("no-reverse", false, "disable reverse binary operators")
		trace     = flag.Bool("trace", false, "print pattern matcher actions (single input only)")
		run       = flag.Bool("run", false, "assemble and execute main() (single input only)")
		stats     = flag.Bool("stats", false, "print code-generation statistics")
		profile   = flag.Bool("profile", false, "print the instrumentation report to stderr")
		coverage  = flag.Bool("coverage", false, "print table coverage (productions fired, states visited)")
		useCache  = flag.Bool("cache", false, "serve duplicate units from a compile-result cache (hit rate reported by -stats)")
		events    = flag.String("events", "", "write JSONL instrumentation events to `file`")
		traceFile = flag.String("tracefile", "", "write a Chrome/Perfetto trace_event timeline to `file`")
		allocs    = flag.Bool("allocs", false, "measure per-span heap allocation deltas (adds counter tracks to -tracefile; process-global, so parallel workers attribute each other's allocations)")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: ggcc [flags] file.c [file2.c ...]")
		flag.Usage()
		os.Exit(2)
	}
	opts := options{
		outFile: *outFile, target: *targetFlg, jobs: *jobs, baseline: *baseline, optimize: *optimize,
		noReverse: *noReverse, trace: *trace, run: *run, stats: *stats,
		profile: *profile, coverage: *coverage, events: *events, traceFile: *traceFile,
		allocs: *allocs, cache: *useCache,
	}
	if err := compile(opts, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "ggcc:", err)
		os.Exit(1)
	}
}

type options struct {
	outFile, target               string
	jobs                          int
	baseline, optimize, noReverse bool
	trace, run, stats             bool
	profile, coverage, allocs     bool
	cache                         bool
	events, traceFile             string
}

func compile(opts options, files []string) (err error) {
	batch := len(files) > 1
	if batch {
		for name, on := range map[string]bool{"-trace": opts.trace, "-run": opts.run, "-o": opts.outFile != ""} {
			if on {
				return fmt.Errorf("%s applies to a single input file, got %d", name, len(files))
			}
		}
	}
	srcs := make([]string, len(files))
	for i, f := range files {
		data, rerr := os.ReadFile(f)
		if rerr != nil {
			return rerr
		}
		srcs[i] = string(data)
	}

	// Create every output sink up front: a path that cannot be created
	// must fail the run before any compilation happens, not produce a
	// silent partial result at the end.
	var o *ggcg.Observer
	var eventsFile *os.File
	var traceBuf *bytes.Buffer
	if opts.trace || opts.profile || opts.coverage || opts.events != "" || opts.traceFile != "" {
		cfg := ggcg.ObserverConfig{
			TrackAllocs: opts.allocs || (opts.profile && !batch && opts.jobs <= 1),
		}
		var sinks []io.Writer
		if opts.events != "" {
			eventsFile, err = os.Create(opts.events)
			if err != nil {
				return fmt.Errorf("creating -events file: %w", err)
			}
			sinks = append(sinks, eventsFile)
		}
		if opts.traceFile != "" {
			// Probe the trace path now; the converted trace itself is
			// written from the buffered event stream after the run.
			probe, perr := os.Create(opts.traceFile)
			if perr != nil {
				err = fmt.Errorf("creating -tracefile: %w", perr)
				return err
			}
			probe.Close()
			traceBuf = &bytes.Buffer{}
			sinks = append(sinks, traceBuf)
		}
		if len(sinks) > 0 {
			cfg.Events = io.MultiWriter(sinks...)
			cfg.TraceEvents = opts.trace
		}
		o = ggcg.NewObserver(cfg)
		if opts.trace {
			o.SetTraceSink(func(e ggcg.TraceEvent) { fmt.Fprintln(os.Stderr, e.String()) })
		}
	}

	// Whatever happens below — including a failed compile — the observer
	// is flushed, the trace is converted, and the event file is closed;
	// sink errors surface on the exit status instead of vanishing.
	defer func() {
		if o != nil {
			o.Flush()
		}
		if traceBuf != nil {
			err = errors.Join(err, writeTrace(opts.traceFile, traceBuf))
		}
		if eventsFile != nil {
			if cerr := eventsFile.Close(); cerr != nil {
				err = errors.Join(err, fmt.Errorf("closing -events file: %w", cerr))
			}
		}
	}()

	cfg := ggcg.Config{Target: opts.target, Baseline: opts.baseline, NoReverseOps: opts.noReverse, Peephole: opts.optimize, Observer: o}
	var cache *ggcg.Cache
	if opts.cache {
		// The observer (when any instrumentation flag is set) receives
		// the cache counters alongside everything else; the -stats hit
		// rate below reads the cache's own snapshot either way.
		cache = ggcg.NewCache(ggcg.CacheConfig{Metrics: o})
		cfg.Cache = cache
	}

	var outs []*ggcg.Compiled
	var elapsed time.Duration
	if batch {
		start := time.Now()
		res, berr := ggcg.CompileBatch(srcs, ggcg.BatchConfig{Workers: opts.jobs, Config: cfg})
		elapsed = time.Since(start)
		if berr != nil {
			return berr
		}
		outs = res
	} else {
		cfg.Workers = opts.jobs
		start := time.Now()
		out, cerr := ggcg.Compile(srcs[0], cfg)
		elapsed = time.Since(start)
		if cerr != nil {
			return cerr
		}
		outs = []*ggcg.Compiled{out}
	}

	if opts.stats {
		var agg ggcg.Stats
		for _, out := range outs {
			s := out.Stats
			agg.Trees += s.Trees
			agg.Shifts += s.Shifts
			agg.Reduces += s.Reduces
			agg.Spills += s.Spills
			agg.BindingIdioms += s.BindingIdioms
			agg.RangeIdioms += s.RangeIdioms
			agg.AsmLines += s.AsmLines
		}
		fmt.Fprintf(os.Stderr,
			"trees %d  shifts %d  reduces %d  spills %d  binding idioms %d  range idioms %d  asm lines %d\n",
			agg.Trees, agg.Shifts, agg.Reduces, agg.Spills, agg.BindingIdioms, agg.RangeIdioms, agg.AsmLines)
		if batch {
			secs := elapsed.Seconds()
			fmt.Fprintf(os.Stderr, "batch: %d units in %v with %d workers: %.0f units/sec, %.0f trees/sec\n",
				len(outs), elapsed.Round(time.Microsecond), batchWorkers(opts.jobs, len(outs)),
				float64(len(outs))/secs, float64(agg.Trees)/secs)
		}
		if cache != nil {
			st := cache.Stats()
			rate := 0.0
			if total := st.Hits + st.Misses; total > 0 {
				rate = 100 * float64(st.Hits) / float64(total)
			}
			fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses, %d coalesced, %d evictions (%.0f%% hit rate)\n",
				st.Hits, st.Misses, st.Coalesced, st.Evictions, rate)
		}
	}

	switch {
	case opts.outFile != "":
		if werr := os.WriteFile(opts.outFile, []byte(outs[0].Asm), 0o644); werr != nil {
			return werr
		}
	case !opts.run:
		for _, out := range outs {
			fmt.Print(out.Asm)
		}
	}
	if opts.run {
		asp := o.Start("assemble")
		s, merr := ggcg.NewSim(opts.target, outs[0].Asm)
		asp.End()
		if merr != nil {
			return merr
		}
		s.EnableFuncProfile()
		esp := o.Start("execute")
		r, rerr := s.Call("_main")
		esp.End()
		if rerr != nil {
			return rerr
		}
		o.AddSim(s.Profile())
		fmt.Printf("main() = %d (%d instructions executed)\n", r, s.Steps())
	}

	if o != nil {
		switch {
		case opts.profile:
			o.WriteReport(os.Stderr)
		case opts.coverage:
			if p, _ := o.CoverageUniverse(); p == 0 {
				fmt.Fprintln(os.Stderr, "ggcc: no table coverage recorded (-baseline does not use the tables)")
			}
			o.WriteCoverage(os.Stderr)
		}
	}
	return nil
}

// writeTrace converts the buffered JSONL event stream into a trace_event
// timeline at path.
func writeTrace(path string, events *bytes.Buffer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating -tracefile: %w", err)
	}
	cerr := traceexport.Convert(bytes.NewReader(events.Bytes()), f)
	if err := f.Close(); err != nil && cerr == nil {
		cerr = fmt.Errorf("closing -tracefile: %w", err)
	}
	return cerr
}

// batchWorkers mirrors CompileBatch's worker-count clamp for reporting.
func batchWorkers(jobs, units int) int {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > units {
		jobs = units
	}
	return jobs
}
