// Ggbench is the repository benchmark. It generates seeded inputs, drives
// each layer of the code generator only through that layer's public
// functions, checks every output against the IR interpreter
// (internal/irinterp, which shares no code with the code generators), and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"setup_s": {"value": 0.31, "unit": "s"}, ...}}
//
// Usage (bench/run.sh builds ggbench and ggcd first and passes -ggcd):
//
//	ggbench -workload compile-vax -seed 1 -seconds 20 -trace 0 -ggcd PATH [-trace-dir DIR]
//
// With -trace 0 the run times the workload and reports the end-to-end
// metrics; with -trace 1 it profiles every layer over the workload's
// inputs instead, reports the per-layer metrics, and writes a Perfetto
// trace of its spans into -trace-dir. See bench/README.md for the
// workloads and what each metric is predicted to move.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ggcg"
	"ggcg/internal/cfront"
	"ggcg/internal/irinterp"
)

// procs is the processor count the bench and its ggcd child run with:
// the closed loops below use at most this many threads and connections.
const procs = 2

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	ggcd     string // ggcd binary; every workload's traced run and daemon-mix need it
	traceDir string // where a traced run writes its Perfetto trace
}

// workload is one set of inputs and the loop that drives them. jobs is the
// pass the traced run profiles; timed runs the untraced measurement.
type workload struct {
	name    string
	targets []string
	jobs    func(seed int64) []job
	timed   func(ctx context.Context, o options, w workload) (*result, error)
}

var workloads = []workload{
	{name: "compile-vax", targets: []string{"vax"}, jobs: compileJobs("vax"), timed: timeCompile},
	{name: "compile-risc", targets: []string{"risc"}, jobs: compileJobs("risc"), timed: timeCompile},
	{name: "run-kernels", targets: []string{"vax", "risc"}, jobs: kernelJobs, timed: timeKernels},
	{name: "daemon-mix", targets: []string{"vax", "risc"}, jobs: daemonJobs, timed: timeDaemon},
}

// job is one compilation of one source for one target, with the result
// its main(args...) must return according to the reference interpreter.
type job struct {
	name   string
	src    string
	args   []int64
	target string
	want   int64
}

// config is the compile configuration every workload measures: the
// table-driven generator with the peephole pass, sequential, uncached.
func (j job) config() ggcg.Config { return ggcg.Config{Target: j.target, Peephole: true} }

// addReferences runs every distinct source on the IR interpreter and
// records the result each job's compiled main must reproduce.
func addReferences(jobs []job) error {
	memo := make(map[string]int64)
	for i := range jobs {
		key := jobs[i].src + fmt.Sprint(jobs[i].args)
		want, ok := memo[key]
		if !ok {
			u, err := cfront.Compile(jobs[i].src)
			if err != nil {
				return fmt.Errorf("%s: front end: %w", jobs[i].name, err)
			}
			if want, err = irinterp.New(u).Call("main", jobs[i].args...); err != nil {
				return fmt.Errorf("%s: reference interpreter: %w", jobs[i].name, err)
			}
			memo[key] = want
		}
		jobs[i].want = want
	}
	return nil
}

func main() {
	var o options
	var trace int
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer profile instead of the timed phase")
	flag.StringVar(&o.ggcd, "ggcd", "", "path of the ggcd binary")
	flag.StringVar(&o.traceDir, "trace-dir", ".bench_build/traces", "directory the traced run writes its Perfetto trace into")
	probe := flag.String("probe", "", "compile a one-line program for each comma-separated target, print the times and exit (the set-up child)")
	flag.Parse()
	runtime.GOMAXPROCS(procs)

	if *probe != "" {
		if err := runProbe(strings.Split(*probe, ",")); err != nil {
			fmt.Fprintln(os.Stderr, "ggbench: probe:", err)
			os.Exit(1)
		}
		return
	}
	o.trace = trace != 0
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil || o.seconds < 1 || trace < 0 || trace > 1 {
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	var res *result
	var err error
	if o.trace {
		res, err = traceRun(ctx, o, *w)
	} else {
		res, err = w.timed(ctx, o, *w)
	}
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ggbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := res.print(); err != nil {
		fmt.Fprintln(os.Stderr, "ggbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// runProbe is the set-up child: a fresh process that compiles a one-line
// program for each target, which builds that target's tables lazily, and
// prints how long each first compile took in milliseconds.
func runProbe(targets []string) error {
	ms := make(map[string]float64)
	for _, t := range targets {
		start := time.Now()
		if _, err := ggcg.Compile("int main() { return 0; }", ggcg.Config{Target: t}); err != nil {
			return err
		}
		ms[t] = msSince(start)
	}
	return json.NewEncoder(os.Stdout).Encode(ms)
}

// setupRuns is how many fresh set-up children a run times; setup_s is
// their median, since a single table build varies by tens of percent.
const setupRuns = 9

// measureSetup runs the set-up child setupRuns times. It returns the wall
// time of each child from exec to exit (the set-up a user of the compiler
// pays once per process) and each child's summed first-compile time.
func measureSetup(ctx context.Context, targets []string) (wall, firstCompile []float64, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < setupRuns; i++ {
		cmd := exec.CommandContext(ctx, self, "-probe", strings.Join(targets, ","))
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
		cmd.Stderr = os.Stderr
		start := time.Now()
		out, err := cmd.Output()
		wall = append(wall, time.Since(start).Seconds())
		if err != nil {
			return nil, nil, fmt.Errorf("set-up child: %w", err)
		}
		var ms map[string]float64
		if err := json.Unmarshal(out, &ms); err != nil {
			return nil, nil, fmt.Errorf("set-up child output: %w", err)
		}
		sum := 0.0
		for _, t := range targets {
			sum += ms[t]
		}
		firstCompile = append(firstCompile, sum)
	}
	return wall, firstCompile, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's report: the JSON object of the last output
// line, plus sample counts and check failures printed before it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes    []string // sample counts and other context, printed before the JSON
	problems []string // why Correct is false
}

func newResult() *result { return &result{Metrics: make(map[string]metric)} }

func (r *result) set(name string, v float64, unit string) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		// A failed attempt counts as an infinite latency; JSON has no
		// infinity, so report the largest finite number instead.
		r.note("%s is not finite (%v); reported as the largest float64", name, v)
		v = math.Copysign(math.MaxFloat64, v)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed attempt and why.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) print() error {
	r.Correct = r.Failed == 0 && len(r.problems) == 0
	w := bufio.NewWriter(os.Stdout)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	w.Write(line)
	w.WriteByte('\n')
	return w.Flush()
}

// endToEnd sets the end-to-end metrics every workload reports: the
// workload's operations per second, the quantiles of the per-operation
// latencies lat in ms (a failed operation is +Inf), the median of the
// set-up samples in seconds, rss, the peak resident set of the process
// that did the work, and codeBytes, the mean size of the assembly the
// workload's compilations produced.
func (r *result) endToEnd(opsPerSec float64, lat, setup []float64, rss, codeBytes float64) {
	r.set("setup_s", median(setup), "s")
	r.set("ops_per_s", opsPerSec, "ops/s")
	r.set("op_ms_p50", quantile(lat, 0.50), "ms")
	r.set("op_ms_p99", quantile(lat, 0.99), "ms")
	r.set("peak_rss_mb", rss, "MiB")
	r.set("code_bytes_per_unit", codeBytes, "bytes")
	r.note("%d latency samples (%d beyond p99), %d set-up samples", len(lat), len(lat)/100, len(setup))
}

// quantile interpolates linearly between the closest ranks of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 { // exact rank: never multiply 0 by an infinite neighbour
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// peakRSS reads the peak resident set size (VmHWM) of a process in MiB.
func peakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}
