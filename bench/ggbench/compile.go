package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"ggcg"
	"ggcg/internal/corpus"
	"ggcg/internal/obs"
	"ggcg/internal/progen"
	"ggcg/internal/riscsim"
	"ggcg/internal/vaxsim"
)

// Sizes of one compile pass: random progen units, synthetic large units
// and the whole validation corpus.
const (
	progenUnits = 160
	largeUnits  = 20
)

// compileJobs returns the compile-* pass for one target. The large units
// are drawn one per stratum of [20, 60] functions, so every seed's pass
// has nearly the same total size and the throughput differs between
// seeds only by the inputs' shapes, not by their sum.
func compileJobs(target string) func(seed int64) []job {
	return func(seed int64) []job {
		r := rand.New(rand.NewSource(seed))
		var jobs []job
		for i := 0; i < progenUnits; i++ {
			s := r.Int63()
			jobs = append(jobs, job{name: fmt.Sprintf("progen/%d", s), src: progen.Generate(s).Render(), target: target})
		}
		for i := 0; i < largeUnits; i++ {
			n := 20 + 2*i + r.Intn(3)
			jobs = append(jobs, job{name: fmt.Sprintf("large/%d", n), src: corpus.Large(n), target: target})
		}
		for _, p := range corpus.Programs() {
			jobs = append(jobs, job{name: "corpus/" + p.Name, src: p.Src, args: p.Args, target: target})
		}
		return jobs
	}
}

// timeCompile is the compile-* loop: one caller compiling the pass over
// and over through ggcg.Compile, whole passes until the time is up.
func timeCompile(ctx context.Context, o options, w workload) (*result, error) {
	res := newResult()
	jobs := w.jobs(o.seed)
	if err := addReferences(jobs); err != nil {
		return nil, err
	}
	setup, _, err := measureSetup(ctx, w.targets)
	if err != nil {
		return nil, err
	}

	// The warm-up pass fills the lazy tables, pools and interners, and
	// its output is what every later pass must reproduce byte for byte.
	warm := make([]string, len(jobs))
	for i, j := range jobs {
		out, err := ggcg.Compile(j.src, j.config())
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", j.name, err)
		}
		warm[i] = out.Asm
	}

	last := append([]string(nil), warm...)
	lat := make([]float64, 0, 64*1024)
	var passes []float64
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for len(passes) == 0 || time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := time.Now()
		for i, j := range jobs {
			t0 := time.Now()
			out, err := ggcg.Compile(j.src, j.config())
			res.Attempted++
			if err != nil {
				lat = append(lat, math.Inf(1))
				res.fail("%s: compile: %v", j.name, err)
				continue
			}
			lat = append(lat, msSince(t0))
			last[i] = out.Asm
		}
		passes = append(passes, time.Since(start).Seconds())
	}
	rss, err := peakRSS(os.Getpid())
	if err != nil {
		return nil, err
	}

	// Every distinct unit's output from the last pass runs on the
	// target's simulator against the reference.
	codeBytes := 0
	for i, j := range jobs {
		if last[i] != warm[i] {
			res.fail("%s: output of the last pass differs from the warm-up pass", j.name)
		}
		checkRun(res, j, last[i])
		codeBytes += len(last[i])
	}
	res.endToEnd(float64(len(jobs))/median(passes), lat, setup, rss, float64(codeBytes)/float64(len(jobs)))
	res.note("%d units per pass, %d passes", len(jobs), len(passes))
	return res, nil
}

// checkRun executes a job's compiled output and records a failure unless
// main returns the reference result.
func checkRun(res *result, j job, asm string) simRun {
	r, err := runSim(nil, j.target, asm, j.args)
	switch {
	case err != nil:
		res.fail("%s/%s: run: %v", j.name, j.target, err)
	case r.result != j.want:
		res.fail("%s/%s: main() = %d, reference %d", j.name, j.target, r.result, j.want)
	}
	return r
}

// simRun is one execution of a program on a fresh simulated machine.
type simRun struct {
	steps  int64 // simulated instructions
	result int64 // main's return value
}

// runSim assembles asm for the target's simulator, creates a fresh
// machine and runs main, recording each step as a span when o is non-nil.
// A fresh machine per run matters: a reused one accumulates its step
// count across calls until every call fails on the step limit.
func runSim(o *obs.Observer, target, asm string, args []int64) (simRun, error) {
	sp := o.Start("sim.assemble")
	switch target {
	case "vax":
		p, err := vaxsim.Assemble(asm)
		sp.End()
		if err != nil {
			return simRun{}, err
		}
		sp = o.Start("sim.new")
		m := vaxsim.New(p)
		sp.End()
		sp = o.Start("sim.exec")
		v, err := m.Call("_main", args...)
		sp.End()
		return simRun{steps: m.Steps, result: v}, err
	case "risc":
		p, err := riscsim.Assemble(asm)
		sp.End()
		if err != nil {
			return simRun{}, err
		}
		sp = o.Start("sim.new")
		m := riscsim.New(p)
		sp.End()
		sp = o.Start("sim.exec")
		v, err := m.Call("_main", args...)
		sp.End()
		return simRun{steps: m.Steps, result: v}, err
	}
	sp.End()
	return simRun{}, fmt.Errorf("no simulator for target %q", target)
}
