package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"ggcg"
	"ggcg/bench/kernels"
)

// kernelJobs is the run-kernels pass: two kernels of each kind, each run
// once on each target.
func kernelJobs(seed int64) []job {
	var jobs []job
	for _, k := range kernels.Generate(seed, 2*len(kernels.Kinds)) {
		for _, t := range []string{"vax", "risc"} {
			jobs = append(jobs, job{name: k.Name, src: k.Src, target: t})
		}
	}
	return jobs
}

// timeKernels is the run-kernels loop. The kernels are compiled once
// during set-up, so the timed loop measures only the simulators: each
// operation assembles a kernel, creates a fresh machine, runs main and
// checks its result, alternating targets.
//
// The workload's unit of work is a million simulated instructions:
// ops_per_s is simulated M instructions per second and the op_ms
// quantiles are over each run's time per M instructions, so kernels of
// different sizes weigh alike and the seed moves the numbers little.
func timeKernels(ctx context.Context, o options, w workload) (*result, error) {
	res := newResult()
	jobs := w.jobs(o.seed)
	if err := addReferences(jobs); err != nil {
		return nil, err
	}
	setup, _, err := measureSetup(ctx, w.targets)
	if err != nil {
		return nil, err
	}
	asm := make([]string, len(jobs))
	steps := make([]int64, len(jobs))
	var perPass int64
	codeBytes := 0
	for i, j := range jobs {
		out, err := ggcg.Compile(j.src, j.config())
		if err != nil {
			return nil, fmt.Errorf("compiling %s for %s: %w", j.name, j.target, err)
		}
		asm[i] = out.Asm
		codeBytes += len(asm[i])
		// The warm-up run fixes each kernel's exact instruction count,
		// which every timed run must repeat.
		steps[i] = checkRun(res, j, asm[i]).steps
		perPass += steps[i]
	}

	lat := make([]float64, 0, 4096)
	var passes []float64
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for len(passes) == 0 || time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := time.Now()
		for i, j := range jobs {
			t0 := time.Now()
			r, err := runSim(nil, j.target, asm[i], nil)
			ms := msSince(t0)
			res.Attempted++
			switch {
			case err != nil:
				lat = append(lat, math.Inf(1))
				res.fail("%s/%s: run: %v", j.name, j.target, err)
			case r.result != j.want || r.steps != steps[i]:
				lat = append(lat, math.Inf(1))
				res.fail("%s/%s: main() = %d in %d instructions, want %d in %d",
					j.name, j.target, r.result, r.steps, j.want, steps[i])
			default:
				lat = append(lat, ms/(float64(r.steps)/1e6))
			}
		}
		passes = append(passes, time.Since(start).Seconds())
	}
	rss, err := peakRSS(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.endToEnd(float64(perPass)/1e6/median(passes), lat, setup, rss, float64(codeBytes)/float64(len(jobs)))
	res.note("an op is 1 M simulated instructions; %d kernel runs per pass (%d instructions), %d passes",
		len(jobs), perPass, len(passes))
	return res, nil
}
