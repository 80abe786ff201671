package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"ggcg"
	"ggcg/internal/cfront"
	"ggcg/internal/cgram"
	"ggcg/internal/codegen"
	"ggcg/internal/ir"
	"ggcg/internal/matcher"
	"ggcg/internal/obs"
	"ggcg/internal/obs/traceexport"
	"ggcg/internal/target"
	"ggcg/internal/transform"
)

// nullSem drives the matcher without semantic work, isolating parse time
// (the E6 measurement).
type nullSem struct{}

func (nullSem) Reduce(*cgram.Prod, []matcher.Value) (any, error)    { return nil, nil }
func (nullSem) Predicate(string, *cgram.Prod, []matcher.Value) bool { return false }

// counts are the exact work counts of one pass.
type counts struct {
	trees, nodes, tokens       int64
	shifts, reduces, maxDepth  int64
	spills, asmLines, asmBytes int64
	linesRemoved               int64
}

// traceRun is the traced run: it profiles every layer over the
// workload's pass, from outside the program, and reports the per-layer
// metrics. Spans are recorded through an obs.Observer around the calls
// into each layer, kept in memory and written as a Perfetto trace at the
// end. Each unit's span holds exactly the work ggcg.Compile does:
//
//	unit = cfront (cfront.CompileArena)
//	     + codegen (codegen.Compile, peephole off)
//	     + peep (Machine.Peephole)
//
// The transform, ir (linearize) and matcher (null semantics over the
// linearized tokens) probes run beside the unit span, not inside it, on
// their own freshly built inputs; the semantic routines, register
// manager and emitter are the residual of codegen after them.
func traceRun(ctx context.Context, o options, w workload) (*result, error) {
	res := newResult()
	jobs := w.jobs(o.seed)
	if err := addReferences(jobs); err != nil {
		return nil, err
	}

	// tablegen: the first compile in fresh processes builds the tables.
	_, build, err := measureSetup(ctx, w.targets)
	if err != nil {
		return nil, err
	}
	res.set("tablegen.build_ms", median(build), "ms")
	var states, packed int
	machines := make(map[string]target.Machine)
	matchers := make(map[string]*matcher.Matcher)
	for _, t := range w.targets {
		info, err := ggcg.InfoFor(t)
		if err != nil {
			return nil, err
		}
		states += info.States
		packed += info.PackedTableBytes
		if machines[t], err = target.Lookup(t); err != nil {
			return nil, err
		}
		tables, err := machines[t].Tables()
		if err != nil {
			return nil, err
		}
		matchers[t] = matcher.New(tables, nullSem{})
	}
	res.set("tablegen.states", float64(states), "count")
	res.set("tablegen.packed_bytes", float64(packed), "bytes")

	// The warm-up pass; its output is what every traced unit must
	// reproduce byte for byte.
	want := make([]string, len(jobs))
	for i, j := range jobs {
		out, err := ggcg.Compile(j.src, j.config())
		if err != nil {
			return nil, fmt.Errorf("%s/%s: compile: %w", j.name, j.target, err)
		}
		want[i] = out.Asm
	}

	var events bytes.Buffer
	ob := obs.New(obs.Config{Events: &events})

	// Compile layers, whole passes for a third of the run's seconds. Each
	// unit is first compiled untraced through ggcg.Compile, the baseline
	// of the tracing overhead, then traced through the layers one by one;
	// interleaving the two lets both see the same garbage collector load.
	var c counts
	var traced, untraced []float64
	units := 0
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second / 3)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var pc counts
		for i, j := range jobs {
			t0 := time.Now()
			if _, err := ggcg.Compile(j.src, j.config()); err != nil {
				return nil, fmt.Errorf("%s/%s: compile: %w", j.name, j.target, err)
			}
			untraced = append(untraced, msSince(t0))
			ms, asm, err := probeUnit(ob, j, machines[j.target], matchers[j.target], &pc)
			res.Attempted++
			units++
			switch {
			case err != nil:
				res.fail("%s/%s: %v", j.name, j.target, err)
			case asm != want[i]:
				res.fail("%s/%s: the traced pipeline's output differs from ggcg.Compile", j.name, j.target)
			}
			traced = append(traced, ms)
		}
		if pass == 0 {
			c = pc
		}
	}
	cfrontAllocs, transformAllocs, codegenAllocs := allocPass(jobs, machines)

	// Simulators: every job's output on a fresh machine of its target.
	var steps int64
	for i, j := range jobs {
		sp := ob.Start("run")
		r, err := runSim(ob, j.target, want[i], j.args)
		sp.End()
		res.Attempted++
		steps += r.steps
		switch {
		case err != nil:
			res.fail("%s/%s: run: %v", j.name, j.target, err)
		case r.result != j.want:
			res.fail("%s/%s: main() = %d, reference %d", j.name, j.target, r.result, j.want)
		}
	}

	// ggcd: every job's source twice on a fresh daemon, a miss and a hit.
	d, _, err := startDaemon(ctx, o.ggcd, w.targets)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	var hitUs, missUs, httpUs []float64
	for rep := 0; rep < 2; rep++ {
		for i, j := range jobs {
			t0 := time.Now()
			sp := ob.Start("ggcd.request")
			body, hdr, err := d.compile(ctx, j.src, j.target)
			sp.End()
			clientUs := float64(time.Since(t0).Nanoseconds()) / 1e3
			res.Attempted++
			if err != nil {
				res.fail("%s/%s: ggcd: %v", j.name, j.target, err)
				continue
			}
			if string(body) != want[i] {
				res.fail("%s/%s: ggcd's response differs from ggcg.Compile", j.name, j.target)
			}
			serverNs, _ := strconv.ParseInt(hdr.Get("X-Ggcd-Compile-Ns"), 10, 64)
			serverUs := float64(serverNs) / 1e3
			if hdr.Get("X-GGCD-Cache") == "hit" {
				hitUs = append(hitUs, serverUs)
			} else {
				missUs = append(missUs, serverUs)
			}
			httpUs = append(httpUs, clientUs-serverUs)
		}
	}
	d.stop()

	ph := make(map[string]float64) // span path -> total ns
	for _, p := range ob.Phases() {
		ph[p.Path] = float64(p.Ns)
	}
	perUnit := func(ns float64) float64 { return ns / float64(units) / 1e3 }
	passes := float64(units) / float64(len(jobs))
	n := float64(len(jobs))
	res.set("cfront.us_per_unit", perUnit(ph["unit/cfront"]), "us")
	res.set("cfront.allocs_per_unit", cfrontAllocs/n, "count")
	res.set("cfront.trees_per_pass", float64(c.trees), "count")
	res.set("transform.us_per_unit", perUnit(ph["transform"]), "us")
	res.set("transform.allocs_per_unit", transformAllocs/n, "count")
	res.set("transform.nodes_per_pass", float64(c.nodes), "count")
	res.set("ir.linearize_us_per_unit", perUnit(ph["ir"]), "us")
	res.set("ir.tokens_per_pass", float64(c.tokens), "count")
	res.set("matcher.us_per_unit", perUnit(ph["matcher"]), "us")
	res.set("matcher.ns_per_token", ph["matcher"]/(float64(c.tokens)*passes), "ns")
	res.set("matcher.shifts_per_pass", float64(c.shifts), "count")
	res.set("matcher.reduces_per_pass", float64(c.reduces), "count")
	res.set("matcher.max_depth", float64(c.maxDepth), "count")
	sem := ph["unit/codegen"] - ph["transform"] - ph["ir"] - ph["matcher"]
	res.set("codegen.sem_us_per_unit", perUnit(sem), "us")
	res.set("codegen.allocs_per_unit", (codegenAllocs-transformAllocs)/n, "count")
	res.set("codegen.spills_per_pass", float64(c.spills), "count")
	res.set("codegen.asm_lines_per_pass", float64(c.asmLines), "count")
	res.set("peep.us_per_unit", perUnit(ph["unit/peep"]), "us")
	res.set("peep.lines_removed_per_pass", float64(c.linesRemoved), "count")
	res.set("ggcg.asm_bytes_per_pass", float64(c.asmBytes), "bytes")
	res.set("sim.assemble_us_per_program", ph["run/sim.assemble"]/n/1e3, "us")
	res.set("sim.new_us", ph["run/sim.new"]/n/1e3, "us")
	res.set("sim.exec_ns_per_insn", ph["run/sim.exec"]/float64(steps), "ns")
	res.set("sim.insns_per_pass", float64(steps), "count")
	res.set("ggcd.server_us_hit", median(hitUs), "us")
	res.set("ggcd.server_us_miss", median(missUs), "us")
	res.set("ggcd.http_us", median(httpUs), "us")

	// The ledger: the layers must add up to the spans that enclose them.
	compileSum := (ph["unit/cfront"] + ph["unit/codegen"] + ph["unit/peep"]) / ph["unit"]
	simSum := (ph["run/sim.assemble"] + ph["run/sim.new"] + ph["run/sim.exec"]) / ph["run"]
	res.set("ledger.compile_sum_ratio", compileSum, "ratio")
	res.set("ledger.sim_sum_ratio", simSum, "ratio")
	res.set("ledger.trace_overhead", median(traced)/median(untraced)-1, "ratio")
	res.set("ledger.match_share", ph["matcher"]/ph["unit/codegen"], "ratio")
	for name, v := range map[string]float64{"compile": compileSum, "sim": simSum} {
		if v < 0.9 || v > 1.1 {
			res.problems = append(res.problems, fmt.Sprintf("the %s layers sum to %.3f of their enclosing span, outside [0.9, 1.1]", name, v))
		}
	}
	res.note("%d units in %.0f traced passes of %d, %d programs run, %d ggcd requests (%d hits)",
		units, passes, len(jobs), len(jobs), len(hitUs)+len(missUs), len(hitUs))

	ob.Flush()
	path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
	if err := writeTrace(&events, path); err != nil {
		return nil, err
	}
	res.note("Perfetto trace: %s", path)
	return res, nil
}

// probeUnit compiles one job through the layers one by one, recording a
// span per layer, adds the pass's work counts to c, and returns the unit
// span's duration in ms and the final assembly.
func probeUnit(ob *obs.Observer, j job, mach target.Machine, m *matcher.Matcher, c *counts) (float64, string, error) {
	t0 := time.Now()
	us := ob.Start("unit")
	a := ir.AcquireArena()
	sp := ob.Start("cfront")
	u, err := cfront.CompileArena(j.src, a, nil)
	sp.End()
	if err != nil {
		a.Release()
		us.End()
		return 0, "", err
	}
	sp = ob.Start("codegen")
	cg, err := codegen.Compile(u, codegen.Options{Arena: a, Target: mach})
	sp.End()
	if err != nil {
		a.Release()
		us.End()
		return 0, "", err
	}
	sp = ob.Start("peep")
	asm, pst := mach.Peephole(cg.Asm)
	sp.End()
	a.Release()
	us.End()
	ms := msSince(t0)

	s := cg.Stats
	c.shifts += int64(s.Matcher.Shifts)
	c.reduces += int64(s.Matcher.Reduces)
	c.maxDepth = max(c.maxDepth, int64(s.Matcher.MaxDepth))
	c.spills += int64(s.Spills)
	c.asmLines += int64(s.AsmLines)
	c.linesRemoved += int64(pst.LinesRemoved)
	c.asmBytes += int64(len(asm))

	b := ir.AcquireArena()
	defer b.Release()
	u, err = cfront.CompileArena(j.src, b, nil)
	if err != nil {
		return 0, "", err
	}
	for _, f := range u.Funcs {
		for _, it := range f.Items {
			if it.Kind == ir.ItemTree {
				c.trees++
			}
		}
	}
	sp = ob.Start("transform")
	tu, err := transform.UnitArena(u, transform.Options{}, b)
	sp.End()
	if err != nil {
		return 0, "", err
	}
	var streams [][]ir.Token
	sp = ob.Start("ir")
	for _, f := range tu.Funcs {
		for _, it := range f.Items {
			if it.Kind == ir.ItemTree {
				streams = append(streams, ir.Linearize(it.Tree))
			}
		}
	}
	sp.End()
	sp = ob.Start("matcher")
	for _, toks := range streams {
		if _, err = m.Match(toks); err != nil {
			break
		}
	}
	sp.End()
	if err != nil {
		return 0, "", fmt.Errorf("matcher with null semantics: %w", err)
	}
	for _, f := range tu.Funcs {
		for _, it := range f.Items {
			if it.Kind == ir.ItemTree {
				it.Tree.Walk(func(*ir.Node) bool { c.nodes++; return true })
			}
		}
	}
	for _, toks := range streams {
		c.tokens += int64(len(toks))
	}
	return ms, asm, nil
}

// allocPass counts heap allocations per layer over one pass, apart from
// the timed passes since reading the counter stops the world. The counts
// repeat exactly because the pass runs on one processor with the
// collector off, after a pass that refills the pools: a collection
// empties every sync.Pool, and a goroutine that moves to another
// processor misses the pooled objects of the one it left.
func allocPass(jobs []job, machines map[string]target.Machine) (cfrontN, transformN, codegenN float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	mallocs := func() float64 {
		runtime.ReadMemStats(&ms)
		return float64(ms.Mallocs)
	}
	for pass := 0; pass < 2; pass++ {
		cfrontN, transformN, codegenN = 0, 0, 0
		for _, j := range jobs {
			a := ir.AcquireArena()
			m0 := mallocs()
			u, err := cfront.CompileArena(j.src, a, nil)
			m1 := mallocs()
			if err == nil {
				codegen.Compile(u, codegen.Options{Arena: a, Target: machines[j.target]})
			}
			m2 := mallocs()
			a.Release()
			cfrontN += m1 - m0
			codegenN += m2 - m1

			b := ir.AcquireArena()
			if u, err = cfront.CompileArena(j.src, b, nil); err == nil {
				m3 := mallocs()
				transform.UnitArena(u, transform.Options{}, b)
				transformN += mallocs() - m3
			}
			b.Release()
		}
	}
	return cfrontN, transformN, codegenN
}

// writeTrace converts the in-memory obs event stream to a Perfetto
// (Chrome trace_event) file.
func writeTrace(events *bytes.Buffer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := traceexport.Convert(events, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
