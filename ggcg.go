// Package ggcg is a reproduction of "An Experiment in Table Driven Code
// Generation" (Graham, Henry, Schulman; PLDI 1982): a Graham-Glanville
// local code generator for the VAX-11 in which instructions are selected by
// an SLR(1)-style shift/reduce pattern matcher driven by tables constructed
// automatically from a machine description grammar.
//
// The package compiles a small dialect of C to VAX assembly with either the
// table-driven code generator or a hand-written ad hoc baseline in the
// style of the Portable C Compiler's second pass, and can execute the
// generated assembly on a bundled VAX-subset simulator. See DESIGN.md for
// the system inventory and EXPERIMENTS.md for the reproduced measurements.
//
//	out, err := ggcg.Compile(`int main() { return 6 * 7; }`, ggcg.Config{})
//	...
//	s, err := ggcg.NewSim("vax", out.Asm)
//	r, err := s.Call("_main")   // r == 42
package ggcg

import (
	"fmt"

	"ggcg/internal/cfront"
	"ggcg/internal/codegen"
	"ggcg/internal/ir"
	"ggcg/internal/obs"
	"ggcg/internal/pcc"
	"ggcg/internal/peep"
	_ "ggcg/internal/risc" // register the RISC-subset backend
	"ggcg/internal/tablegen"
	"ggcg/internal/target"
	"ggcg/internal/transform"
	"ggcg/internal/vax"
)

// Observer is the unified instrumentation hook: hierarchical phase spans,
// counters and histograms, table coverage (productions fired, SLR states
// visited) and simulator execution profiles, exportable as JSONL events
// and a human-readable report. A nil *Observer disables everything; see
// internal/obs for the event schema.
type Observer = obs.Observer

// ObserverConfig configures a new Observer.
type ObserverConfig = obs.Config

// ObsEvent is the JSONL event record an Observer emits; a stream of them
// round-trips through encoding/json.
type ObsEvent = obs.Event

// TraceEvent is one pattern-matcher action (shift, reduce or accept).
// An Observer's trace sink (SetTraceSink) receives them; String renders
// one line of the paper's appendix-style listing.
type TraceEvent = obs.TraceEvent

// SimProfile is the dynamic execution profile of the simulator.
type SimProfile = obs.SimProfile

// Hist is a snapshot of an Observer histogram: power-of-two
// buckets plus p50/p90/p99 quantile estimates.
type Hist = obs.Hist

// NewObserver returns an enabled instrumentation observer.
func NewObserver(cfg ObserverConfig) *Observer { return obs.New(cfg) }

// Config selects how a program is compiled.
type Config struct {
	// Target names the backend the table-driven generator drives: one of
	// Targets(), empty meaning "vax" — the machine of the paper's
	// experiment. An unknown name errors, listing the registered targets.
	// The baseline generator is a hand-written VAX second pass and
	// rejects any other target.
	Target string

	// Baseline selects the hand-written ad hoc code generator (the PCC
	// second-pass stand-in) instead of the table-driven one.
	Baseline bool

	// NoReverseOps disables the reverse binary operators of the
	// evaluation-ordering heuristic (§5.1.3), the E4 ablation.
	NoReverseOps bool

	// Peephole runs the assembly-level peephole optimizer over the
	// output, the alternative organization §6.1 of the paper discusses.
	// It applies to both generators.
	Peephole bool

	// Observer, if non-nil, instruments the whole compilation: phase
	// spans, counters, histograms and table coverage accumulate into it.
	// Observers are safe for concurrent use; CompileBatch and the
	// per-function parallel path record through per-worker shards so hot
	// paths never contend. An observer with a trace sink (SetTraceSink)
	// receives the pattern matcher's shift/reduce actions — the listing
	// style of the paper's appendix — and with TraceEvents the JSONL
	// stream carries the same actions. The baseline generator has no
	// matcher and traces nothing.
	Observer *Observer

	// Workers sets the number of goroutines compiling independent
	// functions of the unit concurrently over the shared read-only
	// tables; 0 or 1 compiles sequentially. The output is byte-identical
	// to the sequential output. Ignored by the baseline generator and
	// when the Observer wants trace actions (the shift/reduce listing is
	// per-action ordered).
	Workers int

	// Cache, if non-nil, serves repeated compilations of identical
	// source under an identical configuration from a content-addressed
	// store instead of recompiling, and coalesces concurrent identical
	// requests onto a single compile (singleflight). Cached output is
	// byte-identical to a fresh compile by construction: the key covers
	// every output-affecting knob plus the identity of the tables (see
	// internal/compcache). Ignored when the Observer wants trace
	// actions — the shift/reduce listing is a per-compilation side
	// effect a cache hit could not replay.
	Cache *Cache
}

// Stats reports code-generation work for one compilation.
type Stats struct {
	Trees         int // expression trees matched
	Shifts        int // parser shift actions
	Reduces       int // parser reductions
	Spills        int // registers spilled to virtual registers
	BindingIdioms int // three-address forms bound to two-address forms
	RangeIdioms   int // increment/decrement/clear simplifications
	AsmLines      int // instructions emitted
}

// Compiled is the result of a compilation.
type Compiled struct {
	Asm   string
	Stats Stats

	// Cached reports that this result was served from Config.Cache —
	// either a stored entry or another request's in-flight compile —
	// rather than compiled by this call.
	Cached bool
}

// Compile compiles source text (the C dialect cfront accepts) to
// assembly for the configured target (the VAX by default). With
// Config.Cache set, repeated compilations of the same source and
// configuration are served from the cache, byte-identically.
func Compile(src string, cfg Config) (*Compiled, error) {
	if cfg.Cache != nil && !cfg.Observer.WantsTrace() {
		return compileCached(src, cfg)
	}
	return compile(src, cfg)
}

// compile is the uncached pipeline behind Compile. It owns one pooled node
// arena for the whole front half: cfront builds the unit's trees in it and
// transform draws replacement nodes from it (sequentially) or from pooled
// per-worker arenas (Config.Workers > 1). The arena is released on every
// exit path — the returned Compiled never aliases arena memory, because
// Asm is a copied string and Stats are plain counters.
func compile(src string, cfg Config) (*Compiled, error) {
	mach, err := resolveTarget(cfg)
	if err != nil {
		return nil, err
	}
	a := ir.AcquireArena()
	defer a.Release()
	o := cfg.Observer
	sp := o.Start("compile")
	defer sp.End()
	unit, err := cfront.CompileArena(src, a, o)
	if err != nil {
		return nil, err
	}
	if cfg.Baseline {
		bsp := o.Start("baseline")
		res, err := pcc.Compile(unit)
		bsp.End()
		if err != nil {
			return nil, err
		}
		out := &Compiled{Asm: res.Asm, Stats: Stats{AsmLines: res.AsmLines, Spills: res.Spills}}
		if cfg.Peephole {
			psp := o.Start("peep")
			var pst peep.Stats
			out.Asm, pst = peep.Optimize(out.Asm)
			psp.End()
			codegen.CountPeep(o, pst)
			out.Stats.AsmLines -= pst.LinesRemoved
		}
		o.Count("codegen.asm_lines", int64(out.Stats.AsmLines))
		o.Count("codegen.spills", int64(out.Stats.Spills))
		return out, nil
	}
	opt := codegen.Options{
		Transform: transform.Options{NoReverseOps: cfg.NoReverseOps},
		Arena:     a,
		Target:    mach,
		Peephole:  cfg.Peephole,
		Obs:       o,
		Workers:   cfg.Workers,
	}
	res, err := codegen.Compile(unit, opt)
	if err != nil {
		return nil, err
	}
	return &Compiled{Asm: res.Asm, Stats: Stats{
		Trees:         res.Stats.Matcher.Trees,
		Shifts:        res.Stats.Matcher.Shifts,
		Reduces:       res.Stats.Matcher.Reduces,
		Spills:        res.Stats.Spills,
		BindingIdioms: res.Stats.BindingIdioms,
		RangeIdioms:   res.Stats.RangeIdioms,
		AsmLines:      res.Stats.AsmLines,
	}}, nil
}

// resolveTarget maps a Config to its backend: the registry entry for
// Config.Target, or the VAX for an empty name. The baseline generator is
// a VAX-only hand-written second pass, so it accepts only the default.
func resolveTarget(cfg Config) (target.Machine, error) {
	if cfg.Target == "" || cfg.Target == vax.Target.Name() {
		return vax.Target, nil
	}
	if cfg.Baseline {
		return nil, fmt.Errorf("ggcg: the baseline generator is VAX-only; it cannot target %q", cfg.Target)
	}
	return target.Lookup(cfg.Target)
}

// Targets returns the names of the registered backends, sorted.
func Targets() []string { return target.Names() }

// Sim executes a target's generated assembly: the common surface of the
// per-target simulators (vaxsim, riscsim).
type Sim = target.Sim

// NewSim assembles generated output for execution on the named target's
// simulator ("" means the VAX). Function and global names are
// assembler-level here — callers add the leading underscore.
func NewSim(targetName, asm string) (Sim, error) {
	mach, err := resolveTarget(Config{Target: targetName})
	if err != nil {
		return nil, err
	}
	return mach.NewSim(asm)
}

// GrammarInfo summarizes a target's machine description and its
// constructed tables — the statistics of the paper's §8.
type GrammarInfo struct {
	// Target is the backend the statistics describe.
	Target string

	GenericProductions int // before type replication
	Productions        int // after type replication
	Terminals          int
	Nonterminals       int
	States             int
	Conflicts          int // disambiguated shift/reduce and reduce/reduce conflicts
	ChainRules         int

	// Measured table encoding sizes: the dense ACTION/GOTO matrices the
	// constructor builds, and the packed comb-vector form the matcher's
	// hot loop drives (see DESIGN.md, "Table encoding").
	TableBytes       int
	PackedTableBytes int
}

// Info returns grammar and table statistics for the default (VAX)
// description; InfoFor selects another target by name. The statistics
// come from the same once-loaded shared grammar and shipped tables every
// compilation drives, so what InfoFor reports cannot diverge from what
// Compile actually uses.
func Info() (GrammarInfo, error) { return InfoFor("") }

// InfoFor returns grammar and table statistics for the named target (""
// means the VAX).
func InfoFor(targetName string) (GrammarInfo, error) {
	mach, err := resolveTarget(Config{Target: targetName})
	if err != nil {
		return GrammarInfo{}, err
	}
	gen, err := mach.GenericStats()
	if err != nil {
		return GrammarInfo{}, err
	}
	t, err := mach.Tables()
	if err != nil {
		return GrammarInfo{}, err
	}
	fs := t.Grammar.Stats()
	sum := t.Summary()
	return GrammarInfo{
		Target:             mach.Name(),
		GenericProductions: gen.Productions,
		Productions:        fs.Productions,
		Terminals:          fs.Terminals,
		Nonterminals:       fs.Nonterminals,
		States:             sum.States,
		Conflicts:          sum.Conflicts,
		ChainRules:         fs.ChainRules,
		TableBytes:         sum.Bytes,
		PackedTableBytes:   sum.PackedBytes,
	}, nil
}

// BuildTables constructs the instruction-selection tables from the VAX
// description, optionally with the naive first-cut algorithm (the
// configuration that took "over two hours of VAX 11/780 CPU time", §7).
// The standard (non-naive) configuration reports the shipped tables
// Compile drives, constructed offline by the same algorithm; only the
// naive experiment constructs tables here.
func BuildTables(naive bool) (states int, err error) {
	if !naive {
		t, err := vax.Tables()
		if err != nil {
			return 0, err
		}
		return t.Summary().States, nil
	}
	g, err := vax.Grammar()
	if err != nil {
		return 0, err
	}
	t, err := tablegen.Build(g, tablegen.Options{Naive: true})
	if err != nil {
		return 0, err
	}
	return t.Stats.States, nil
}
