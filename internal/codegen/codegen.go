// Package codegen assembles the four-phase Graham-Glanville code generator
// of the paper (its Figure 2): tree transformation, table-driven pattern
// matching, instruction generation and output generation, organized as one
// program with logical subphases (§5).
package codegen

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ggcg/internal/ir"
	"ggcg/internal/matcher"
	"ggcg/internal/obs"
	"ggcg/internal/peep"
	"ggcg/internal/tablegen"
	"ggcg/internal/target"
	"ggcg/internal/transform"
	"ggcg/internal/vax"
)

// Options configures a compilation.
type Options struct {
	// Transform configures phase 1 (e.g. disabling reverse operators).
	Transform transform.Options

	// Arena, if non-nil, supplies the nodes phase 1 builds replacement
	// trees from. The caller owns it and must keep it alive until the
	// Result is in hand (the Result itself never aliases arena memory —
	// Asm is a copied string). The sequential path uses it directly; the
	// parallel path gives each worker a pooled arena of its own instead,
	// since arenas are single-owner.
	Arena *ir.Arena

	// Target selects the backend the unit is generated for. Nil means
	// the VAX backend, the machine of the paper's experiment.
	Target target.Machine

	// Tables overrides the instruction-selection tables (used by the
	// experiments that rebuild tables from modified grammars). Nil means
	// the target's standard tables.
	Tables *tablegen.Tables

	// Peephole runs the assembly-level peephole optimizer over the output
	// — the alternative organization §6.1 of the paper discusses.
	Peephole bool

	// Obs, if non-nil, receives phase spans, counters/histograms and
	// table coverage for the whole compilation (see internal/obs), and
	// every pattern matcher action when it has a trace sink or trace
	// events — the shift/reduce listing of the paper's appendix.
	Obs *obs.Observer

	// Workers sets the number of goroutines that compile independent
	// functions of the unit concurrently; 0 or 1 compiles sequentially.
	// Functions share only the immutable tables, so the parallel output
	// is byte-identical to the sequential output. Ignored (sequential)
	// when Obs wants trace actions, since the listing is per-action ordered.
	Workers int
}

// Stats reports code-generation work.
type Stats struct {
	Matcher       matcher.Stats
	Spills        int
	BindingIdioms int
	RangeIdioms   int
	TstBackstops  int
	AsmLines      int
	Peephole      peep.Stats
}

// Result is a compiled unit.
type Result struct {
	Asm   string
	Stats Stats
}

// Compile runs the full code generator over a unit, producing assembly
// for the selected target's assembler.
func Compile(u *ir.Unit, opt Options) (*Result, error) {
	o := opt.Obs
	mach := opt.Target
	if mach == nil {
		mach = vax.Target
	}
	t := opt.Tables
	if t == nil {
		// The standard tables ship with the backend, constructed offline
		// (§3's static/dynamic split); this span is the once-per-process
		// grammar parse that wraps them, and ~zero after.
		tsp := o.Start("tables")
		var err error
		t, err = mach.Tables()
		tsp.End()
		if err != nil {
			return nil, err
		}
	}
	o.SetCoverageUniverse(len(t.Grammar.Prods), t.Summary().States, func(i int) string {
		if i >= 1 && i <= len(t.Grammar.Prods) {
			return t.Grammar.Prods[i-1].String()
		}
		return fmt.Sprintf("#%d", i)
	})
	sp := o.Start("codegen")
	out := getEmitter()
	defer emitterPool.Put(out)
	target.EmitGlobals(out, u.Globals)
	res := &Result{}
	// Parallelism is skipped whenever a trace consumer is attached: the
	// listing is ordered, and observer shards deliberately do not inherit
	// trace sinks.
	if opt.Workers > 1 && len(u.Funcs) > 1 && !o.WantsTrace() {
		if err := compileFuncsParallel(out, mach, t, u, opt, res); err != nil {
			sp.End()
			return nil, err
		}
	} else {
		labelBase := 0
		for _, f := range u.Funcs {
			next, err := compileFunc(out, mach, t, f, opt, &res.Stats, labelBase)
			if err != nil {
				sp.End()
				return nil, err
			}
			labelBase = next
		}
	}
	res.Asm = out.String()
	res.Stats.AsmLines = out.Lines()
	sp.End()
	if opt.Peephole {
		psp := o.Start("peep")
		var pst peep.Stats
		res.Asm, pst = mach.Peephole(res.Asm)
		res.Stats.Peephole = pst
		res.Stats.AsmLines -= pst.LinesRemoved
		psp.End()
		CountPeep(o, pst)
	}
	if o.Enabled() {
		s := res.Stats
		// One series per backend: reports show which machine a run drove,
		// and a store that merges request observers (ggcd /metrics)
		// accumulates per-target compile counts.
		o.Count("codegen.target."+mach.Name(), 1)
		o.Count("codegen.trees", int64(s.Matcher.Trees))
		o.Count("codegen.shifts", int64(s.Matcher.Shifts))
		o.Count("codegen.reduces", int64(s.Matcher.Reduces))
		o.Count("codegen.spills", int64(s.Spills))
		o.Count("codegen.binding_idioms", int64(s.BindingIdioms))
		o.Count("codegen.range_idioms", int64(s.RangeIdioms))
		o.Count("codegen.tst_backstops", int64(s.TstBackstops))
		o.Count("codegen.asm_lines", int64(s.AsmLines))
	}
	return res, nil
}

// CountPeep exports the peephole rule applications — the "window hits" of
// the §6.1 organization — as observer counters. The baseline compilation
// path shares it so both generators report the same counter vocabulary.
func CountPeep(o *obs.Observer, pst peep.Stats) {
	if !o.Enabled() {
		return
	}
	o.Count("peep.redundant_moves", int64(pst.RedundantMoves))
	o.Count("peep.redundant_tst", int64(pst.RedundantTst))
	o.Count("peep.jumps_to_next", int64(pst.JumpsToNext))
	o.Count("peep.jump_chains", int64(pst.JumpChains))
	o.Count("peep.inverted_branches", int64(pst.InvertedOver))
	o.Count("peep.autoinc", int64(pst.AutoInc))
	o.Count("peep.autodec", int64(pst.AutoDec))
	o.Count("peep.incdec", int64(pst.IncDec))
	o.Count("peep.clr_zero", int64(pst.ClrZero))
	o.Count("peep.aob_loops", int64(pst.AOBLoops))
	o.Count("peep.dead_labels", int64(pst.DeadLabels))
	o.Count("peep.lines_removed", int64(pst.LinesRemoved))
}

// matcherPool recycles matchers — and with them the parse stacks and the
// linearization token buffer — across functions and compilations, so the
// per-function matcher setup allocates nothing in steady state. Reset
// re-targets a pooled matcher to whatever tables the compilation uses.
var matcherPool = sync.Pool{New: func() any { return &matcher.Matcher{} }}

// emitterPool recycles the per-function body emitters (and, in the
// parallel path, the per-function output emitters) so their buffers are
// grown once and reused across functions and compilations. The emitter is
// target-neutral (a byte buffer plus result-register tracking), so one
// pool serves every backend.
var emitterPool = sync.Pool{New: func() any { return target.NewEmitter() }}

func getEmitter() *target.Emitter {
	e := emitterPool.Get().(*target.Emitter)
	e.Reset()
	return e
}

// compileFunc generates one function, numbering its labels from labelBase
// so labels are unique across the output file; it returns the next base.
func compileFunc(out *target.Emitter, mach target.Machine, t *tablegen.Tables, f *ir.Func, opt Options, stats *Stats, labelBase int) (int, error) {
	tf, err := transformFunc(f, opt)
	if err != nil {
		return 0, err
	}
	if err := generateFunc(out, mach, t, f.Name, tf, opt, stats, labelBase); err != nil {
		return 0, err
	}
	return labelBase + maxLabelOf(tf) + 1, nil
}

// transformFunc runs phase 1 (tree transformation) for one function.
func transformFunc(f *ir.Func, opt Options) (*ir.Func, error) {
	o := opt.Obs
	tsp := o.Start("transform")
	tf, err := transform.FuncArena(f, opt.Transform, opt.Arena)
	tsp.End()
	return tf, err
}

// maxLabelOf returns the largest label a transformed function mentions
// (as a label item or a Lab leaf), so the next function's labels can be
// numbered after it. Labels are static in the transformed body, which is
// what lets the bases be computed before — and therefore independently of
// — instruction selection.
func maxLabelOf(tf *ir.Func) int {
	maxLabel := 0
	note := func(id int) {
		if id > maxLabel {
			maxLabel = id
		}
	}
	for _, it := range tf.Items {
		if it.Kind == ir.ItemLabel {
			note(it.Label)
			continue
		}
		it.Tree.Walk(func(n *ir.Node) bool {
			if n.Op == ir.Lab {
				note(int(n.Val))
			}
			return true
		})
	}
	return maxLabel
}

// generateFunc runs phases 2–4 for one transformed function, appending
// the function header and body to out. Phases 2–4 interleave: reductions
// invoke the instruction generator, which emits formatted assembly. The
// body is generated into its own emitter because the frame size
// (including spill temporaries) is only known afterwards.
func generateFunc(out *target.Emitter, mach target.Machine, t *tablegen.Tables, name string, tf *ir.Func, opt Options, stats *Stats, labelBase int) error {
	o := opt.Obs
	body := getEmitter()
	defer emitterPool.Put(body)
	gen := mach.NewGen(body, tf, labelBase)
	// The generator's descriptors go back to their pool however the
	// function ends; the attributes on the matcher's stack die with it.
	defer gen.Release()
	m := matcherPool.Get().(*matcher.Matcher)
	defer matcherPool.Put(m)
	m.Reset(t, gen)
	m.Obs = o

	// Phases 2–4: the span covers pattern matching, instruction generation
	// and output generation, which interleave per tree (Figure 2).
	ssp := o.Start("select")
	defer ssp.End()
	marks := phase1Spans(tf)
	for i, it := range tf.Items {
		setPhase1(gen, marks[i].first, true)
		if it.Kind == ir.ItemLabel {
			body.Label(labelBase + it.Label)
			continue
		}
		if o.Enabled() {
			o.Observe("codegen.tree_depth", int64(treeDepth(it.Tree)))
		}
		if _, err := m.MatchTree(it.Tree); err != nil {
			return fmt.Errorf("codegen: %s: %v", name, err)
		}
		if err := gen.CheckStatementEnd(); err != nil {
			return fmt.Errorf("codegen: %s: %v (tree %s)", name, err, it.Tree)
		}
		setPhase1(gen, marks[i].last, false)
	}

	mach.FuncHeader(out, name, tf.TotalFrame())
	out.Append(body)

	stats.Matcher = addMatcherStats(stats.Matcher, m.Stats())
	gs := gen.Stats()
	if o.Enabled() {
		o.Observe("codegen.spills_per_func", int64(gs.Spills))
	}
	stats.Spills += gs.Spills
	stats.BindingIdioms += gs.BindingIdioms
	stats.RangeIdioms += gs.RangeIdioms
	stats.TstBackstops += body.TstBackstops
	return nil
}

// compileFuncsParallel is the concurrent unit body: every function is
// transformed and selected independently by a bounded worker pool over
// the shared immutable tables, then the per-function outputs are stitched
// in source order. Label bases are the same prefix sums the sequential
// path chains through compileFunc, so the result is byte-identical.
// Workers record instrumentation into private observer shards, merged
// after the pool drains.
func compileFuncsParallel(out *target.Emitter, mach target.Machine, t *tablegen.Tables, u *ir.Unit, opt Options, res *Result) error {
	o := opt.Obs
	n := len(u.Funcs)
	workers := opt.Workers
	if workers > n {
		workers = n
	}

	tfs := make([]*ir.Func, n)
	fouts := make([]*target.Emitter, n)
	stats := make([]Stats, n)
	errs := make([]error, n)
	bases := make([]int, n)

	// Arenas are single-owner, so the workers cannot share opt.Arena: each
	// worker transforms into a pooled arena of its own. The transformed
	// trees are read again by the phase 2–4 pool (whose workers need not
	// line up with the phase-1 workers), so every arena stays alive until
	// the whole unit is stitched and is only then released.
	arenas := make([]*ir.Arena, workers)
	for w := range arenas {
		arenas[w] = ir.AcquireArena()
	}
	defer func() {
		for _, a := range arenas {
			a.Release()
		}
	}()

	// pool runs work(i) for every function index on the worker pool; each
	// worker records into its own shard of opt.Obs for the duration.
	pool := func(work func(i int, wopt Options)) {
		var next atomic.Int64
		var wg sync.WaitGroup
		shards := make([]*obs.Observer, workers)
		for w := 0; w < workers; w++ {
			shards[w] = o.Shard()
			wg.Add(1)
			go func(so *obs.Observer, wa *ir.Arena) {
				defer wg.Done()
				wopt := opt
				wopt.Obs = so
				wopt.Arena = wa
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					work(i, wopt)
				}
			}(shards[w], arenas[w])
		}
		wg.Wait()
		for _, s := range shards {
			o.Merge(s)
		}
	}

	// Phase 1 for every function; the label bases chained through the
	// unit depend on the transformed bodies, so this is a barrier.
	pool(func(i int, wopt Options) {
		tfs[i], errs[i] = transformFunc(u.Funcs[i], wopt)
	})
	for i, err := range errs {
		if err != nil {
			return err
		}
		if i+1 < n {
			bases[i+1] = bases[i] + maxLabelOf(tfs[i]) + 1
		}
	}

	// Phases 2–4, each function into its own emitter.
	pool(func(i int, wopt Options) {
		fouts[i] = getEmitter()
		errs[i] = generateFunc(fouts[i], mach, t, u.Funcs[i].Name, tfs[i], wopt, &stats[i], bases[i])
	})
	defer func() {
		for _, fe := range fouts {
			if fe != nil {
				emitterPool.Put(fe)
			}
		}
	}()
	for i, err := range errs {
		if err != nil {
			return err // lowest function index, as the sequential path reports
		}
		out.Append(fouts[i])
		res.Stats.Matcher = addMatcherStats(res.Stats.Matcher, stats[i].Matcher)
		res.Stats.Spills += stats[i].Spills
		res.Stats.BindingIdioms += stats[i].BindingIdioms
		res.Stats.RangeIdioms += stats[i].RangeIdioms
		res.Stats.TstBackstops += stats[i].TstBackstops
	}
	return nil
}

// treeDepth is the height of an expression tree, observed into the
// tree-depth histogram (deep trees are what force spills, §5.3.3).
func treeDepth(n *ir.Node) int {
	if n == nil {
		return 0
	}
	d := 0
	for _, k := range n.Kids {
		if kd := treeDepth(k); kd > d {
			d = kd
		}
	}
	return d + 1
}

func addMatcherStats(a, b matcher.Stats) matcher.Stats {
	a.Shifts += b.Shifts
	a.Reduces += b.Reduces
	a.Trees += b.Trees
	if b.MaxDepth > a.MaxDepth {
		a.MaxDepth = b.MaxDepth
	}
	return a
}

// p1Marks are the phase-1 registers that become busy before an item
// (first) and free after it (last).
type p1Marks struct{ first, last target.RegSet }

// phase1Spans returns, per item index, which registers become busy or free
// there: the spans the transformation phase recorded — the paper's
// "special trees specifying which registers it assigned, as well as a use
// count" (§5.3.3). Registers mentioned by RegUse or allocatable-Dreg trees
// without a recorded span (hand-built input) get a conservative
// whole-mention span instead.
func phase1Spans(f *ir.Func) []p1Marks {
	marks := make([]p1Marks, len(f.Items))
	mark := func(i int, r target.RegSet, last bool) {
		switch {
		case i < 0 || i >= len(marks):
		case last:
			marks[i].last |= r
		default:
			marks[i].first |= r
		}
	}
	var recorded target.RegSet
	for _, sp := range f.P1Spans {
		r := target.RegRange(sp.Reg, 1)
		recorded |= r
		mark(sp.First, r, false)
		mark(sp.Last, r, true)
	}
	// lo and hi are the first and last items mentioning an unrecorded
	// register, plus one (zero: none).
	var lo, hi [ir.NAllocatable]int
	for i, it := range f.Items {
		if it.Kind != ir.ItemTree {
			continue
		}
		it.Tree.Walk(func(n *ir.Node) bool {
			if (n.Op == ir.Dreg || n.Op == ir.RegUse) && n.Val >= 0 && n.Val < ir.NAllocatable && !recorded.Has(int(n.Val)) {
				r := int(n.Val)
				if lo[r] == 0 {
					lo[r] = i + 1
				}
				hi[r] = i + 1
			}
			return true
		})
	}
	for r := range lo {
		if lo[r] > 0 {
			mark(lo[r]-1, target.RegRange(r, 1), false)
			mark(hi[r]-1, target.RegRange(r, 1), true)
		}
	}
	return marks
}

// setPhase1 marks every register of s busy or free for phase 3.
func setPhase1(gen target.Gen, s target.RegSet, busy bool) {
	for r := 0; r < ir.NAllocatable; r++ {
		if s.Has(r) {
			gen.Phase1Busy(r, busy)
		}
	}
}
