package ggcg

// One benchmark per reproduced experiment (see DESIGN.md §4 and
// EXPERIMENTS.md). The E-numbers match the experiment index; the paired
// benchmarks regenerate the paper's comparisons (table-driven vs baseline,
// naive vs improved construction, with vs without reverse operators).

import (
	"fmt"
	"strings"
	"testing"

	"ggcg/internal/cfront"
	"ggcg/internal/cgram"
	"ggcg/internal/codegen"
	"ggcg/internal/corpus"
	"ggcg/internal/ir"
	"ggcg/internal/matcher"
	"ggcg/internal/mdgen"
	"ggcg/internal/pcc"
	"ggcg/internal/risc"
	"ggcg/internal/tablegen"
	"ggcg/internal/target"
	"ggcg/internal/transform"
	"ggcg/internal/vax"
	"ggcg/internal/vaxsim"
)

// E1: construct the instruction-selection tables from the full replicated
// VAX description (§8's grammar/state statistics).
func BenchmarkE1_TableConstruction(b *testing.B) {
	g, err := vax.Grammar()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tablegen.Build(g, tablegen.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// E1 companion: what a process pays for its tables now that they ship
// with the backend — expand, parse and validate the description, then
// wrap the shipped arrays over it (a fresh target.Desc per op, binding
// no semantic routines, loading tables identical to the shipped ones).
func BenchmarkE1_TableLoad(b *testing.B) {
	for _, c := range []struct {
		mach    target.Machine
		generic string
	}{{vax.Target, vax.GenericGrammar}, {risc.Target, risc.GenericGrammar}} {
		b.Run(c.mach.Name(), func(b *testing.B) {
			g, err := c.mach.Grammar()
			if err != nil {
				b.Fatal(err)
			}
			built, err := tablegen.Build(g, tablegen.Options{})
			if err != nil {
				b.Fatal(err)
			}
			shipped, err := tablegen.Ship(built)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := target.NewDesc(c.mach.Name(), c.generic, shipped, nil).Tables(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchUnit(b *testing.B, n int) *ir.Unit {
	b.Helper()
	u, err := cfront.Compile(corpus.Large(n))
	if err != nil {
		b.Fatal(err)
	}
	return u
}

// E2: code generation speed, table-driven (Graham-Glanville) generator —
// the paper's 80.1 s side. CI's bench gate holds the GG/PCC ns/op ratio
// of this pair under the ceiling recorded in EXPERIMENTS.md.
func BenchmarkE2_GG(b *testing.B) {
	u := benchUnit(b, 40)
	if _, err := vax.Tables(); err != nil {
		b.Fatal(err)
	}
	a := ir.AcquireArena()
	defer a.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codegen.Compile(u, codegen.Options{Arena: a}); err != nil {
			b.Fatal(err)
		}
		a.Reset() // the result copies out of the arena; slabs can be reused
	}
}

// E2: code generation speed, ad hoc baseline (the paper's 55.4 s PCC side).
func BenchmarkE2_PCC(b *testing.B) {
	u := benchUnit(b, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pcc.Compile(u); err != nil {
			b.Fatal(err)
		}
	}
}

func compileCorpus(b *testing.B, baseline bool) []struct {
	prog *vaxsim.Program
	args []int64
} {
	b.Helper()
	var out []struct {
		prog *vaxsim.Program
		args []int64
	}
	for _, p := range corpus.Programs() {
		u, err := cfront.Compile(p.Src)
		if err != nil {
			b.Fatal(err)
		}
		var asm string
		if baseline {
			res, err := pcc.Compile(u)
			if err != nil {
				b.Fatal(err)
			}
			asm = res.Asm
		} else {
			res, err := codegen.Compile(u, codegen.Options{})
			if err != nil {
				b.Fatal(err)
			}
			asm = res.Asm
		}
		prog, err := vaxsim.Assemble(asm)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, struct {
			prog *vaxsim.Program
			args []int64
		}{prog, p.Args})
	}
	return out
}

// E3: dynamic quality of the generated code — simulate the whole corpus
// compiled by the table-driven generator (§8's "as good or better").
func BenchmarkE3_ExecuteTableDriven(b *testing.B) {
	progs := compileCorpus(b, false)
	b.ResetTimer()
	steps := int64(0)
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			m := vaxsim.New(p.prog)
			if _, err := m.Call("_main", p.args...); err != nil {
				b.Fatal(err)
			}
			steps += m.Steps
		}
	}
	b.ReportMetric(float64(steps)/float64(b.N), "instructions/op")
}

// E3: the same corpus compiled by the baseline.
func BenchmarkE3_ExecuteBaseline(b *testing.B) {
	progs := compileCorpus(b, true)
	b.ResetTimer()
	steps := int64(0)
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			m := vaxsim.New(p.prog)
			if _, err := m.Call("_main", p.args...); err != nil {
				b.Fatal(err)
			}
			steps += m.Steps
		}
	}
	b.ReportMetric(float64(steps)/float64(b.N), "instructions/op")
}

func grammarWithout(b *testing.B, strip bool) *cgram.Grammar {
	b.Helper()
	src := vax.GenericGrammar
	if strip {
		var out []byte
		for _, line := range splitLines(src) {
			if containsAny(line, "RMinus", "RDiv", "RMod", "RLsh", "RRsh", "RAssign") {
				continue
			}
			out = append(out, line...)
			out = append(out, '\n')
		}
		src = string(out)
	}
	expanded, err := mdgen.Expand(src)
	if err != nil {
		b.Fatal(err)
	}
	g, err := cgram.Parse(expanded)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	out = append(out, s[start:])
	return out
}

func containsAny(s string, subs ...string) bool {
	for _, sub := range subs {
		if len(sub) <= len(s) && indexOf(s, sub) >= 0 {
			return true
		}
	}
	return false
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// E4: table construction with the reverse-operator productions (§5.1.3's
// +25% grammar / +60% tables cost side).
func BenchmarkE4_TablesWithReverseOps(b *testing.B) {
	g := grammarWithout(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tablegen.Build(g, tablegen.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// E4: table construction without them.
func BenchmarkE4_TablesWithoutReverseOps(b *testing.B) {
	g := grammarWithout(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tablegen.Build(g, tablegen.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// E5: the naive first-cut constructor (the "over two hours" configuration
// of §7).
func BenchmarkE5_NaiveConstruction(b *testing.B) {
	g, err := vax.Grammar()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tablegen.Build(g, tablegen.Options{Naive: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// E5: the improved constructor ("now takes ten minutes", §9).
func BenchmarkE5_ImprovedConstruction(b *testing.B) {
	g, err := vax.Grammar()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tablegen.Build(g, tablegen.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// nullSem drives the matcher without semantic work, isolating parse time.
type nullSem struct{}

func (nullSem) Reduce(*cgram.Prod, []matcher.Value) (any, error)    { return nil, nil }
func (nullSem) Predicate(string, *cgram.Prod, []matcher.Value) bool { return false }

// E6: the pattern matching phase alone — the paper's "our code generator
// spends most of its time parsing" (§8).
func BenchmarkE6_PatternMatchOnly(b *testing.B) {
	u := benchUnit(b, 40)
	tu, err := transform.Unit(u, transform.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var streams [][]ir.Token
	for _, f := range tu.Funcs {
		for _, it := range f.Items {
			if it.Kind == ir.ItemTree {
				streams = append(streams, ir.Linearize(it.Tree))
			}
		}
	}
	t, err := vax.Tables()
	if err != nil {
		b.Fatal(err)
	}
	m := matcher.New(t, nullSem{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range streams {
			if _, err := m.Match(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMatch is the matcher hot-path micro: per-tree linearization
// (interned-terminal stamping included) plus the packed comb-vector parse
// loop, with no semantic work.
func BenchmarkMatch(b *testing.B) {
	u := benchUnit(b, 40)
	tu, err := transform.Unit(u, transform.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var trees []*ir.Node
	for _, f := range tu.Funcs {
		for _, it := range f.Items {
			if it.Kind == ir.ItemTree {
				trees = append(trees, it.Tree)
			}
		}
	}
	t, err := vax.Tables()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("packed", func(b *testing.B) {
		m := matcher.New(t, nullSem{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, tree := range trees {
				if _, err := m.MatchTree(tree); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkTableLookup sweeps every (state, terminal) ACTION entry and
// every (state, nonterminal) GOTO entry of the VAX tables: the raw cost
// of one table probe, packed comb vectors vs dense matrices. Only a build
// has the dense matrices, so the tables are constructed here.
func BenchmarkTableLookup(b *testing.B) {
	g, err := vax.Grammar()
	if err != nil {
		b.Fatal(err)
	}
	t, err := tablegen.Build(g, tablegen.Options{})
	if err != nil {
		b.Fatal(err)
	}
	p := t.Packed()
	nStates := int32(t.Stats.States)
	nTerms := int32(len(t.Terms)) + 1
	nNT := int32(len(t.Nonterms))
	probes := int64(nStates) * int64(nTerms+nNT)
	b.Run("packed", func(b *testing.B) {
		var sink int32
		for i := 0; i < b.N; i++ {
			for s := int32(0); s < nStates; s++ {
				for term := int32(0); term < nTerms; term++ {
					sink += p.LookupCode(s, term)
				}
				for nt := int32(0); nt < nNT; nt++ {
					sink += p.GotoState(s, nt)
				}
			}
		}
		if sink == 0 {
			b.Log(sink)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(probes*int64(b.N)), "ns/lookup")
	})
	b.Run("dense", func(b *testing.B) {
		var sink int32
		for i := 0; i < b.N; i++ {
			for s := int32(0); s < nStates; s++ {
				for term := int32(0); term < nTerms; term++ {
					sink += t.Lookup(int(s), int(term)).Arg
				}
				for nt := int32(0); nt < nNT; nt++ {
					sink += int32(t.GotoState(int(s), int(nt)))
				}
			}
		}
		if sink == 0 {
			b.Log(sink)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(probes*int64(b.N)), "ns/lookup")
	})
}

// E6 companion: the tree-transformation phase alone.
func BenchmarkE6_TransformOnly(b *testing.B) {
	u := benchUnit(b, 40)
	a := ir.AcquireArena()
	defer a.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transform.UnitArena(u, transform.Options{}, a); err != nil {
			b.Fatal(err)
		}
		a.Reset() // the output is dropped, so the slabs can be reused
	}
}

// A: the appendix statement end to end through the code generator.
func BenchmarkA_AppendixStatement(b *testing.B) {
	tree := ir.MustParse(
		`(Assign.l (Name.l a) (Plus.l (Const.b 27) (Indir.b (Plus.l (Const.b -4) (Dreg.l fp)))))`)
	if _, err := vax.Tables(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := &ir.Func{Name: "foo", FrameSize: 4}
		f.Emit(tree.Clone())
		f.Emit(&ir.Node{Op: ir.Ret, Type: ir.Void})
		u := &ir.Unit{Globals: []ir.Global{{Name: "a", Type: ir.Long}}, Funcs: []*ir.Func{f}}
		if _, err := codegen.Compile(u, codegen.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Substrate benchmarks: the simulator and the front end, to put the E2
// numbers in context.
//
// simBenchSrc is a loop-heavy program for BenchmarkSim: a bubble sort of
// a global array (indexed loads and stores, compares and branches) and a
// recursive fib (calls and returns), so execution outweighs assembly.
const simBenchSrc = `
int a[64];
int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
int main() {
	int i, j, t, s;
	for (i = 0; i < 64; i++) a[i] = (i * 37) % 64;
	for (i = 0; i < 64; i++)
		for (j = 0; j + 1 < 64 - i; j++)
			if (a[j] > a[j + 1]) { t = a[j]; a[j] = a[j + 1]; a[j + 1] = t; }
	s = 0;
	for (i = 0; i < 64; i++) s += a[i] * i;
	return s + fib(15);
}
`

// BenchmarkSim runs simBenchSrc on each target's simulator the way the
// oracles and vaxrun do: assemble, make a machine and call main, all
// through target.Lookup(name).NewSim. It reports the time per simulated
// instruction and the exact instruction count of one run.
func BenchmarkSim(b *testing.B) {
	for _, name := range Targets() {
		b.Run(name, func(b *testing.B) {
			mach, err := target.Lookup(name)
			if err != nil {
				b.Fatal(err)
			}
			res, err := Compile(simBenchSrc, Config{Target: name})
			if err != nil {
				b.Fatal(err)
			}
			var insns int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := mach.NewSim(res.Asm)
				if err != nil {
					b.Fatal(err)
				}
				if r, err := s.Call("_main"); err != nil || r != 85954 {
					b.Fatalf("main() = %d, %v; want 85954", r, err)
				}
				insns = s.Steps()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insns*int64(b.N)), "ns/insn")
			b.ReportMetric(float64(insns), "insns/op")
		})
	}
}

func BenchmarkFrontEnd(b *testing.B) {
	src := corpus.Large(40)
	a := ir.AcquireArena()
	defer a.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfront.CompileArena(src, a, nil); err != nil {
			b.Fatal(err)
		}
		a.Reset() // the unit is dropped, so the slabs can be reused
	}
}

// Observability guard: the full public-API compile with no observer. The
// instrumentation layer must cost nothing when disabled — compare against
// BenchmarkCompileObserved to see the enabled-path overhead. CI runs this
// pair as a smoke test.
func BenchmarkCompile(b *testing.B) {
	src := corpus.Large(40)
	if _, err := vax.Tables(); err != nil { // exclude the one-time table load
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompile's compile for the RISC target: the shared layers over
// the other tables and register manager.
func BenchmarkCompileRISC(b *testing.B) {
	src := corpus.Large(40)
	cfg := Config{Target: "risc"}
	if _, err := Compile(src, cfg); err != nil { // exclude the one-time table load
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// The same compile with a full observer attached (spans, counters,
// histograms, coverage) but no event stream — the in-memory recording cost.
func BenchmarkCompileObserved(b *testing.B) {
	src := corpus.Large(40)
	if _, err := vax.Tables(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src, Config{Observer: NewObserver(ObserverConfig{})}); err != nil {
			b.Fatal(err)
		}
	}
}

// batchSources is a mixed batch: the whole correctness corpus plus a
// spread of synthetic unit sizes, so the scaling numbers are not an
// artifact of uniformly sized units.
func batchSources() []string {
	progs := corpus.Programs()
	srcs := make([]string, 0, len(progs)+8)
	for _, p := range progs {
		srcs = append(srcs, p.Src)
	}
	for n := 8; n <= 36; n += 4 {
		srcs = append(srcs, corpus.Large(n))
	}
	return srcs
}

// Batch compilation throughput over the shared once-built tables at
// several worker-pool widths — the scaling table in EXPERIMENTS.md comes
// from this benchmark.
func BenchmarkCompileBatch(b *testing.B) {
	srcs := batchSources()
	if _, err := vax.Tables(); err != nil { // exclude the one-time table load
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var trees int64
			for i := 0; i < b.N; i++ {
				out, err := CompileBatch(srcs, BatchConfig{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				trees = 0
				for _, c := range out {
					trees += int64(c.Stats.Trees)
				}
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N)*float64(len(srcs))/secs, "units/sec")
				b.ReportMetric(float64(b.N)*float64(trees)/secs, "trees/sec")
			}
		})
	}
}

// Independent Compile calls from concurrent goroutines, all driving the
// same shared tables — the contention profile CI's race job watches.
func BenchmarkCompileParallel(b *testing.B) {
	src := corpus.Large(40)
	if _, err := vax.Tables(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := Compile(src, Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPeephole runs each generator's peephole pass — vax and risc
// through Machine.Peephole, the pcc baseline through peep.Optimize — over
// its unoptimized corpus.Large(40) output. It reports the time per input
// line and the exact input line count of one call.
func BenchmarkPeephole(b *testing.B) {
	u := benchUnit(b, 40)
	for _, p := range peepInputs(b, u) {
		b.Run(p.name, func(b *testing.B) {
			lines := strings.Count(p.asm, "\n")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				peepSink, _ = p.optimize(p.asm)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(lines*b.N), "ns/line")
			b.ReportMetric(float64(lines), "lines/op")
		})
	}
}

var peepSink string

// The compile cache's amortization claim: a warm-cache repeat of an
// identical compilation must be at least an order of magnitude faster
// than the cold compile it replaces (it is a hash plus a map lookup).
// cold recompiles through a fresh cache every iteration; warm serves
// every iteration from one primed cache. The differential guards in
// cache_test.go prove the two return byte-identical output.
func BenchmarkCompileCached(b *testing.B) {
	src := corpus.Large(40)
	if _, err := vax.Tables(); err != nil { // exclude the one-time table load
		b.Fatal(err)
	}
	if _, err := vax.Target.TableID(); err != nil { // and the one-time identity hash
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Compile(src, Config{Cache: NewCache(CacheConfig{})}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		cache := NewCache(CacheConfig{})
		if _, err := Compile(src, Config{Cache: cache}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := Compile(src, Config{Cache: cache})
			if err != nil {
				b.Fatal(err)
			}
			if !out.Cached {
				b.Fatal("warm iteration missed the cache")
			}
		}
	})
}
