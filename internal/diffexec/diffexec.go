// Package diffexec is the multi-oracle differential execution harness:
// one source program is pushed through every execution path the
// repository has, and every pair of paths that must agree is checked.
// The paper validated its generator by compiling "a particular large C
// program" and comparing against PCC (§8); this package mechanizes that
// comparison over unbounded generated programs (internal/progen) and
// turns it into a permanent correctness gate.
//
// The oracle lattice, rooted at the IR interpreter's reference semantics:
//
//	irinterp (reference)
//	  ≡ gg          table-driven output executed on vaxsim
//	  ≡ pcc         ad hoc baseline output executed on vaxsim
//	  ≡ gg-peep     table-driven + peephole, executed
//	  ≡ pcc-peep    baseline + peephole, executed
//	  ≡ gg-noreverse table-driven without reverse operators (§5.1.3)
//	gg (bytes)
//	  ≡ batch       CompileBatch / Config.Workers parallel paths
//
// On a mismatch the harness shrinks the generated program to a minimal
// reproducer (see Shrink) and reports the seed with the reduced source.
package diffexec

import (
	"errors"
	"fmt"
	"strings"

	"ggcg"
	"ggcg/internal/cfront"
	"ggcg/internal/codegen"
	"ggcg/internal/irinterp"
	"ggcg/internal/obs"
	"ggcg/internal/pcc"
	"ggcg/internal/peep"
	"ggcg/internal/progen"
	"ggcg/internal/target"
	"ggcg/internal/transform"
)

// Oracle names, used to address fault injection and to label mismatches.
const (
	OracleRef      = "irinterp"
	OracleGG       = "gg"
	OracleGGPeep   = "gg-peep"
	OracleGGNoRev  = "gg-noreverse"
	OraclePCC      = "pcc"
	OraclePCCPeep  = "pcc-peep"
	OracleBatch    = "batch"
	OracleBatchSeq = "batch-seq" // the sequential ggcg.Compile the batch is compared against
)

// Config configures a differential check.
type Config struct {
	// MutateAsm, if non-nil, may rewrite an oracle's assembly before it
	// is assembled, executed or byte-compared. It exists so the harness's
	// own tests can inject a deliberate miscompilation into exactly one
	// oracle and assert that the corresponding pair catches it.
	MutateAsm func(oracle string, asm string) string

	// Obs, if non-nil, instruments the primary table-driven compile (the
	// gg oracle): production and state coverage accumulates into it. The
	// fuzzing drivers pass per-worker shards here so a sweep's dynamic
	// table coverage is measured by the same compilations that feed the
	// oracle lattice, at no extra compile cost.
	Obs *obs.Observer

	// Target names the backend under test; empty means "vax". The
	// table-driven oracles (gg, gg-peep, gg-noreverse, batch)
	// compile for and execute on the named target's simulator. The pcc
	// oracles drop out of the lattice for non-VAX targets: the baseline
	// generator is a hand-written VAX second pass with no counterpart
	// elsewhere, so the reference interpreter carries its share of the
	// comparison.
	Target string
}

func (c Config) mutate(oracle, asm string) string {
	if c.MutateAsm == nil {
		return asm
	}
	return c.MutateAsm(oracle, asm)
}

// Mismatch reports one disagreeing oracle pair. It implements error.
type Mismatch struct {
	Pair   string // "gg vs irinterp", "batch vs batch-seq", ...
	Want   string // the reference side's value (or byte digest)
	Got    string // the disagreeing side's value
	Detail string // extra context: execution error text, first diverging line
}

func (m *Mismatch) Error() string {
	s := fmt.Sprintf("diffexec: %s: want %s, got %s", m.Pair, m.Want, m.Got)
	if m.Detail != "" {
		s += " (" + m.Detail + ")"
	}
	return s
}

// Check compiles src along every execution path and cross-checks the
// oracle lattice. It returns nil when all pairs agree, a *Mismatch when a
// pair disagrees, and an ordinary error when the reference path itself
// cannot process the program (front-end rejection, interpreter fault).
func Check(src string, cfg Config) error {
	targetName := cfg.Target
	if targetName == "" {
		targetName = "vax"
	}
	mach, err := target.Lookup(targetName)
	if err != nil {
		return err
	}
	isVAX := targetName == "vax"

	u, err := cfront.Compile(src)
	if err != nil {
		return fmt.Errorf("front end: %w", err)
	}
	ref, err := irinterp.New(u).Call("main")
	if err != nil {
		return fmt.Errorf("reference interpreter: %w", err)
	}

	// run assembles and executes one oracle's (possibly mutated) assembly
	// on the target's simulator and compares its main() against the
	// reference. Execution failure of a generated-code oracle is itself a
	// mismatch with the reference, not a harness error: the reference ran
	// the program fine.
	run := func(oracle, asm string) *Mismatch {
		asm = cfg.mutate(oracle, asm)
		pair := oracle + " vs " + OracleRef
		sim, err := mach.NewSim(asm)
		if err != nil {
			return &Mismatch{Pair: pair, Want: fmt.Sprint(ref), Got: "<assembly error>", Detail: err.Error()}
		}
		got, err := sim.Call("_main")
		if err != nil {
			return &Mismatch{Pair: pair, Want: fmt.Sprint(ref), Got: "<execution error>", Detail: err.Error()}
		}
		if got != ref {
			return &Mismatch{Pair: pair, Want: fmt.Sprint(ref), Got: fmt.Sprint(got)}
		}
		return nil
	}

	// Table-driven generator, packed comb-vector hot loop.
	gg, err := codegen.Compile(u, codegen.Options{Target: mach, Obs: cfg.Obs})
	if err != nil {
		return &Mismatch{Pair: OracleGG + " vs " + OracleRef, Want: fmt.Sprint(ref),
			Got: "<compile error>", Detail: err.Error()}
	}
	if m := run(OracleGG, gg.Asm); m != nil {
		return m
	}

	// Ad hoc baseline — a hand-written VAX second pass, so VAX-only.
	if isVAX {
		base, err := pcc.Compile(u)
		if err != nil {
			return &Mismatch{Pair: OraclePCC + " vs " + OracleRef, Want: fmt.Sprint(ref),
				Got: "<compile error>", Detail: err.Error()}
		}
		if m := run(OraclePCC, base.Asm); m != nil {
			return m
		}
		basePeep, _ := peep.Optimize(base.Asm)
		if m := run(OraclePCCPeep, basePeep); m != nil {
			return m
		}
	}

	// Peephole on ≡ peephole off.
	ggPeep, err := codegen.Compile(u, codegen.Options{Target: mach, Peephole: true})
	if err != nil {
		return &Mismatch{Pair: OracleGGPeep + " vs " + OracleRef, Want: fmt.Sprint(ref),
			Got: "<compile error>", Detail: err.Error()}
	}
	if m := run(OracleGGPeep, ggPeep.Asm); m != nil {
		return m
	}

	// Reverse operators on ≡ off (the §5.1.3 ablation).
	ggNoRev, err := codegen.Compile(u, codegen.Options{Target: mach,
		Transform: transform.Options{NoReverseOps: true}})
	if err != nil {
		return &Mismatch{Pair: OracleGGNoRev + " vs " + OracleRef, Want: fmt.Sprint(ref),
			Got: "<compile error>", Detail: err.Error()}
	}
	if m := run(OracleGGNoRev, ggNoRev.Asm); m != nil {
		return m
	}

	// CompileBatch ≡ sequential Compile bytes, with both parallel layers
	// on: two copies of the unit across batch workers, and per-function
	// workers within each unit. Every output must be byte-identical to
	// the sequential compilation (which itself must match the codegen
	// path Check already executed).
	seq, err := ggcg.Compile(src, ggcg.Config{Target: cfg.Target})
	if err != nil {
		return fmt.Errorf("sequential Compile: %w", err)
	}
	if m := diffBytes(OracleBatchSeq+" vs "+OracleGG,
		cfg.mutate(OracleGG, gg.Asm), cfg.mutate(OracleBatchSeq, seq.Asm)); m != nil {
		return m
	}
	outs, err := ggcg.CompileBatch([]string{src, src}, ggcg.BatchConfig{
		Workers: 2, Config: ggcg.Config{Target: cfg.Target, Workers: 2},
	})
	if err != nil {
		return &Mismatch{Pair: OracleBatch + " vs " + OracleBatchSeq, Want: "<compiles>",
			Got: "<compile error>", Detail: err.Error()}
	}
	for i, out := range outs {
		if m := diffBytes(OracleBatch+" vs "+OracleBatchSeq,
			cfg.mutate(OracleBatchSeq, seq.Asm), cfg.mutate(OracleBatch, out.Asm)); m != nil {
			m.Detail = strings.TrimSpace(fmt.Sprintf("batch slot %d; %s", i, m.Detail))
			return m
		}
	}
	return nil
}

// diffBytes compares two assembly texts that must be byte-identical and
// reports the first diverging line.
func diffBytes(pair, want, got string) *Mismatch {
	if want == got {
		return nil
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	line, w, g := 0, "<missing>", "<missing>"
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var a, b string
		if i < len(wl) {
			a = wl[i]
		}
		if i < len(gl) {
			b = gl[i]
		}
		if a != b {
			line, w, g = i+1, a, b
			break
		}
	}
	return &Mismatch{
		Pair: pair,
		Want: fmt.Sprintf("%d bytes", len(want)),
		Got:  fmt.Sprintf("%d bytes", len(got)),
		Detail: fmt.Sprintf("first divergence at line %d: %q vs %q",
			line, strings.TrimSpace(w), strings.TrimSpace(g)),
	}
}

// Failure is a differential failure tied to its generating seed, carrying
// the shrunk reproducer. It implements error; its message is what ggfuzz
// prints and what a fuzz crasher records.
type Failure struct {
	Seed     int64
	Mismatch *Mismatch // nil when the failure is a front-end/reference error
	Err      error     // the underlying error (the Mismatch, or the generic error)
	Source   string    // reduced source
	Lines    int       // non-blank lines of Source

	// ShrinkFailed reports that the shrinker's result no longer fails the
	// check that the original program failed: the reduction fell through
	// (or the failure is not deterministic), so Source is the ORIGINAL
	// unreduced program and Err the original error. Drivers must surface
	// this loudly — a shrinker that silently under-delivers would hide
	// exactly the failures it exists to explain — and ggfuzz exits
	// non-zero with the seed and the written reproducer path.
	ShrinkFailed bool
}

func (f *Failure) Error() string {
	note := ""
	if f.ShrinkFailed {
		note = "\nshrinker failed: the reduced candidate no longer fails; reporting the original program"
	}
	return fmt.Sprintf("seed %d: %v%s\nreproduce: ggfuzz -seed %d -n 1\nreduced source (%d lines):\n%s",
		f.Seed, f.Err, note, f.Seed, f.Lines, f.Source)
}

func (f *Failure) Unwrap() error { return f.Err }

// CheckSeed generates the program for one seed, checks the whole oracle
// lattice, and on failure shrinks the program to a minimal reproducer.
// The returned error is a *Failure carrying the seed and reduced source.
func CheckSeed(seed int64, cfg Config) error {
	return CheckProg(progen.Generate(seed), seed, cfg)
}

// CheckProg is CheckSeed for an arbitrary structured program — the
// coverage-guided fuzzer's mutants are not reproducible from a progen
// seed alone, so its failures carry the engine seed plus the reduced
// source, which is the reproducer. On failure the program is shrunk while
// the same oracle pair keeps disagreeing and a *Failure is returned.
func CheckProg(p *progen.Prog, seed int64, cfg Config) error {
	err := Check(p.Render(), cfg)
	if err == nil {
		return nil
	}
	var mm *Mismatch
	var pred func(src string) bool
	if errors.As(err, &mm) {
		// Shrink while the same oracle pair keeps disagreeing.
		pred = func(src string) bool {
			var m2 *Mismatch
			return errors.As(Check(src, cfg), &m2) && m2.Pair == mm.Pair
		}
	} else {
		// A generated program the front end or reference rejects is a
		// progen bug; shrink while any non-mismatch error persists.
		pred = func(src string) bool {
			e := Check(src, cfg)
			var m2 *Mismatch
			return e != nil && !errors.As(e, &m2)
		}
	}
	red := Shrink(p, pred)
	final := Check(red.Render(), cfg)
	if final == nil {
		// Shrinking fell through: the reduced program passes. Report the
		// original program and error, flagged so drivers can refuse to
		// treat the reduction as a reproducer.
		var omm *Mismatch
		errors.As(err, &omm)
		return &Failure{Seed: seed, Mismatch: omm, Err: err,
			Source: p.Render(), Lines: p.Lines(), ShrinkFailed: true}
	}
	if mm != nil {
		errors.As(final, &mm)
	}
	return &Failure{Seed: seed, Mismatch: mm, Err: final, Source: red.Render(), Lines: red.Lines()}
}
