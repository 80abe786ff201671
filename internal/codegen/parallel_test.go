package codegen

import (
	"strings"
	"testing"

	"ggcg/internal/cfront"
	"ggcg/internal/corpus"
	"ggcg/internal/ir"
	"ggcg/internal/obs"
	"ggcg/internal/risc"
	"ggcg/internal/target"
	"ggcg/internal/vax"
)

// The parallel unit body must be byte-identical to the sequential one:
// same assembly, same statistics, for every worker count, on every
// target. The workers draw their operand slabs from one pool per target.
func TestParallelMatchesSequential(t *testing.T) {
	srcs := map[string]string{"large": corpus.Large(40)}
	for _, p := range corpus.Programs() {
		srcs[p.Name] = p.Src
	}
	for _, mach := range []target.Machine{vax.Target, risc.Target} {
		for name, src := range srcs {
			u, err := cfront.Compile(src)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := Compile(u, Options{Target: mach})
			if err != nil {
				t.Fatalf("%s/%s: sequential: %v", mach.Name(), name, err)
			}
			for _, workers := range []int{2, 4, 8} {
				got, err := Compile(u, Options{Target: mach, Workers: workers})
				if err != nil {
					t.Fatalf("%s/%s: workers=%d: %v", mach.Name(), name, workers, err)
				}
				if got.Asm != want.Asm {
					t.Errorf("%s/%s: workers=%d assembly differs from sequential", mach.Name(), name, workers)
				}
				if *got != *want {
					t.Errorf("%s/%s: workers=%d stats = %+v, want %+v", mach.Name(), name, workers, got.Stats, want.Stats)
				}
			}
		}
	}
}

// A compile that fails in phase 3, with descriptors drawn and registers
// held, leaves nothing behind: the next compile's output is byte-identical
// to one made before it, sequentially and in parallel, on every target.
// The failing function mentions all six allocatable registers as
// dedicated registers, so each is a phase-1 register for the statement
// and the first register the semantic routines ask for cannot be had.
func TestPhase3FailureLeavesNoState(t *testing.T) {
	good, err := cfront.Compile(corpus.Large(8))
	if err != nil {
		t.Fatal(err)
	}
	starve := ir.MustParse(`(Assign.l (Name.l x) (Plus.l (Plus.l (Plus.l (Dreg.l r0) (Dreg.l r1)) (Plus.l (Dreg.l r2) (Dreg.l r3))) (Plus.l (Dreg.l r4) (Dreg.l r5))))`)
	for _, mach := range []target.Machine{vax.Target, risc.Target} {
		for _, workers := range []int{0, 4} {
			opt := Options{Target: mach, Workers: workers}
			want, err := Compile(good, opt)
			if err != nil {
				t.Fatal(err)
			}
			bad, err := cfront.Compile(corpus.Large(8))
			if err != nil {
				t.Fatal(err)
			}
			bad.Funcs[3].Items = append(bad.Funcs[3].Items[:len(bad.Funcs[3].Items):len(bad.Funcs[3].Items)], ir.Item{Kind: ir.ItemTree, Tree: starve})
			_, err = Compile(bad, opt)
			if err == nil || !strings.Contains(err.Error(), "no spillable register") {
				t.Fatalf("%s workers=%d: compile of the starved unit = %v, want a register manager error", mach.Name(), workers, err)
			}
			got, err := Compile(good, opt)
			if err != nil {
				t.Fatalf("%s workers=%d: compile after the failure: %v", mach.Name(), workers, err)
			}
			if got.Asm != want.Asm || *got != *want {
				t.Errorf("%s workers=%d: output after a phase-3 failure differs from before it", mach.Name(), workers)
			}
		}
	}
}

// Parallel workers share one observer through per-worker shards; the
// merged aggregates must equal the sequential observer's aggregates.
func TestParallelObserverAggregates(t *testing.T) {
	u, err := cfront.Compile(corpus.Large(24))
	if err != nil {
		t.Fatal(err)
	}
	seq := obs.New(obs.Config{})
	if _, err := Compile(u, Options{Obs: seq}); err != nil {
		t.Fatal(err)
	}
	par := obs.New(obs.Config{})
	if _, err := Compile(u, Options{Obs: par, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"codegen.trees", "codegen.reduces", "codegen.asm_lines", "codegen.spills"} {
		if s, p := seq.Counter(c), par.Counter(c); s != p {
			t.Errorf("counter %s: sequential %d, parallel %d", c, s, p)
		}
	}
	sh, ph := seq.Histogram("codegen.tree_depth"), par.Histogram("codegen.tree_depth")
	if sh.Count != ph.Count || sh.Sum != ph.Sum || sh.Max != ph.Max {
		t.Errorf("tree_depth hist: sequential %+v, parallel %+v", sh, ph)
	}
	// Per-function transform/select spans end up aggregated under the
	// codegen span either way.
	var seqSel, parSel obs.PhaseStat
	for _, p := range seq.Phases() {
		if strings.HasSuffix(p.Path, "/select") || p.Path == "select" {
			seqSel = p
		}
	}
	for _, p := range par.Phases() {
		if strings.HasSuffix(p.Path, "/select") || p.Path == "select" {
			parSel = p
		}
	}
	if seqSel.Count == 0 || seqSel.Count != parSel.Count {
		t.Errorf("select span count: sequential %d, parallel %d", seqSel.Count, parSel.Count)
	}
}

// A unit that fails to compile must report the same first (lowest
// function index) error in both modes.
func TestParallelFirstErrorMatchesSequential(t *testing.T) {
	u, err := cfront.Compile(corpus.Large(8))
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage two functions with trees the matcher blocks on (Mod over
	// bytes has no production); the reported error must come from the
	// lower function index in both modes.
	block := `(Assign.b (Name.b x) (Mod.b (Name.b x) (Name.b x)))`
	for _, i := range []int{3, 5} {
		u.Funcs[i].Items = []ir.Item{{Kind: ir.ItemTree, Tree: ir.MustParse(block)}}
	}
	_, seqErr := Compile(u, Options{})
	_, parErr := Compile(u, Options{Workers: 4})
	if seqErr == nil || parErr == nil {
		t.Fatalf("expected errors, got sequential %v, parallel %v", seqErr, parErr)
	}
	if !strings.Contains(seqErr.Error(), "f3") {
		t.Errorf("sequential error is not from the first bad function: %v", seqErr)
	}
	if seqErr.Error() != parErr.Error() {
		t.Errorf("sequential err = %q, parallel err = %q", seqErr, parErr)
	}
}
