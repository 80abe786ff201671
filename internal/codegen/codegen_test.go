package codegen

import (
	"strings"
	"testing"

	"ggcg/internal/cfront"
	"ggcg/internal/corpus"
	"ggcg/internal/irinterp"
	"ggcg/internal/obs"
	"ggcg/internal/transform"
	"ggcg/internal/vaxsim"
)

// TestDifferentialCorpus is the central correctness experiment: every
// corpus program is compiled by the table-driven code generator, executed
// on the VAX simulator, and checked against both the expected value and
// the IR interpreter oracle — replacing the validation suites of §8.
func TestDifferentialCorpus(t *testing.T) {
	for _, p := range corpus.Programs() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			u, err := cfront.Compile(p.Src)
			if err != nil {
				t.Fatalf("front end: %v", err)
			}
			oracle, err := irinterp.New(u).Call("main", p.Args...)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			if oracle != p.Want {
				t.Fatalf("oracle disagrees with corpus: %d vs %d", oracle, p.Want)
			}
			res, err := Compile(u, Options{})
			if err != nil {
				t.Fatalf("code generator: %v", err)
			}
			prog, err := vaxsim.Assemble(res.Asm)
			if err != nil {
				t.Fatalf("assembler: %v\n%s", err, res.Asm)
			}
			got, err := vaxsim.New(prog).Call("_main", p.Args...)
			if err != nil {
				t.Fatalf("simulator: %v\n%s", err, res.Asm)
			}
			if got != p.Want {
				t.Errorf("generated code returned %d, want %d\n%s", got, p.Want, res.Asm)
			}
		})
	}
}

// TestDifferentialNoReverseOps re-runs the corpus with reverse operators
// disabled, the E4 ablation configuration.
func TestDifferentialNoReverseOps(t *testing.T) {
	opt := Options{Transform: transform.Options{NoReverseOps: true}}
	for _, p := range corpus.Programs() {
		u, err := cfront.Compile(p.Src)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		res, err := Compile(u, opt)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		prog, err := vaxsim.Assemble(res.Asm)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		got, err := vaxsim.New(prog).Call("_main", p.Args...)
		if err != nil {
			t.Fatalf("%s: %v\n%s", p.Name, err, res.Asm)
		}
		if got != p.Want {
			t.Errorf("%s: got %d, want %d", p.Name, got, p.Want)
		}
	}
}

// TestLargeProgram compiles and runs the deterministic large program,
// checking it against the oracle.
func TestLargeProgram(t *testing.T) {
	src := corpus.Large(20)
	u, err := cfront.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := irinterp.New(u).Call("main")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := vaxsim.Assemble(res.Asm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := vaxsim.New(prog).Call("_main")
	if err != nil {
		t.Fatal(err)
	}
	if got != oracle {
		t.Errorf("large program: generated %d, oracle %d", got, oracle)
	}
	t.Logf("large(20): result=%d asm lines=%d shifts=%d reduces=%d", got,
		res.Stats.AsmLines, res.Stats.Matcher.Shifts, res.Stats.Matcher.Reduces)
}

// TestTraceProducesAppendixStyleListing checks the shift/reduce trace for
// the appendix expression.
func TestTraceProducesAppendixStyleListing(t *testing.T) {
	u := cfront.MustCompile(`
long a;
int main() { char b; b = 100; a = 27 + b; return a; }`)
	var events []string
	o := obs.New(obs.Config{})
	o.SetTraceSink(func(e obs.TraceEvent) { events = append(events, e.String()) })
	_, err := Compile(u, Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(events, "\n")
	for _, want := range []string{
		"shift  Assign.l",
		"shift  Name.l",
		"shift  Plus.l",
		"shift  Const.b",
		"shift  Indir.b",
		"accept",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace missing %q", want)
		}
	}
}

// TestStatsPopulated checks that compilation statistics flow through.
func TestStatsPopulated(t *testing.T) {
	u := cfront.MustCompile(`
int a[10];
int main() {
	int i, s = 0;
	for (i = 0; i < 10; i++) { a[i] = i; s += a[i] + 1; }
	return s;
}`)
	res, err := Compile(u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Matcher.Trees == 0 || st.Matcher.Shifts == 0 || st.Matcher.Reduces == 0 {
		t.Errorf("matcher stats empty: %+v", st.Matcher)
	}
	if st.AsmLines == 0 {
		t.Error("no assembly lines counted")
	}
	if st.BindingIdioms == 0 {
		t.Errorf("expected binding idioms on this program, stats: %+v", st)
	}
}
