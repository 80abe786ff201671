package codegen

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ggcg/internal/cfront"
	"ggcg/internal/corpus"
	"ggcg/internal/irinterp"
	"ggcg/internal/obs"
	"ggcg/internal/pcc"
	"ggcg/internal/peep"
	"ggcg/internal/vaxsim"
)

// TestDifferentialWithPeephole re-runs the whole corpus with the peephole
// optimizer enabled (§6.1's alternative organization) and checks that the
// optimized code still agrees with the oracle and never grows.
func TestDifferentialWithPeephole(t *testing.T) {
	totalBefore, totalAfter := 0, 0
	for _, p := range corpus.Programs() {
		u, err := cfront.Compile(p.Src)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		plain, err := Compile(u, Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		opt, err := Compile(u, Options{Peephole: true})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if opt.Stats.AsmLines > plain.Stats.AsmLines {
			t.Errorf("%s: peephole grew the code: %d -> %d lines",
				p.Name, plain.Stats.AsmLines, opt.Stats.AsmLines)
		}
		totalBefore += plain.Stats.AsmLines
		totalAfter += opt.Stats.AsmLines
		prog, err := vaxsim.Assemble(opt.Asm)
		if err != nil {
			t.Fatalf("%s: optimized output does not assemble: %v\n%s", p.Name, err, opt.Asm)
		}
		got, err := vaxsim.New(prog).Call("_main", p.Args...)
		if err != nil {
			t.Fatalf("%s: optimized output does not run: %v\n%s", p.Name, err, opt.Asm)
		}
		if got != p.Want {
			t.Errorf("%s: optimized code returned %d, want %d\nbefore:\n%s\nafter:\n%s",
				p.Name, got, p.Want, plain.Asm, opt.Asm)
		}
	}
	t.Logf("peephole over the corpus: %d -> %d instructions (%.1f%% removed)",
		totalBefore, totalAfter, float64(totalBefore-totalAfter)/float64(totalBefore)*100)
}

// TestPeepholeRandomDifferential runs random programs through the
// optimizer.
func TestPeepholeRandomDifferential(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(100); seed < int64(100+seeds); seed++ {
		src := corpus.Random(seed)
		u, err := cfront.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		oracle, err := irinterp.New(u).Call("main")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := Compile(u, Options{Peephole: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prog, err := vaxsim.Assemble(res.Asm)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := vaxsim.New(prog).Call("_main")
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, res.Asm)
		}
		if got != oracle {
			t.Errorf("seed %d: peephole output %d, oracle %d\nsource:\n%s\nasm:\n%s",
				seed, got, oracle, src, res.Asm)
		}
	}
}

// TestPeepholeOnBaseline exercises the organization §6.1 actually
// proposes: a simpler code generator (the ad hoc baseline, which knows no
// autoincrement or condition-code tricks) followed by the peephole
// optimizer. The optimized baseline must stay correct and should improve
// more than the already-tight table-driven output does.
func TestPeepholeOnBaseline(t *testing.T) {
	ggGain, baseGain := 0, 0
	for _, p := range corpus.Programs() {
		u, err := cfront.Compile(p.Src)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		base, err := pcc.Compile(u)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		optAsm, pst := peep.Optimize(base.Asm)
		baseGain += pst.LinesRemoved
		prog, err := vaxsim.Assemble(optAsm)
		if err != nil {
			t.Fatalf("%s: %v\n%s", p.Name, err, optAsm)
		}
		got, err := vaxsim.New(prog).Call("_main", p.Args...)
		if err != nil {
			t.Fatalf("%s: %v\n%s", p.Name, err, optAsm)
		}
		if got != p.Want {
			t.Errorf("%s: optimized baseline returned %d, want %d\nbefore:\n%s\nafter:\n%s",
				p.Name, got, p.Want, base.Asm, optAsm)
		}
		gg, err := Compile(u, Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		_, gst := peep.Optimize(gg.Asm)
		ggGain += gst.LinesRemoved
	}
	t.Logf("peephole removed %d instructions from the baseline vs %d from the table-driven output",
		baseGain, ggGain)
	if baseGain < ggGain {
		t.Errorf("expected the simpler generator to leave more for the peephole: baseline %d vs table-driven %d",
			baseGain, ggGain)
	}
}

// TestPeepholeLargeProgram checks the large program and reports the rule
// application counts.
func TestPeepholeLargeProgram(t *testing.T) {
	u := cfront.MustCompile(corpus.Large(30))
	oracle, err := irinterp.New(u).Call("main")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(u, Options{Peephole: true})
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
		t.Errorf("got %d, oracle %d", got, oracle)
	}
	t.Logf("peephole on Large(30): %s", res.Stats.Peephole)
}

// TestCountPeepCoversStats: every numeric peep.Stats field reaches its own
// observer counter, so no rule application goes unreported in reports,
// events or ggcd /metrics.
func TestCountPeepCoversStats(t *testing.T) {
	var st peep.Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		if !v.Field(i).CanInt() {
			t.Fatalf("peep.Stats.%s is not numeric", v.Type().Field(i).Name)
		}
		v.Field(i).SetInt(int64(101 + i))
	}
	o := obs.New(obs.Config{})
	CountPeep(o, st)
	var report strings.Builder
	o.WriteReport(&report)
	byValue := make(map[int64]string)
	for _, line := range strings.Split(report.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || !strings.HasPrefix(f[0], "peep.") {
			continue
		}
		n, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			t.Fatalf("counter line %q: %v", line, err)
		}
		byValue[n] = f[0]
	}
	for i := 0; i < v.NumField(); i++ {
		if _, ok := byValue[int64(101+i)]; !ok {
			t.Errorf("peep.Stats.%s has no peep.* counter", v.Type().Field(i).Name)
		}
	}
	if len(byValue) != v.NumField() {
		t.Errorf("%d peep.* counters for %d Stats fields: %v", len(byValue), v.NumField(), byValue)
	}
}
