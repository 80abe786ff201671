package codegen

import (
	"testing"

	"ggcg/internal/cfront"
	"ggcg/internal/vaxsim"
)

func TestTablesBuild(t *testing.T) {
	tb, err := builtVAX()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("states=%d prods=%d terms=%d nts=%d conflicts=%d semblocks=%d",
		tb.Stats.States, len(tb.Grammar.Prods), len(tb.Terms), len(tb.Nonterms),
		len(tb.Conflicts), len(tb.SemBlocks))
	if len(tb.SemBlocks) != 0 {
		t.Errorf("VAX description must have no semantic blocks (§6.3): %v", tb.SemBlocks)
	}
}

func compileAndRun(t *testing.T, src string, args ...int64) (int64, *Result) {
	t.Helper()
	u, err := cfront.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(u, Options{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	p, err := vaxsim.Assemble(res.Asm)
	if err != nil {
		t.Fatalf("assembling generated code: %v\n%s", err, res.Asm)
	}
	m := vaxsim.New(p)
	r, err := m.Call("_main", args...)
	if err != nil {
		t.Fatalf("executing generated code: %v\n%s", err, res.Asm)
	}
	return r, res
}

func TestSmokeReturn(t *testing.T) {
	r, res := compileAndRun(t, `int main() { return 42; }`)
	if r != 42 {
		t.Errorf("main = %d, want 42\n%s", r, res.Asm)
	}
	t.Logf("asm:\n%s", res.Asm)
}

func TestSmokeAppendix(t *testing.T) {
	r, res := compileAndRun(t, `
long a;
int main() {
	char b;
	b = 100;
	a = 27 + b;
	return a;
}`)
	if r != 127 {
		t.Errorf("main = %d, want 127\n%s", r, res.Asm)
	}
	t.Logf("asm:\n%s", res.Asm)
}
