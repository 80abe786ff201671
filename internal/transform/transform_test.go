package transform

import (
	"strings"
	"testing"

	"ggcg/internal/cfront"
	"ggcg/internal/ir"
	"ggcg/internal/irinterp"
)

// transformed compiles and transforms a source program.
func transformed(t *testing.T, src string, opt Options) *ir.Unit {
	t.Helper()
	u, err := cfront.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	tu, err := Unit(u, opt)
	if err != nil {
		t.Fatal(err)
	}
	return tu
}

// checkPreserves interprets the program before and after transformation
// and compares results — the transformation phase must not change meaning.
func checkPreserves(t *testing.T, src string, args ...int64) int64 {
	t.Helper()
	u := cfront.MustCompile(src)
	before, err := irinterp.New(u).Call("main", args...)
	if err != nil {
		t.Fatalf("pre-transform: %v", err)
	}
	tu, err := Unit(u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	after, err := irinterp.New(tu).Call("main", args...)
	if err != nil {
		t.Fatalf("post-transform: %v", err)
	}
	if before != after {
		t.Errorf("transformation changed meaning: %d -> %d\n%s", before, after, src)
	}
	// Also without reverse operators.
	tu2, err := Unit(u, Options{NoReverseOps: true})
	if err != nil {
		t.Fatal(err)
	}
	after2, err := irinterp.New(tu2).Call("main", args...)
	if err != nil {
		t.Fatalf("post-transform (no reverse): %v", err)
	}
	if before != after2 {
		t.Errorf("no-reverse transformation changed meaning: %d -> %d", before, after2)
	}
	return after
}

var preservePrograms = []struct {
	name string
	src  string
	args []int64
}{
	{"arith", `int main(int x) { return (x + 3) * (x - 2) / 2; }`, []int64{10}},
	{"locals", `int main() { int a = 4; int b = 9; a = a * b + (b - a); return a; }`, nil},
	{"loops", `int main() { int i, s = 0; for (i = 0; i < 20; i++) if (i % 3 == 0) s += i; return s; }`, nil},
	{"shortcircuit", `
int g;
int bump() { g += 1; return g; }
int main() { g = 0; if (bump() > 0 && bump() > 1 || bump() > 10) g += 100; return g; }`, nil},
	{"ternary", `int main(int x) { return x > 5 ? x * 2 : x - 1; }`, []int64{3}},
	{"boolvalue", `int main(int x) { int b; b = x > 3; return b * 10 + (x == 7); }`, []int64{7}},
	{"calls", `
int sq(int x) { return x * x; }
int main() { return sq(3) + sq(4) * sq(2); }`, nil},
	{"nestedcalls", `
int add(int a, int b) { return a + b; }
int main() { return add(add(1, 2), add(3, 4)); }`, nil},
	{"incdec", `int main() { int i = 5, a; a = i++ * 2; a += --i * 10; return a * 100 + i; }`, nil},
	{"compound", `int main() { int x = 7; x += 3; x *= 2; x -= 5; x /= 3; return x; }`, nil},
	{"rightheavy", `
int g1, g2, g3, g4;
int main() { g1 = 1; g2 = 2; g3 = 3; g4 = 4; return g1 - (g2 + g3 * (g4 + g1 * (g2 + g3))); }`, nil},
	{"division", `int main(int x) { return x / 3 - x % 5; }`, []int64{-17}},
	{"unsigneddiv", `unsigned u; int main() { u = 0 - 7; return u % 1000; }`, nil},
	{"shifts", `int main(int x) { return (x << 4) + (x >> 2); }`, []int64{9}},
	{"pointers", `
int a[8];
int main() { int *p = a; int i; for (i = 0; i < 8; i++) p[i] = i; return a[3] + *(p + 5); }`, nil},
	{"floats", `
double d;
int main() { d = 0.5; d = d * 8 + 1; return (int)d; }`, nil},
	{"chained", `int a, b; int main() { a = b = 21; return a + b; }`, nil},
	{"deepexpr", `
int w, x, y, z;
int main() { w=1; x=2; y=3; z=4; return ((w+x)*(y+z) - (w*x+y*z)) * ((z-y)+(x-w)); }`, nil},
	{"condexprside", `int main() { int i = 0; if (i++ < 5) i += 10; return i; }`, nil},
	{"regvars", `int main() { register int i, s; s = 0; for (i = 1; i <= 6; i++) s += i; return s; }`, nil},
}

func TestTransformPreservesMeaning(t *testing.T) {
	for _, p := range preservePrograms {
		p := p
		t.Run(p.name, func(t *testing.T) { checkPreserves(t, p.src, p.args...) })
	}
}

// terms collects the linearized terminal strings of all trees in a unit.
func terms(u *ir.Unit) string {
	var b strings.Builder
	for _, f := range u.Funcs {
		for _, it := range f.Items {
			if it.Kind == ir.ItemTree {
				b.WriteString(ir.TermString(ir.Linearize(it.Tree)))
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

func TestControlFlowBecomesExplicit(t *testing.T) {
	u := transformed(t, `
int a, b;
int main() { if (a > 1 && b < 2 || !(a == b)) return 1; return 0; }`, Options{})
	s := terms(u)
	for _, banned := range []string{"AndAnd", "OrOr", "Not.", "Select"} {
		if strings.Contains(s, banned) {
			t.Errorf("%s survived phase 1a:\n%s", banned, s)
		}
	}
	if !strings.Contains(s, "CBranch Cmp.l") {
		t.Errorf("no Cmp branches produced:\n%s", s)
	}
}

func TestRelationalValueUsesRegisterTemps(t *testing.T) {
	u := transformed(t, `int x, r; int main() { r = x > 3; return r; }`, Options{})
	s := terms(u)
	if !strings.Contains(s, "RegUse.l") {
		t.Errorf("truth value did not use a phase-1 register:\n%s", s)
	}
	if !strings.Contains(s, "Assign.l Dreg.l") {
		t.Errorf("no assignment to a phase-1 register:\n%s", s)
	}
}

func TestCallsAreFactoredOut(t *testing.T) {
	u := transformed(t, `
int f(int x) { return x; }
int main() { return 1 + f(2) * f(3); }`, Options{})
	for _, fn := range u.Funcs {
		for _, it := range fn.Items {
			if it.Kind != ir.ItemTree {
				continue
			}
			// After phase 1a every Call is a leaf and is the direct child
			// of a statement root (Assign source or Ret) or the root.
			it.Tree.Walk(func(n *ir.Node) bool {
				if n.Op == ir.Call && len(n.Kids) != 0 {
					t.Errorf("call with embedded arguments survived: %s", it.Tree)
				}
				return true
			})
			if it.Tree.Op == ir.Plus || it.Tree.Op == ir.Mul {
				it.Tree.Walk(func(n *ir.Node) bool {
					if n.Op == ir.Call {
						t.Errorf("call embedded in expression: %s", it.Tree)
					}
					return true
				})
			}
		}
	}
	s := terms(u)
	if !strings.Contains(s, "Arg.l") {
		t.Errorf("no Arg statements emitted:\n%s", s)
	}
}

func TestReturnedCallStaysDirect(t *testing.T) {
	u := transformed(t, `
int f(int x) { return x; }
int main() { return f(5); }`, Options{})
	s := terms(u)
	if !strings.Contains(s, "Ret.l Call.l") {
		t.Errorf("returned call was not left in the return register:\n%s", s)
	}
}

func TestCanonicalization(t *testing.T) {
	u := transformed(t, `
int x, r;
int main() {
	r = x - 7;        /* becomes -7 + x */
	r = x * 5;        /* constant forced left */
	r = x << 3;       /* becomes 8 * x */
	return r;
}`, Options{})
	s := terms(u)
	if strings.Contains(s, "Minus.l") {
		t.Errorf("subtraction by constant not rewritten:\n%s", s)
	}
	if strings.Contains(s, "Lsh") {
		t.Errorf("constant shift not rewritten to multiply:\n%s", s)
	}
	if !strings.Contains(s, "Mul.l Eight") {
		t.Errorf("shift by 3 did not become multiply by Eight:\n%s", s)
	}
	// Every Plus/Mul with a constant child must have it on the left.
	for _, f := range u.Funcs {
		for _, it := range f.Items {
			if it.Kind != ir.ItemTree {
				continue
			}
			it.Tree.Walk(func(n *ir.Node) bool {
				if (n.Op == ir.Plus || n.Op == ir.Mul) && len(n.Kids) == 2 {
					if n.Kids[1].Op == ir.Const && n.Kids[0].Op != ir.Const {
						t.Errorf("constant on the right of %v: %s", n.Op, n)
					}
				}
				return true
			})
		}
	}
}

func TestReverseOperatorsIntroduced(t *testing.T) {
	// The left side of the division computes into a register (need 1) and
	// the right side needs two, so evaluation is reordered (§5.1.3).
	src := `
int g1, g2, g3, g4;
int main() { g1 = 1; g2 = 2; g3 = 3; g4 = 4; return (g1 + g2) / ((g2 + g3) * (g1 + g4)); }`
	u := transformed(t, src, Options{})
	s := terms(u)
	if !strings.Contains(s, "RDiv.l") {
		t.Errorf("right-heavy division did not become RDiv:\n%s", s)
	}
	u2 := transformed(t, src, Options{NoReverseOps: true})
	if strings.Contains(terms(u2), "RDiv.l") {
		t.Error("NoReverseOps still produced a reverse operator")
	}
}

// TestStatsCount: each function's hand-off carries the operand exchanges
// and reversals phase 1c made in it.
func TestStatsCount(t *testing.T) {
	u := cfront.MustCompile(`
int a, b, c, d;
int main() { return (a + b) - ((b + c) * (a + d)); }`)
	for _, tc := range []struct {
		opt      Options
		reversed bool
	}{{Options{}, true}, {Options{NoReverseOps: true}, false}} {
		p := AcquirePass()
		h, err := p.Func(u.Funcs[0], tc.opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st := h.Stats; (st.Reversed > 0) != tc.reversed {
			t.Errorf("%+v: stats = %+v, want reversals: %v", tc.opt, st, tc.reversed)
		}
		p.Release()
	}
}

func TestAutoIncrementSurvivesForRegisterPointers(t *testing.T) {
	u := transformed(t, `
int a[4];
int main() {
	register int *p;
	int s = 0;
	p = a;
	a[0] = 1; a[1] = 2;
	s = *p++;
	s += *p++;
	return s;
}`, Options{})
	s := terms(u)
	if !strings.Contains(s, "PostInc.ul Dreg.ul Four") && !strings.Contains(s, "PostInc.l Dreg.l Four") {
		t.Errorf("autoincrement mode lost:\n%s", s)
	}
	// Meaning preserved, too.
	r, err := irinterp.New(u).Call("main")
	if err != nil {
		t.Fatal(err)
	}
	if r != 3 {
		t.Errorf("main = %d, want 3", r)
	}
}

func TestMemoryIncrementIsRewritten(t *testing.T) {
	u := transformed(t, `int i; int main() { i++; return i; }`, Options{})
	s := terms(u)
	if strings.Contains(s, "PostInc") {
		t.Errorf("memory increment survived phase 1a:\n%s", s)
	}
}

func TestZeroComparisonNormalized(t *testing.T) {
	u := transformed(t, `int x; int main() { if (0 < x) return 1; return 0; }`, Options{})
	s := terms(u)
	if !strings.Contains(s, "Indir.l Name.l Zero") {
		t.Errorf("zero not moved to the right of the comparison:\n%s", s)
	}
}

func TestDeadExpressionDropped(t *testing.T) {
	u := transformed(t, `int x; int main() { x + 3; return x; }`, Options{})
	for _, it := range u.Funcs[0].Items {
		if it.Kind == ir.ItemTree && it.Tree.Op == ir.Plus {
			t.Error("side-effect-free expression statement survived")
		}
	}
}

func TestFrameGrowsForTemps(t *testing.T) {
	u := cfront.MustCompile(`
int f(int x) { return x; }
int main() { return f(1) + f(2) + f(3); }`)
	before := u.Funcs[1].TotalFrame()
	tu, err := Unit(u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tu.Funcs[1].TotalFrame() <= before {
		t.Error("call factoring did not allocate temporaries")
	}
}

func TestLabelsDoNotCollide(t *testing.T) {
	u := transformed(t, `
int main(int x) {
	int i, s = 0;
	for (i = 0; i < 3; i++) { if (x > 0 && i > 0) s += i; }
	return s;
}`, Options{})
	// Execute to verify control flow is intact.
	r, err := irinterp.New(u).Call("main", 1)
	if err != nil {
		t.Fatal(err)
	}
	if r != 3 {
		t.Errorf("main = %d, want 3", r)
	}
	seen := map[int]bool{}
	for _, it := range u.Funcs[0].Items {
		if it.Kind == ir.ItemLabel {
			if seen[it.Label] {
				t.Errorf("label L%d defined twice", it.Label)
			}
			seen[it.Label] = true
		}
	}
}
