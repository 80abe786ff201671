package ggcg

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ggcg/internal/cfront"
	"ggcg/internal/ir"
)

// cfrontGolden is the shape of testdata/cfront_golden.json: a digest per
// unit that compiles, and the exact error text per malformed source.
type cfrontGolden struct {
	Units  map[string]string `json:"units"`
	Errors map[string]string `json:"errors"`
}

// cfrontEdgeUnits are small valid sources that exercise every binary
// precedence level, associativity, constant folding across levels and
// nesting deep enough to matter but inside any sane budget.
func cfrontEdgeUnits() []peepGoldenUnit {
	wrap := func(body string) string {
		return "int g; unsigned u; double d; float f; char c; short s; int a[8]; int *p; int *q;\n" +
			"int h(int x) { return x; }\nint main() { int x = 3, y = 5; register int r = 2; " + body + " }\n"
	}
	exprs := []string{
		"1 || 2 && 3 | 4 ^ 5 & 6 == 7 != 8 < 9 <= 10 > 11 >= 12 << 1 >> 2 + 3 - 4 * 5 / 6 % 7",
		"x * y / 3 % 4 - x + y << 1 >> 1 < x > y <= 1 >= 2 == 0 != 1 & x ^ y | 7 && x || y",
		"x - y - 1 - 2", "x / y / 2", "x << y << 1", "x < y < 1", "x == y == 1", "x && y && 1 || 0 || x",
		"1 + 2 * 3 - 4 / 2 % 3", "(1 << 3) | (6 ^ 3) & 5", "-x * -y + ~x - !y", "u >> 2 + u << 1",
		"u * 3 % 7 + u / 2", "d * 2 + f - 1.5 / d", "d < f || f > 1.0 && d != 0", "c + s * g - x",
		"p - q + (p < q) + (p == q) + *p", "*(p + 2) + p[1] + a[3] + *a", "x ? y : g ? 1 : 2",
		"x = y = g = 7", "x += y -= 2", "x *= y + 1 << 2", "x <<= y >>= 1", "x %= 3 | y",
		"h(x + y * 2) + h(h(1) && h(0))", "(x, y, g + 1)", "sizeof(int) * sizeof x + sizeof(double *)",
		"(char)x + (short)y * (unsigned)g + (double)x / (float)y", "r++ + ++r - r-- - --r",
		"x & 0xff | 0x100 ^ y", "1.5 << 2", "x > 0 ? x * 2 : -x % 3", "!x == !y",
		"((((((((((((((((((((x + 1))))))))))))))))))))",
		"- - - - - - - - - - - - - - - - - - - - x",
		"~ ~ ~ ~ ~ ~ ~ ~ ~ ~ ! ! ! ! ! ! ! ! ! ! x",
	}
	var units []peepGoldenUnit
	for i, e := range exprs {
		units = append(units, peepGoldenUnit{fmt.Sprintf("edge/%02d", i), wrap("return " + e + ";")})
	}
	units = append(units,
		peepGoldenUnit{"edge/blocks", wrap(strings.Repeat("{ x++; ", 60) + strings.Repeat("}", 60) + " return x;")},
		peepGoldenUnit{"edge/ifs", wrap(strings.Repeat("if (x) ", 60) + "x = 1; return x;")},
		peepGoldenUnit{"edge/loops", wrap(strings.Repeat("while (x--) ", 20) + strings.Repeat("for (;y;y--) ", 20) + "g++; return g;")},
		peepGoldenUnit{"edge/parens", wrap("return " + strings.Repeat("(", 200) + "x" + strings.Repeat(")", 200) + ";")},
		peepGoldenUnit{"edge/index", wrap("return " + strings.Repeat("a[", 30) + "0" + strings.Repeat("]", 30) + ";")},
		peepGoldenUnit{"edge/calls", wrap("return " + strings.Repeat("h(", 60) + "1" + strings.Repeat(")", 60) + ";")},
		peepGoldenUnit{"edge/assigns", wrap(strings.Repeat("x = ", 60) + "1; return x;")},
		peepGoldenUnit{"edge/conds", wrap("return " + strings.Repeat("x ? 1 : ", 60) + "2;")},
		peepGoldenUnit{"edge/casts", wrap("return " + strings.Repeat("(int)", 60) + "x;")},
	)
	return units
}

// cfrontBadSources are malformed units, each rejected by the front end
// with a positioned error.
var cfrontBadSources = []string{
	// Missing closers and separators.
	`int main() { return (1 + 2; }`,
	`int a[4]; int main() { return a[1; }`,
	`int main() { return 1 ? 2 ; }`,
	`int main() { return 0 }`,
	`int main() { int x x = 1; return 0; }`,
	`int main() { if (1 return 0; }`,
	`int main() { return h(1, 2; }`,
	`int main() { return 0;`,
	`int main() { do x; return 0; }`,
	`int main() { for (;;) }`,
	// Type errors in operators.
	`int main() { return 1.5 % 2; }`,
	`int main() { double d; return 3 % d; }`,
	`int main() { double d; d %= 2; return 0; }`,
	`int main() { double d; return d & 1; }`,
	`int main() { 3 = 4; return 0; }`,
	`int main() { 3 += 4; return 0; }`,
	`int main() { int x; (x + 1) = 2; return 0; }`,
	`int main() { int x; x + 1 += 2; return 0; }`,
	`int main() { return ++3; }`,
	`int main() { return 3--; }`,
	`int main() { double d; d++; return 0; }`,
	`int main() { int *p; return ~p; }`,
	`int main() { return ~1.5; }`,
	`int main() { int x; return *x; }`,
	`int main() { return &3; }`,
	`int main() { register int r; return *(&r); }`,
	`int main() { int *p; int *q; return p + q; }`,
	`int main() { int *p; return 1 - p; }`,
	`int main() { int *p; return *(p + 1.5); }`,
	`int main() { int x; return x[1]; }`,
	`int a[4]; int main() { return a[1.5]; }`,
	// Casts.
	`int main() { return (unsigned double) 1; }`,
	`int main() { return (int); }`,
	`int main() { return (int * 3); }`,
	`int main() { return (void) ; }`,
	// Names.
	`int main() { return x; }`,
	`int main() { return main; }`,
	`int g; int main() { return g(1); }`,
	`int f(int a, int b) { return a; } int main() { return f(1); }`,
	`int main() { else; }`,
	// A stray operator at each precedence level, and where an operand
	// should start.
	`int main() { return 1 || ; }`,
	`int main() { return 1 && ; }`,
	`int main() { return 1 | ; }`,
	`int main() { return 1 ^ ; }`,
	`int main() { return 1 & ; }`,
	`int main() { return 1 == ; }`,
	`int main() { return 1 != ; }`,
	`int main() { return 1 < ; }`,
	`int main() { return 1 <= ; }`,
	`int main() { return 1 > ; }`,
	`int main() { return 1 >= ; }`,
	`int main() { return 1 << ; }`,
	`int main() { return 1 >> ; }`,
	`int main() { return 1 + ; }`,
	`int main() { return 1 - ; }`,
	`int main() { return 1 * ; }`,
	`int main() { return 1 / ; }`,
	`int main() { return 1 % ; }`,
	`int main() { return 1 ? : 2; }`,
	`int main() { int x; x = ; return 0; }`,
	`int main() { int x; x += ; return 0; }`,
	`int main() { return || 1; }`,
	`int main() { return / 2; }`,
	`int main() { return 1 + * ; }`,
	`int main() { return 1 2; }`,
	`int main() { return (1, ); }`,
	`int main() { int x; return x = = 1; }`,
	// Statements and declarations.
	`int main() { break; return 0; }`,
	`int main() { continue; }`,
	`int main() { case 1: return 0; }`,
	`int main(int v) { switch (v) { case 1: case 1: return 1; } return 0; }`,
	`int main(int v) { switch (v) { default: default: return 1; } return 0; }`,
	`int main() { double d; switch (d) { case 1: return 1; } return 0; }`,
	`int x; int main() { switch (x) { case x: return 1; } return 0; }`,
	`int main() { register double d; return 0; }`,
	`int main() { register x; return 0; }`,
	`int main() { do ; until (1); }`,
	`int a; int a; int main() { return 0; }`,
	`void v; int main() { return 0; }`,
	`int f(float x) { return 0; } int main() { return 0; }`,
	`int f() { return 1; } int f() { return 2; } int main() { return 0; }`,
	`void f() { return 3; } int main() { return 0; }`,
	`int a[0]; int main() { return 0; }`,
	`int a[2] = 1; int main() { return 0; }`,
	`int g = x; int main() { return 0; }`,
	`int main() { unsigned void v; return 0; }`,
	`int main() { return sizeof(int; }`,
	`main() { return 0; }`,
	`int main() { int 3; }`,
	// Errors reported past the first line.
	"int main() {\n\tint x;\n\treturn x +\n\t;\n}",
	"int main()\n{\n\treturn (1\n\t+ 2;\n}",
	"int g;\n/* a\ncomment */ int main() {\n\tg = g %\n 1.0; return 0; }",
	"int main() {\n\tif (1) {\n\t\twhile (0) {\n\t\t\t3 = 4;\n\t\t}\n\t}\n}",
	// Lexical errors.
	"int main() { return 0; } @",
	`int main() { return 'a; }`,
	`int main() { return '\q'; }`,
	`int main() { return 1e+; }`,
}

// cfrontDigest hashes what the front end produced for one unit: the
// globals, and per function its name, frame size and item sequence (label
// ids and the s-expression of each tree).
func cfrontDigest(u *ir.Unit) string {
	h := sha256.New()
	for _, g := range u.Globals {
		fmt.Fprintf(h, "global %+v\n", g)
	}
	for _, f := range u.Funcs {
		fmt.Fprintf(h, "func %s %d\n", f.Name, f.FrameSize)
		for _, it := range f.Items {
			if it.Kind == ir.ItemLabel {
				fmt.Fprintf(h, "L%d\n", it.Label)
				continue
			}
			fmt.Fprintf(h, "%s\n", it.Tree)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cfrontGoldenRun compiles every golden unit and malformed source.
func cfrontGoldenRun(t *testing.T) cfrontGolden {
	t.Helper()
	got := cfrontGolden{Units: map[string]string{}, Errors: map[string]string{}}
	for _, u := range append(peepGoldenUnits(400), cfrontEdgeUnits()...) {
		unit, err := cfront.Compile(u.src)
		if err != nil {
			t.Fatalf("%s: %v", u.name, err)
		}
		got.Units[u.name] = cfrontDigest(unit)
	}
	for _, src := range cfrontBadSources {
		_, err := cfront.Compile(src)
		if err == nil {
			t.Errorf("compiled successfully: %s", src)
			continue
		}
		got.Errors[src] = err.Error()
	}
	return got
}

// TestCfrontGolden: the front end's output for every golden unit and its
// error text for every malformed source match testdata/cfront_golden.json,
// recorded from the recursive-descent cascade the precedence table
// replaced, so a change to how cfront parses cannot change what it builds
// or reports.
func TestCfrontGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "cfront_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want cfrontGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got := cfrontGoldenRun(t)
	compare := func(kind string, want, got map[string]string) {
		for key, w := range want {
			if g, ok := got[key]; !ok {
				t.Errorf("%s %q: not run", kind, key)
			} else if g != w {
				t.Errorf("%s %q: got %q, want %q", kind, key, g, w)
			}
		}
		for key := range got {
			if _, ok := want[key]; !ok {
				t.Errorf("%s %q: nothing recorded", kind, key)
			}
		}
	}
	compare("unit", want.Units, got.Units)
	compare("error", want.Errors, got.Errors)
}
