package ggcg

import (
	"errors"
	"strings"
	"testing"

	"ggcg/internal/cfront"
)

// TestNestingBudget: input nested far past the front end's nesting budget
// — along every recursive path of the parser — comes back from Compile as
// a positioned *cfront.LimitError on both targets, never as a stack
// overflow.
func TestNestingBudget(t *testing.T) {
	const million = 1000000
	cases := []struct{ name, src string }{
		{"parentheses", "int main() { return " + strings.Repeat("(", million) + "1" + strings.Repeat(")", million) + "; }"},
		{"unary minus", "int main() { return " + strings.Repeat("- ", million) + "1; }"},
		{"blocks", "int main() { " + strings.Repeat("{", million) + strings.Repeat("}", million) + " return 0; }"},
		{"if chain", "int main() { " + strings.Repeat("if (1) ", million) + "return 1; return 0; }"},
		{"assignment chain", "int main() { int a; " + strings.Repeat("a = ", million/10) + "1; return a; }"},
	}
	for _, tc := range cases {
		for _, tgt := range []string{"vax", "risc"} {
			_, err := Compile(tc.src, Config{Target: tgt})
			var le *cfront.LimitError
			if !errors.As(err, &le) {
				t.Errorf("%s/%s: got %v, want a *cfront.LimitError", tc.name, tgt, err)
				continue
			}
			if le.Line != 1 || le.Limit <= 0 || !strings.HasPrefix(err.Error(), "cfront: line 1: ") {
				t.Errorf("%s/%s: %+v (%v)", tc.name, tgt, *le, err)
			}
		}
	}
}
