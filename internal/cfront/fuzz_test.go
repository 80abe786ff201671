package cfront

import (
	"regexp"
	"strings"
	"testing"

	"ggcg/internal/corpus"
)

// positioned is the shape of every error the front end reports.
var positioned = regexp.MustCompile(`^cfront: line [0-9]+: `)

// FuzzFrontEnd feeds the front end arbitrary bytes. Whatever the input,
// Compile must return — never panic, never overflow the stack — with
// either a unit or a positioned error, never both and never neither.
func FuzzFrontEnd(f *testing.F) {
	for _, p := range corpus.Programs() {
		f.Add([]byte(p.Src))
	}
	// Inputs just past the nesting budget, along each recursive path.
	n := maxNesting + 1
	for _, deep := range []string{
		"int main() { return " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "; }",
		"int main() { return " + strings.Repeat("- ", n) + "1; }",
		"int main() { " + strings.Repeat("{", n) + strings.Repeat("}", n) + " return 0; }",
		"int main() { " + strings.Repeat("if (1) ", n) + "return 1; return 0; }",
		"int main() { int a; " + strings.Repeat("a = ", n) + "1; return a; }",
		"int main() { return " + strings.Repeat("1 ? 1 : ", n) + "0; }",
		"int a[2]; int main() { return " + strings.Repeat("a[", n) + "0" + strings.Repeat("]", n) + "; }",
	} {
		f.Add([]byte(deep))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		u, err := Compile(string(src))
		switch {
		case err != nil && u != nil:
			t.Fatalf("both a unit and an error: %v", err)
		case err != nil && !positioned.MatchString(err.Error()):
			t.Fatalf("unpositioned error: %q", err)
		case err == nil && u == nil:
			t.Fatal("neither a unit nor an error")
		}
	})
}
