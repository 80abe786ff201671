package vaxsim_test

import (
	"testing"

	"ggcg"
)

// TestProgramFunctionShadowsBuiltin: a C function named udiv or urem is
// the program's own code (_udiv, _urem at the assembler level), so a call
// to it must run it, not the simulator's unsigned-division builtin of the
// same name. Both targets must agree.
func TestProgramFunctionShadowsBuiltin(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want int64
	}{
		{`int udiv(int a, int b) { return 7; } int main() { return udiv(1, 2); }`, 7},
		{`int urem(int a, int b) { return 3; } int main() { return urem(5, 0); }`, 3},
	} {
		for _, target := range []string{"vax", "risc"} {
			out, err := ggcg.Compile(tc.src, ggcg.Config{Target: target})
			if err != nil {
				t.Fatalf("%s: %v", target, err)
			}
			s, err := ggcg.NewSim(target, out.Asm)
			if err != nil {
				t.Fatalf("%s: %v", target, err)
			}
			r, err := s.Call("_main")
			if err != nil {
				t.Errorf("%s: %s: %v", target, tc.src, err)
				continue
			}
			if r != tc.want {
				t.Errorf("%s: %s: main() = %d, want %d", target, tc.src, r, tc.want)
			}
		}
	}
}
