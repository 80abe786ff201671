package kernels

import (
	"testing"

	"ggcg"
	"ggcg/internal/cfront"
	"ggcg/internal/irinterp"
)

// TestTargetsAgreeWithReference compiles every kind of kernel for both
// targets, runs it on the target's simulator and compares main() with the
// IR interpreter, which shares no code with the code generators. It also
// holds every kernel inside the size band the workload is tuned for.
func TestTargetsAgreeWithReference(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		for _, k := range Generate(seed, len(Kinds)) {
			u, err := cfront.Compile(k.Src)
			if err != nil {
				t.Fatalf("%s: front end: %v", k.Name, err)
			}
			want, err := irinterp.New(u).Call("main")
			if err != nil {
				t.Fatalf("%s: reference: %v", k.Name, err)
			}
			for _, target := range []string{"vax", "risc"} {
				out, err := ggcg.Compile(k.Src, ggcg.Config{Target: target, Peephole: true})
				if err != nil {
					t.Fatalf("%s/%s: compile: %v", k.Name, target, err)
				}
				sim, err := ggcg.NewSim(target, out.Asm)
				if err != nil {
					t.Fatalf("%s/%s: assemble: %v", k.Name, target, err)
				}
				got, err := sim.Call("_main")
				if err != nil {
					t.Fatalf("%s/%s: run: %v", k.Name, target, err)
				}
				if got != want {
					t.Errorf("%s/%s: main() = %d, reference %d", k.Name, target, got, want)
				}
				if n := sim.Steps(); n < 50_000 || n > 1_000_000 {
					t.Errorf("%s/%s: %d simulated instructions, outside [50k, 1M]", k.Name, target, n)
				}
				t.Logf("%s/%s: main() = %d in %d instructions", k.Name, target, got, sim.Steps())
			}
		}
	}
}

func TestGenerateIsSeeded(t *testing.T) {
	a, b := Generate(1, 12), Generate(1, 12)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("kernel %d differs between two draws of seed 1", i)
		}
	}
	c := Generate(2, 12)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 1 and 2 drew identical kernel sets")
	}
}
