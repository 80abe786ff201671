package diffexec

import (
	"errors"
	"strings"
	"testing"

	"ggcg/internal/progen"
)

// TestCheckSeeds sweeps the full oracle lattice over generated programs.
// This is the tier-1 face of the differential gate; cmd/ggfuzz and the
// fuzz targets run the same harness at larger scale.
func TestCheckSeeds(t *testing.T) {
	n := int64(30)
	if testing.Short() {
		n = 5
	}
	for seed := int64(0); seed < n; seed++ {
		if err := CheckSeed(seed, Config{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// breakOracle returns a Config whose fault injection miscompiles exactly
// one oracle: the first ret gains an extra increment of r0, changing the
// returned value of whichever function appears first.
func breakOracle(target string) Config {
	return Config{MutateAsm: func(oracle, asm string) string {
		if oracle != target {
			return asm
		}
		return strings.Replace(asm, "\tret", "\taddl2\t$1,r0\n\tret", 1)
	}}
}

// TestInjectedFaultCaughtAndShrunk is the acceptance check from the issue:
// a deliberately broken oracle must be caught, attributed to the right
// pair, and shrunk to a ≤10-line reproducer that reports its seed.
func TestInjectedFaultCaughtAndShrunk(t *testing.T) {
	for _, target := range []string{OracleGG, OracleGGPeep, OraclePCC} {
		err := CheckSeed(1, breakOracle(target))
		if err == nil {
			t.Fatalf("injected fault in %s not caught", target)
		}
		var f *Failure
		if !errors.As(err, &f) {
			t.Fatalf("injected fault in %s: error is %T, want *Failure", target, err)
		}
		if f.Seed != 1 {
			t.Errorf("%s: Seed = %d, want 1", target, f.Seed)
		}
		wantPair := target + " vs " + OracleRef
		if f.Mismatch == nil || f.Mismatch.Pair != wantPair {
			t.Fatalf("%s: mismatch %+v, want pair %q", target, f.Mismatch, wantPair)
		}
		if f.Lines > 10 {
			t.Errorf("%s: reproducer is %d lines, want ≤ 10:\n%s", target, f.Lines, f.Source)
		}
		msg := f.Error()
		if !strings.Contains(msg, "seed 1") || !strings.Contains(msg, "ggfuzz -seed 1") {
			t.Errorf("%s: failure message does not report the seed:\n%s", target, msg)
		}
		if !strings.Contains(msg, f.Source) {
			t.Errorf("%s: failure message does not include the reduced source", target)
		}
	}
}

// TestInjectedByteFaultCaught covers the bytes-equality oracle: a
// single-line perturbation of the batch output must surface as a mismatch
// on that pair, with the diverging line reported.
func TestInjectedByteFaultCaught(t *testing.T) {
	src := progen.Generate(2).Render()
	perturb := func(target string) Config {
		return Config{MutateAsm: func(oracle, asm string) string {
			if oracle != target {
				return asm
			}
			return asm + "\tnop\n"
		}}
	}

	var m *Mismatch
	if err := Check(src, perturb(OracleBatch)); !errors.As(err, &m) {
		t.Fatalf("batch perturbation: got %v, want *Mismatch", err)
	} else if m.Pair != OracleBatch+" vs "+OracleBatchSeq {
		t.Errorf("batch perturbation attributed to %q", m.Pair)
	} else if !strings.Contains(m.Detail, "divergence") {
		t.Errorf("no diverging line in detail: %s", m.Detail)
	}
}

func TestMismatchErrorFormat(t *testing.T) {
	m := &Mismatch{Pair: "gg vs irinterp", Want: "7", Got: "9", Detail: "boom"}
	if got, want := m.Error(), "diffexec: gg vs irinterp: want 7, got 9 (boom)"; got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
}

func TestFailureUnwrap(t *testing.T) {
	m := &Mismatch{Pair: "p", Want: "1", Got: "2"}
	f := &Failure{Seed: 3, Mismatch: m, Err: m}
	var got *Mismatch
	if !errors.As(f, &got) || got != m {
		t.Error("Failure does not unwrap to its Mismatch")
	}
}

// TestShrinkMinimizes drives the shrinker with a trivially-true predicate:
// everything deletable must go, leaving just an empty main.
func TestShrinkMinimizes(t *testing.T) {
	p := progen.Generate(5)
	red := Shrink(p, func(src string) bool {
		return strings.Contains(src, "int main(")
	})
	if red.Lines() > 3 {
		t.Errorf("shrink left %d lines, want 3:\n%s", red.Lines(), red.Render())
	}
	if !strings.Contains(red.Render(), "int main(") {
		t.Error("shrink violated its predicate")
	}
}

// TestShrinkKeepsFailingOriginal: when nothing can be deleted, Shrink must
// return a program equivalent to its input, not an over-reduced one.
func TestShrinkKeepsFailingOriginal(t *testing.T) {
	p := progen.Generate(6)
	orig := p.Render()
	red := Shrink(p, func(src string) bool { return src == orig })
	if red.Render() != orig {
		t.Error("shrink changed a program whose every reduction fails the predicate")
	}
}
