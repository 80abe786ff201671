package diffexec

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckSeedsRISC sweeps the oracle lattice with the RISC backend
// generating the code under test: the reference interpreter, peephole,
// no-reverse and batch oracles all run against riscsim.
// The PCC oracles drop out (the baseline is a hand-written VAX pass);
// cmd/ggfuzz -target=risc runs this same harness at scale.
func TestCheckSeedsRISC(t *testing.T) {
	n := int64(30)
	if testing.Short() {
		n = 5
	}
	for seed := int64(0); seed < n; seed++ {
		if err := CheckSeed(seed, Config{Target: "risc"}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestExamplesRISC runs the example programs — real code rather than
// generated programs — through the full differential harness on the RISC
// target.
func TestExamplesRISC(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "c", "*.c"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := Check(string(src), Config{Target: "risc"}); err != nil {
			t.Errorf("%s: %v", filepath.Base(f), err)
		}
	}
}

// TestInjectedFaultCaughtRISC proves the harness still detects
// miscompilations when retargeted: a deliberately broken RISC oracle must
// be caught against the reference interpreter and shrunk, exactly like
// the VAX fault-injection check.
func TestInjectedFaultCaughtRISC(t *testing.T) {
	cfg := Config{Target: "risc", MutateAsm: func(oracle, asm string) string {
		if oracle != OracleGG {
			return asm
		}
		return strings.Replace(asm, "\tret", "\taddi\tr0,r0,$1\n\tret", 1)
	}}
	err := CheckSeed(1, cfg)
	if err == nil {
		t.Fatal("injected RISC fault not caught")
	}
	var f *Failure
	if !errors.As(err, &f) {
		t.Fatalf("error is %T, want *Failure", err)
	}
	wantPair := OracleGG + " vs " + OracleRef
	if f.Mismatch == nil || f.Mismatch.Pair != wantPair {
		t.Fatalf("mismatch %+v, want pair %q", f.Mismatch, wantPair)
	}
	if f.Lines > 10 {
		t.Errorf("reproducer is %d lines, want ≤ 10:\n%s", f.Lines, f.Source)
	}
}

// TestUnknownTargetErrors: the harness validates the target name before
// running any oracle.
func TestUnknownTargetErrors(t *testing.T) {
	err := Check("int main() { return 0; }", Config{Target: "mc68000"})
	if err == nil || !strings.Contains(err.Error(), "mc68000") {
		t.Errorf("unknown target: err = %v, want name in message", err)
	}
}
