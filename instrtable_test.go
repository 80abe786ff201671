package ggcg

import (
	"math"
	"strings"
	"testing"

	"ggcg/internal/cfront"
	"ggcg/internal/riscsim"
	"ggcg/internal/simcore"
	"ggcg/internal/vaxsim"
)

// asmMnemonics adds to seen every instruction mnemonic of an assembly
// listing: the first field of each line once a leading label is cut,
// directives excluded.
func asmMnemonics(asm string, seen map[string]bool) {
	for _, line := range strings.Split(asm, "\n") {
		if i := strings.IndexByte(line, ':'); i >= 0 && !strings.ContainsAny(line[:i], " \t,") {
			line = line[i+1:]
		}
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '.' {
			continue
		}
		if i := strings.IndexAny(line, " \t"); i >= 0 {
			line = line[:i]
		}
		seen[line] = true
	}
}

// TestEmittedMnemonicsInTable: every mnemonic the code generators emit
// over the corpus, the corpus.Large sizes and progen seeds 1-400 is in its
// target's instruction table, with and without the peephole, and so is
// every mnemonic of the pcc baseline before and after peep.Optimize. The
// backends and the peephole read their instruction sets from those
// tables, so a mnemonic outside them is one no layer describes.
func TestEmittedMnemonicsInTable(t *testing.T) {
	tables := map[string]map[string]simcore.Info{
		"vax": vaxsim.Instrs(), "risc": riscsim.Instrs(), "pcc": vaxsim.Instrs(),
	}
	seen := map[string]map[string]bool{"vax": {}, "risc": {}, "pcc": {}}
	for _, u := range peepGoldenUnits(400) {
		unit, err := cfront.Compile(u.src)
		if err != nil {
			t.Fatalf("%s: %v", u.name, err)
		}
		for _, in := range peepInputs(t, unit) {
			asmMnemonics(in.asm, seen[in.name])
			opt, _ := in.optimize(in.asm)
			asmMnemonics(opt, seen[in.name])
		}
	}
	for gen, mns := range seen {
		if len(mns) < 20 {
			t.Errorf("%s: only %d mnemonics seen", gen, len(mns))
		}
		for mn := range mns {
			if _, ok := tables[gen][mn]; !ok {
				t.Errorf("%s emits %q, which its instruction table lacks", gen, mn)
			}
		}
	}
}

// TestUnsignedNarrowingRuns: an unsigned value narrowed to a smaller
// integer converts with an instruction the simulator has (cvtwb on the
// VAX; movz only widens), so the program assembles and computes the
// truncated value on both targets.
func TestUnsignedNarrowingRuns(t *testing.T) {
	src := `unsigned short us = 300; unsigned int ui = 70000; char c; short s;
int main() { c = (char)us + 1; s = (short)(ui + 1); return c + s; }`
	for _, tg := range []string{"vax", "risc"} {
		out, err := Compile(src, Config{Target: tg})
		if err != nil {
			t.Fatalf("%s: %v", tg, err)
		}
		m, err := NewSim(tg, out.Asm)
		if err != nil {
			t.Fatalf("%s: %v\n%s", tg, err, out.Asm)
		}
		// (char)300 + 1 = 45; (short)70001 = 4465.
		if got, err := m.Call("_main"); err != nil || got != 45+4465 {
			t.Errorf("%s: main() = %d, %v; want %d", tg, got, err, 45+4465)
		}
	}
}

// TestBranchInverses: every conditional branch's inverse is a conditional
// branch whose inverse is the branch itself, and on the simulator exactly
// one of the two is taken from every state: all sixteen N/Z/V/C settings
// on the VAX, and on the RISC every pair of operands from values around
// 0, ±1 and the sign boundary of each size.
func TestBranchInverses(t *testing.T) {
	for name, instrs := range map[string]map[string]simcore.Info{"vax": vaxsim.Instrs(), "risc": riscsim.Instrs()} {
		conds := 0
		for mn, in := range instrs {
			if in.Class&simcore.CondBranch == 0 {
				continue
			}
			conds++
			inv, ok := instrs[in.Inverse]
			if !ok || inv.Class&simcore.CondBranch == 0 || inv.Inverse != mn || in.Inverse == mn {
				t.Errorf("%s: %s's inverse %q is not a conditional branch inverting it", name, mn, in.Inverse)
			}
		}
		if conds == 0 {
			t.Errorf("%s: no conditional branches", name)
		}
	}

	for mn, in := range vaxsim.Instrs() {
		if in.Class&simcore.CondBranch == 0 {
			continue
		}
		taken := func(mn string, n, z, v, c bool) bool {
			t.Helper()
			p, err := vaxsim.Assemble("_main:\t.word 0\n\t" + mn + "\tL1\n\tclrl\tr0\n\tret\nL1:\tmovl\t$1,r0\n\tret\n")
			if err != nil {
				t.Fatal(err)
			}
			m := vaxsim.New(p)
			m.N, m.Z, m.V, m.C = n, z, v, c
			r, err := m.CallPreservingState("_main")
			if err != nil {
				t.Fatalf("%s: %v", mn, err)
			}
			return r == 1
		}
		for s := 0; s < 16; s++ {
			n, z, v, c := s&8 != 0, s&4 != 0, s&2 != 0, s&1 != 0
			if taken(mn, n, z, v, c) == taken(in.Inverse, n, z, v, c) {
				t.Errorf("vax: %s and %s agree with N=%v Z=%v V=%v C=%v", mn, in.Inverse, n, z, v, c)
			}
		}
	}

	for mn, in := range riscsim.Instrs() {
		if in.Class&simcore.CondBranch == 0 {
			continue
		}
		var vals []uint64
		if strings.HasSuffix(mn, "f") || strings.HasSuffix(mn, "d") {
			for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, math.MaxFloat32, -math.MaxFloat32} {
				vals = append(vals, math.Float64bits(f))
			}
		} else {
			bits := 8 * in.Size
			for _, v := range []int64{0, 1, -1, 2, -2, 1<<(bits-1) - 1, -1 << (bits - 1), 1 << (bits - 1), 1 << bits} {
				vals = append(vals, uint64(v))
			}
		}
		taken := func(mn string, a, b uint64) bool {
			t.Helper()
			p, err := riscsim.Assemble("_main:\n\t" + mn + "\tr1,r2,L1\n\tli\tr0,$0\n\tret\nL1:\tli\tr0,$1\n\tret\n")
			if err != nil {
				t.Fatal(err)
			}
			m := riscsim.New(p)
			m.R[1], m.R[2] = a, b
			r, err := m.CallPreservingState("_main")
			if err != nil {
				t.Fatalf("%s: %v", mn, err)
			}
			return r == 1
		}
		for _, a := range vals {
			for _, b := range vals {
				if taken(mn, a, b) == taken(in.Inverse, a, b) {
					t.Errorf("risc: %s and %s agree on %#x, %#x", mn, in.Inverse, a, b)
				}
			}
		}
	}
}
