// Package peep is a peephole optimizer over the generated assembly,
// implementing the alternative organization §6.1 of the paper discusses
// (after [Davidson81] and [Giegerich82]): instead of the code generator
// recognizing condition codes and autoincrement itself, "the peephole
// optimizer would introduce autoinc and condition code improvement where
// possible", by a post analysis of basic blocks.
//
// The optimizer takes the assembly text the code generators emit and scans
// it once into a flat array of records — label definitions, directives and
// instructions whose mnemonic and operands are substrings of the text —
// resolving every label an operand names to a dense index and every
// mnemonic to its class and data size as it goes. The classes come from
// the target simulator's instruction table (simcore.Info), which is the
// one declaration of each machine's instruction set. The rules read and
// edit those records, within basic blocks (label definitions and control
// transfers are boundaries), to a fixed point, and the result is rendered
// once:
//
//   - redundant move elimination (mov x,x; store/reload pairs)
//   - condition-code awareness: a tst of a location the previous
//     instruction just wrote is removed
//   - jump to the next instruction removed; jump chains collapsed;
//     a conditional branch over an unconditional jump is inverted
//   - autoincrement/autodecrement introduction: an operation through (rN)
//     followed by stepping rN by the operand size becomes (rN)+, and a
//     pre-step becomes -(rN)
//   - range idioms: adding or subtracting the constant 1 becomes the
//     increment/decrement form, moving the constant 0 becomes a clear,
//     and an increment-compare-branch loop bottom becomes aoblss/aobleq
//   - unreferenced labels are dropped
package peep

import (
	"fmt"
	"strconv"
	"strings"

	"ggcg/internal/simcore"
)

// Stats counts rule applications.
type Stats struct {
	RedundantMoves int
	RedundantTst   int
	JumpsToNext    int
	JumpChains     int
	InvertedOver   int
	AutoInc        int
	AutoDec        int
	IncDec         int // add/sub of $1 or $-1 to inc/dec
	ClrZero        int // mov of $0 to clr
	AOBLoops       int // inc-compare-branch to aoblss/aobleq
	DeadLabels     int
	LinesRemoved   int
}

// Optimize applies the peephole rules to VAX assembly to a fixed point —
// the rule-driven passes with the VAX classes, then the VAX-only
// condition-code, autoincrement, range-idiom and loop rewrites — and
// returns the improved assembly and the applications performed.
func Optimize(src string) (string, Stats) {
	return runPasses(src, &vaxRules, vaxPasses)
}

// vaxPasses are the VAX-only rewrites Optimize runs after the rule-driven
// passes of each round.
var vaxPasses = []pass{removeRedundantTst, introduceAutoStep, rangeIdioms, introduceAOB}

// hasSideEffect reports whether formatting the operand again would change
// machine state (autoincrement modes) or depends on the stack pointer.
func hasSideEffect(op string) bool {
	return strings.HasSuffix(op, ")+") || strings.HasPrefix(op, "-(") ||
		strings.Contains(op, "(sp)")
}

func removeRedundantTst(u *unit, st *Stats) bool {
	changed := false
	prev := -1
	for i := range u.recs {
		l := &u.recs[i]
		if l.kind == kDead {
			continue
		}
		if l.kind != kInstr {
			prev = -1
			continue
		}
		if l.nops == 1 && prev >= 0 && strings.HasPrefix(l.s, "tst") {
			p := &u.recs[prev]
			op := u.ops[l.op0].s
			if p.cls&simcore.SetsResult != 0 && p.nops > 0 && u.ops[p.last()].s == op &&
				typeLetter(p.s) == typeLetter(l.s) && !hasSideEffect(op) {
				u.kill(i)
				st.RedundantTst++
				changed = true
				continue // prev still describes the codes for a further tst
			}
		}
		prev = i
	}
	return changed
}

// typeLetter returns the type letter of a VAX mnemonic: its last, before
// an operand count (addl3, cvtbl, movzwl, tstf). The codes an instruction
// sets describe its result as that type, so a tst of another type with
// the same size (tstf after movl) reads them differently.
func typeLetter(mn string) byte {
	if c := mn[len(mn)-1]; c == '2' || c == '3' {
		mn = mn[:len(mn)-1]
	}
	return mn[len(mn)-1]
}

// operandSize returns the data size of operand k (a backing index) of VAX
// instruction l: the mnemonic's size (simcore.Info.Size, which is its
// destination's), except for the operands sized otherwise — a
// conversion's source (cvtbl, movzbl), ashl's count and a mova's
// destination.
func operandSize(l *rec, k int32) int {
	mn, first := l.s, k == l.op0
	switch {
	case first && (len(mn) == 5 && mn[:3] == "cvt" || len(mn) == 6 && mn[:4] == "movz"):
		return typeSize[mn[len(mn)-2]]
	case first && mn == "ashl":
		return 1
	case !first && strings.HasPrefix(mn, "mova"):
		return 4
	}
	return int(l.size)
}

// typeSize is the data size of each VAX type letter.
var typeSize = [256]int{'b': 1, 'w': 2, 'l': 4, 'f': 4, 'd': 8}

// introduceAutoStep rewrites
//
//	op ... (rN) ... ; addl2 $size,rN   =>   op ... (rN)+ ...
//	subl2 $size,rN ; op ... (rN) ...   =>   op ... -(rN) ...
//
// when rN appears exactly once in the operation and the step is the size
// of the operand (rN) was — §6.1's autoincrement improvement by post
// analysis of a basic block.
func introduceAutoStep(u *unit, st *Stats) bool {
	changed := false
	for i := range u.recs {
		l := &u.recs[i]
		if l.kind != kInstr {
			continue
		}
		j := u.nextInstrSameBlock(i)
		if j < 0 {
			continue
		}
		m := &u.recs[j]
		// Post-increment: l uses (rN), m is addl2 $size,rN.
		if m.s == "addl2" && m.nops == 2 && l.cls&simcore.Transfer == 0 {
			if reg, size, ok := u.stepOf(m); ok && size == int(l.size) {
				if k, ok := u.soleRegDefUse(l, reg); ok && operandSize(l, k) == size {
					u.setOp(l, k, u.resolve("("+reg+")+"))
					u.kill(j)
					st.AutoInc++
					changed = true
					continue
				}
			}
		}
		// Pre-decrement: l is subl2 $size,rN, m uses (rN).
		if l.s == "subl2" && l.nops == 2 && m.cls&simcore.Transfer == 0 {
			if reg, size, ok := u.stepOf(l); ok && size == int(m.size) {
				if k, ok := u.soleRegDefUse(m, reg); ok && operandSize(m, k) == size {
					u.setOp(m, k, u.resolve("-("+reg+")"))
					u.kill(i)
					st.AutoDec++
					changed = true
				}
			}
		}
	}
	return changed
}

// stepOf decodes addl2/subl2 $k,rN into (register, k).
func (u *unit) stepOf(l *rec) (reg string, size int, ok bool) {
	if l.nops != 2 {
		return "", 0, false
	}
	imm, reg := u.ops[l.op0].s, u.ops[l.op0+1].s
	if !strings.HasPrefix(imm, "$") || !isRegName(reg) {
		return "", 0, false
	}
	k, err := strconv.Atoi(imm[1:])
	if err != nil || k <= 0 {
		return "", 0, false
	}
	return reg, k, true
}

func isRegName(s string) bool {
	if s == "ap" || s == "fp" || s == "sp" {
		return false // stepping the frame registers is never an autoinc
	}
	if len(s) >= 2 && s[0] == 'r' {
		n, err := strconv.Atoi(s[1:])
		return err == nil && n >= 0 && n <= 11
	}
	return false
}

// soleRegDefUse returns the operand backing index where the register
// appears as a plain deferred operand "(rN)", provided the register occurs
// nowhere else in the instruction.
func (u *unit) soleRegDefUse(l *rec, reg string) (int32, bool) {
	idx := int32(-1)
	for k := l.op0; k < l.op0+l.nops; k++ {
		op := u.ops[k].s
		if len(op) == len(reg)+2 && op[0] == '(' && op[len(op)-1] == ')' && op[1:len(op)-1] == reg {
			if idx >= 0 {
				return 0, false
			}
			idx = k
			continue
		}
		if strings.Contains(op, reg) {
			return 0, false
		}
	}
	return idx, idx >= 0
}

// rangeIdioms rewrites the immediate-constant special cases into their
// dedicated VAX forms — the range idioms the instruction generation phase
// recognizes on trees (§5.3.3), recovered here on the instruction stream so
// the baseline generator's output benefits as well:
//
//	addX2 $1,dst  / subX2 $-1,dst   =>   incX dst
//	subX2 $1,dst  / addX2 $-1,dst   =>   decX dst
//	movX  $0,dst                    =>   clrX dst
//
// It runs after autoincrement introduction in the pass so a byte-sized
// `addl2 $1,rN` step is claimed as (rN)+ before it can become `incl rN`.
func rangeIdioms(u *unit, st *Stats) bool {
	changed := false
	for i := range u.recs {
		l := &u.recs[i]
		if l.kind != kInstr || l.nops != 2 {
			continue
		}
		mn := l.s
		move := mn == "movb" || mn == "movw" || mn == "movl"
		step := len(mn) == 5 && mn[4] == '2' &&
			(mn[:3] == "add" || mn[:3] == "sub") &&
			(mn[3] == 'b' || mn[3] == 'w' || mn[3] == 'l')
		if !move && !step {
			continue
		}
		imm := u.ops[l.op0].s
		if !strings.HasPrefix(imm, "$") {
			continue
		}
		n, err := strconv.Atoi(imm[1:])
		if err != nil {
			continue
		}
		switch {
		case move:
			if n != 0 {
				continue
			}
			mn = "clr" + mn[3:]
			st.ClrZero++
		default:
			if n != 1 && n != -1 {
				continue
			}
			op := "inc"
			if (mn[:3] == "sub") == (n == 1) {
				op = "dec"
			}
			mn = op + mn[3:4]
			st.IncDec++
		}
		u.setMn(l, mn)
		u.ref(u.ops[l.op0], -1)
		l.op0++
		l.nops--
		changed = true
	}
	return changed
}

// introduceAOB collapses the canonical loop bottom into the VAX
// add-one-and-branch instructions:
//
//	incl rN ; cmpl rN,limit ; jlss L   =>   aoblss limit,rN,L
//	incl rN ; cmpl rN,limit ; jleq L   =>   aobleq limit,rN,L
//
// The three instructions must be consecutive in one basic block, the limit
// operand must not mention rN or carry a side effect, and the fall-through
// successor must not read the condition codes — after the rewrite they
// describe the incremented index, not the dropped compare.
func introduceAOB(u *unit, st *Stats) bool {
	changed := false
	for i := range u.recs {
		l := &u.recs[i]
		if l.kind != kInstr || l.s != "incl" || l.nops != 1 || !isRegName(u.ops[l.op0].s) {
			continue
		}
		reg := u.ops[l.op0]
		j := u.nextInstrSameBlock(i)
		if j < 0 {
			continue
		}
		c := &u.recs[j]
		if c.s != "cmpl" || c.nops != 2 || u.ops[c.op0].s != reg.s {
			continue
		}
		limit := u.ops[c.op0+1]
		if strings.Contains(limit.s, reg.s) || hasSideEffect(limit.s) {
			continue
		}
		k := u.nextInstrSameBlock(j)
		if k < 0 {
			continue
		}
		b := &u.recs[k]
		var mn string
		switch b.s {
		case "jlss":
			mn = "aoblss"
		case "jleq":
			mn = "aobleq"
		default:
			continue
		}
		if b.nops != 1 || u.condConsumerFollows(k) {
			continue
		}
		u.setMn(b, mn)
		u.setOps(k, limit, reg, u.ops[b.op0])
		u.kill(i)
		u.kill(j)
		st.AOBLoops++
		changed = true
	}
	return changed
}

// condConsumerFollows reports whether the instruction reached by falling
// through from record k is a conditional branch, i.e. consumes the
// condition codes set before k.
func (u *unit) condConsumerFollows(k int) bool {
	if j := u.nextInstrFromLabel(k); j >= 0 {
		return u.recs[j].cls&simcore.CondBranch != 0
	}
	return false
}

// String summarizes the statistics.
func (s Stats) String() string {
	return fmt.Sprintf(
		"moves %d, tst %d, jumps-to-next %d, chains %d, inverted %d, autoinc %d, autodec %d, incdec %d, clr %d, aob %d, dead labels %d, %d lines removed",
		s.RedundantMoves, s.RedundantTst, s.JumpsToNext, s.JumpChains,
		s.InvertedOver, s.AutoInc, s.AutoDec, s.IncDec, s.ClrZero,
		s.AOBLoops, s.DeadLabels, s.LinesRemoved)
}
