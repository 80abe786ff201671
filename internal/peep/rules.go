package peep

import (
	"strings"

	"ggcg/internal/riscsim"
	"ggcg/internal/simcore"
	"ggcg/internal/vaxsim"
)

// rules are one target's vocabulary for the peephole passes: its
// simulator's instruction table, which gives each mnemonic its class and
// data size (a mnemonic the table lacks has neither), and its operand
// syntax.
type rules struct {
	instrs map[string]simcore.Info

	// sideEffect reports an operand whose formatting carries machine
	// state (autostep modes, stack references); such operands are never
	// touched. Nil means no operand has side effects.
	sideEffect func(op string) bool
}

func (r *rules) carriesState(op string) bool {
	return r.sideEffect != nil && r.sideEffect(op)
}

// The two targets' rules, read from their simulators once, when the
// package loads.
var (
	vaxRules  = rules{instrs: vaxsim.Instrs(), sideEffect: hasSideEffect}
	riscRules = rules{instrs: riscsim.Instrs()}
)

// pass is one machine-specific rewrite over a unit's records; it reports
// whether it changed anything.
type pass func(u *unit, st *Stats) bool

// OptimizeRISC applies the rule-driven passes to RISC assembly to a fixed
// point, the RISC counterpart of Optimize.
func OptimizeRISC(src string) (string, Stats) { return runPasses(src, &riscRules, nil) }

// runPasses scans src once, runs the rule-driven passes, then the
// machine's own passes, then dead-label removal over the records until
// nothing changes (at most eight rounds), and renders the result once.
func runPasses(src string, r *rules, own []pass) (string, Stats) {
	u := newUnit(src, r.instrs)
	defer u.free()
	st := &u.st
	before := u.instrs()
	for round := 0; round < 8; round++ {
		changed := removeJumpToNext(u, st)
		changed = collapseJumpChains(u, st) || changed
		changed = invertBranchOverJump(u, st) || changed
		changed = removeRedundantMoves(u, r, st) || changed
		for _, p := range own {
			changed = p(u, st) || changed
		}
		changed = dropDeadLabels(u, st) || changed
		if !changed {
			break
		}
	}
	st.LinesRemoved = before - u.instrs()
	return u.render(), *st
}

// removeJumpToNext drops an unconditional jump whose target labels the
// textually next instruction.
func removeJumpToNext(u *unit, st *Stats) bool {
	changed := false
	for i := range u.recs {
		l := &u.recs[i]
		if l.kind != kInstr || l.cls&simcore.Jump == 0 || l.nops != 1 {
			continue
		}
		// Every following record until the first instruction must be a
		// label; if one of them is the target, the jump is redundant.
		if u.labelFollows(i, u.ops[l.op0].lab) {
			u.kill(i)
			st.JumpsToNext++
			changed = true
		}
	}
	return changed
}

// collapseJumpChains retargets a branch whose destination is itself an
// unconditional jump.
func collapseJumpChains(u *unit, st *Stats) bool {
	changed := false
	for i := range u.recs {
		l := &u.recs[i]
		if l.kind != kInstr || l.nops == 0 || l.cls&(simcore.Jump|simcore.CondBranch) == 0 {
			continue
		}
		target := u.ops[l.last()]
		for hops := 0; hops < 4; hops++ {
			if target.lab < 0 {
				break
			}
			ni := u.nextInstrFromLabel(int(u.defs[target.lab]))
			if ni < 0 || u.recs[ni].cls&simcore.Jump == 0 || u.recs[ni].nops != 1 {
				break
			}
			nt := u.ops[u.recs[ni].op0]
			if nt.s == target.s {
				break // self loop
			}
			target = nt
		}
		if target.s != u.ops[l.last()].s {
			u.setOp(l, l.last(), target)
			st.JumpChains++
			changed = true
		}
	}
	return changed
}

// invertBranchOverJump rewrites `bcc A ; jump B ; A:` into the inverted
// branch straight to B.
func invertBranchOverJump(u *unit, st *Stats) bool {
	changed := false
	for i := range u.recs {
		l := &u.recs[i]
		if l.kind != kInstr || l.cls&simcore.CondBranch == 0 || l.nops == 0 {
			continue
		}
		j := u.nextInstrSameBlock(i)
		if j < 0 || u.recs[j].cls&simcore.Jump == 0 || u.recs[j].nops != 1 {
			continue
		}
		// The conditional's target must be the line right after the jump.
		if !u.labelFollows(j, u.ops[l.last()].lab) {
			continue
		}
		u.setMn(l, u.table[l.s].Inverse)
		u.setOp(l, l.last(), u.ops[u.recs[j].op0])
		u.kill(j)
		st.InvertedOver++
		changed = true
	}
	return changed
}

// removeRedundantMoves drops `move x,x` and the second half of a
// `move a,b ; move b,a` pair; both rules hold whichever operand the
// backend's move writes.
func removeRedundantMoves(u *unit, r *rules, st *Stats) bool {
	changed := false
	for i := range u.recs {
		l := &u.recs[i]
		if l.kind != kInstr || l.cls&simcore.Move == 0 || l.nops != 2 {
			continue
		}
		a, b := u.ops[l.op0].s, u.ops[l.op0+1].s
		if a == b && !r.carriesState(a) {
			u.kill(i)
			st.RedundantMoves++
			changed = true
			continue
		}
		j := u.nextInstrSameBlock(i)
		if j < 0 {
			continue
		}
		m := &u.recs[j]
		if m.s == l.s && m.nops == 2 &&
			u.ops[m.op0].s == b && u.ops[m.op0+1].s == a &&
			!r.carriesState(a) && !r.carriesState(b) {
			u.kill(j)
			st.RedundantMoves++
			changed = true
		}
	}
	return changed
}

// dropDeadLabels removes every local label no live operand names, as a
// whole or as the base of a `name+offset` operand.
func dropDeadLabels(u *unit, st *Stats) bool {
	changed := false
	for i := range u.recs {
		l := &u.recs[i]
		if l.kind != kLabel || strings.HasPrefix(l.s, "_") {
			continue // function entries and data symbols stay
		}
		if u.uses[l.lab] == 0 {
			u.kill(i)
			st.DeadLabels++
			changed = true
		}
	}
	return changed
}
