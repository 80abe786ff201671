package peep

import "strings"

// Rules parameterize the target-neutral half of the peephole optimizer —
// the control-flow cleanups and redundant-move removal that only need to
// know a backend's branch vocabulary, not its addressing modes. Optimize
// runs them with the VAX vocabulary plus the VAX-only rewrites; other
// backends describe their mnemonics here and run OptimizeWith.
type Rules struct {
	// Jump is the unconditional jump mnemonic; its sole operand is the
	// target label.
	Jump string

	// Invert maps each conditional branch to its complement. A branch's
	// target label is its last operand (compare-and-branch forms carry
	// the compared registers first).
	Invert map[string]string

	// Move reports a pure two-operand register move; `move x,x` is
	// removable and `move a,b ; move b,a` drops its second half
	// regardless of which operand the backend writes first.
	Move func(mn string) bool

	// SideEffect reports an operand whose formatting carries machine
	// state (autostep modes, stack references); such operands are never
	// touched. Nil means no operand has side effects.
	SideEffect func(op string) bool
}

func (r Rules) sideEffect(op string) bool {
	return r.SideEffect != nil && r.SideEffect(op)
}

// vaxRules is the VAX vocabulary of the rule-driven passes.
var vaxRules = Rules{
	Jump:   "jbr",
	Invert: invert,
	Move: func(mn string) bool {
		return strings.HasPrefix(mn, "mov") && !strings.HasPrefix(mn, "mova") && !strings.HasPrefix(mn, "movz")
	},
	SideEffect: hasSideEffect,
}

// pass is one machine-specific rewrite over the line list; it reports
// whether it changed anything.
type pass func(lines []*line, st *Stats) bool

// OptimizeWith applies the rule-driven passes to a fixed point, the
// backend-parameterized counterpart of Optimize.
func OptimizeWith(src string, r Rules) (string, Stats) { return runPasses(src, r, nil) }

// runPasses runs the rule-driven passes, then the machine's own passes, then
// dead-label removal, until nothing changes (at most eight rounds).
func runPasses(src string, r Rules, own []pass) (string, Stats) {
	lines := parse(src)
	var st Stats
	before := countInstrs(lines)
	for round := 0; round < 8; round++ {
		changed := removeJumpToNext(lines, r, &st)
		changed = collapseJumpChains(lines, r, &st) || changed
		changed = invertBranchOverJump(lines, r, &st) || changed
		changed = removeRedundantMoves(lines, r, &st) || changed
		for _, p := range own {
			changed = p(lines, &st) || changed
		}
		changed = dropDeadLabels(lines, &st) || changed
		lines = compact(lines)
		if !changed {
			break
		}
	}
	st.LinesRemoved = before - countInstrs(lines)
	return render(lines), st
}

// removeJumpToNext drops an unconditional jump whose target labels the
// textually next instruction.
func removeJumpToNext(lines []*line, r Rules, st *Stats) bool {
	changed := false
	for i, l := range lines {
		if l == nil || l.kind != lInstr || l.mn != r.Jump || len(l.ops) != 1 {
			continue
		}
		// Every following line until the first instruction must be a label;
		// if one of them is the target, the jump is redundant.
		for j := i + 1; j < len(lines); j++ {
			m := lines[j]
			if m == nil {
				continue
			}
			if m.kind != lLabel {
				break
			}
			if m.label == l.ops[0] {
				lines[i] = nil
				st.JumpsToNext++
				changed = true
				break
			}
		}
	}
	return changed
}

// collapseJumpChains retargets a branch whose destination is itself an
// unconditional jump.
func collapseJumpChains(lines []*line, r Rules, st *Stats) bool {
	defs := labelDefs(lines)
	changed := false
	for _, l := range lines {
		if l == nil || l.kind != lInstr || len(l.ops) == 0 {
			continue
		}
		if _, cond := r.Invert[l.mn]; !cond && l.mn != r.Jump {
			continue
		}
		target := l.ops[len(l.ops)-1]
		for hops := 0; hops < 4; hops++ {
			di, ok := defs[target]
			if !ok {
				break
			}
			ni := nextInstrSameBlockFromLabel(lines, di)
			if ni < 0 || lines[ni].mn != r.Jump || len(lines[ni].ops) != 1 {
				break
			}
			nt := lines[ni].ops[0]
			if nt == target {
				break // self loop
			}
			target = nt
		}
		if target != l.ops[len(l.ops)-1] {
			l.ops[len(l.ops)-1] = target
			st.JumpChains++
			changed = true
		}
	}
	return changed
}

// invertBranchOverJump rewrites `bcc A ; jump B ; A:` into the inverted
// branch straight to B.
func invertBranchOverJump(lines []*line, r Rules, st *Stats) bool {
	changed := false
	for i, l := range lines {
		if l == nil || l.kind != lInstr {
			continue
		}
		inv, ok := r.Invert[l.mn]
		if !ok || len(l.ops) == 0 {
			continue
		}
		target := l.ops[len(l.ops)-1]
		j := nextInstrSameBlock(lines, i)
		if j < 0 || lines[j].mn != r.Jump || len(lines[j].ops) != 1 {
			continue
		}
		// The conditional's target must be the line right after the jump.
		found := false
		for k := j + 1; k < len(lines); k++ {
			m := lines[k]
			if m == nil {
				continue
			}
			if m.kind != lLabel {
				break
			}
			if m.label == target {
				found = true
				break
			}
		}
		if !found {
			continue
		}
		l.mn = inv
		l.ops[len(l.ops)-1] = lines[j].ops[0]
		lines[j] = nil
		st.InvertedOver++
		changed = true
	}
	return changed
}

// removeRedundantMoves drops `move x,x` and the second half of a
// `move a,b ; move b,a` pair; both rules hold whichever operand the
// backend's move writes.
func removeRedundantMoves(lines []*line, r Rules, st *Stats) bool {
	if r.Move == nil {
		return false
	}
	changed := false
	for i, l := range lines {
		if l == nil || l.kind != lInstr || !r.Move(l.mn) || len(l.ops) != 2 {
			continue
		}
		if l.ops[0] == l.ops[1] && !r.sideEffect(l.ops[0]) {
			lines[i] = nil
			st.RedundantMoves++
			changed = true
			continue
		}
		j := nextInstrSameBlock(lines, i)
		if j < 0 {
			continue
		}
		m := lines[j]
		if m.kind == lInstr && m.mn == l.mn && len(m.ops) == 2 &&
			m.ops[0] == l.ops[1] && m.ops[1] == l.ops[0] &&
			!r.sideEffect(l.ops[0]) && !r.sideEffect(l.ops[1]) {
			lines[j] = nil
			st.RedundantMoves++
			changed = true
		}
	}
	return changed
}
