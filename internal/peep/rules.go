package peep

import (
	"reflect"
	"strings"
	"sync"
	"unsafe"
)

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

func (r *Rules) sideEffect(op string) bool {
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

// classTable resolves the branch vocabulary of one Rules — the jump and
// every mnemonic Invert names — to class bits and, for a conditional
// branch, the table index of its inverse. Mnemonics it does not list are
// neither jumps nor conditional branches.
type classTable struct {
	index map[string]int32
	names []string
	cls   []uint8
	inv   []int32 // -1 unless cls has cCond
	first [256]bool
}

func newClassTable(r *Rules) *classTable {
	t := &classTable{index: make(map[string]int32)}
	add := func(mn string) int32 {
		if i, ok := t.index[mn]; ok {
			return i
		}
		i := int32(len(t.names))
		t.index[mn] = i
		t.names = append(t.names, mn)
		t.cls = append(t.cls, 0)
		t.inv = append(t.inv, -1)
		if mn != "" {
			t.first[mn[0]] = true
		}
		return i
	}
	for mn, inv := range r.Invert {
		i := add(mn)
		t.cls[i] |= cCond
		t.inv[i] = add(inv)
	}
	t.cls[add(r.Jump)] |= cJump
	return t
}

// classify returns the class bits and table index of a mnemonic.
func (t *classTable) classify(mn string) (uint8, int32) {
	if mn == "" || !t.first[mn[0]] {
		return 0, -1
	}
	if i, ok := t.index[mn]; ok {
		return t.cls[i], i
	}
	return 0, -1
}

// tableKey identifies a Rules' branch vocabulary: its Invert map, by
// identity, and its jump.
type tableKey struct {
	invert unsafe.Pointer
	jump   string
}

// tables caches one classTable per vocabulary, built on first use.
// Backends pass the same Invert map on every call; a caller that builds a
// fresh map per call gets a fresh table once the cache is full rather than
// growing it without bound.
var tables struct {
	sync.Mutex
	m map[tableKey]*classTable
}

const maxTables = 32

func tableFor(r *Rules) *classTable {
	key := tableKey{reflect.ValueOf(r.Invert).UnsafePointer(), r.Jump}
	tables.Lock()
	defer tables.Unlock()
	if t, ok := tables.m[key]; ok {
		return t
	}
	t := newClassTable(r)
	if tables.m == nil {
		tables.m = make(map[tableKey]*classTable)
	}
	if len(tables.m) < maxTables {
		tables.m[key] = t
	}
	return t
}

// pass is one machine-specific rewrite over a unit's records; it reports
// whether it changed anything.
type pass func(u *unit, st *Stats) bool

// OptimizeWith applies the rule-driven passes to a fixed point, the
// backend-parameterized counterpart of Optimize.
func OptimizeWith(src string, r Rules) (string, Stats) { return runPasses(src, &r, nil) }

// runPasses scans src once, runs the rule-driven passes, then the
// machine's own passes, then dead-label removal over the records until
// nothing changes (at most eight rounds), and renders the result once.
func runPasses(src string, r *Rules, own []pass) (string, Stats) {
	u := newUnit(src, tableFor(r), r.Move)
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
		if l.kind != kInstr || l.cls&cJump == 0 || l.nops != 1 {
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
		if l.kind != kInstr || l.nops == 0 || l.cls&(cJump|cCond) == 0 {
			continue
		}
		target := u.ops[l.last()]
		for hops := 0; hops < 4; hops++ {
			if target.lab < 0 {
				break
			}
			ni := u.nextInstrFromLabel(int(u.defs[target.lab]))
			if ni < 0 || u.recs[ni].cls&cJump == 0 || u.recs[ni].nops != 1 {
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
		if l.kind != kInstr || l.cls&cCond == 0 || l.nops == 0 {
			continue
		}
		j := u.nextInstrSameBlock(i)
		if j < 0 || u.recs[j].cls&cJump == 0 || u.recs[j].nops != 1 {
			continue
		}
		// The conditional's target must be the line right after the jump.
		if !u.labelFollows(j, u.ops[l.last()].lab) {
			continue
		}
		u.setMn(l, u.tab.names[u.tab.inv[l.mi]])
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
func removeRedundantMoves(u *unit, r *Rules, st *Stats) bool {
	changed := false
	for i := range u.recs {
		l := &u.recs[i]
		if l.kind != kInstr || l.cls&cMove == 0 || l.nops != 2 {
			continue
		}
		a, b := u.ops[l.op0].s, u.ops[l.op0+1].s
		if a == b && !r.sideEffect(a) {
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
			!r.sideEffect(a) && !r.sideEffect(b) {
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
