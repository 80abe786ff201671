package target

import (
	"fmt"
	"strings"
	"testing"

	"ggcg/internal/ir"
)

// fakeOp is the least operand the register manager can drive: a value in
// a register (or pair), or a location whose base is a register, which the
// fake machine spills by storing and moves with mv.
type fakeOp struct {
	reg   int  // value register, or -1 for a location or spilled value
	base  int  // location base register, or -1
	slot  int  // frame slot once spilled
	wide  bool // a double, occupying a register pair
	fixed bool // a location whose base the machine cannot relocate
	owned RegSet
}

func (o *fakeOp) AppendAsm(b []byte) []byte { return append(b, o.Asm()...) }

func (o *fakeOp) Asm() string {
	switch {
	case o.reg >= 0:
		return ir.RegName(o.reg)
	case o.base >= 0:
		return "(" + ir.RegName(o.base) + ")"
	}
	return fmt.Sprintf("%d(fp)", o.slot)
}

func (o *fakeOp) ResultReg() int { return o.reg }
func (o *fakeOp) Regs() *RegSet  { return &o.owned }

func (o *fakeOp) MachineType() ir.Type {
	if o.wide {
		return ir.Double
	}
	return ir.Long
}

var fakeHooks = RegHooks[*fakeOp]{
	Name: "fake",
	Width: func(t ir.Type) int {
		if t == ir.Double {
			return 2
		}
		return 1
	},
	Spill: func(e *Emitter, f *ir.Func, o *fakeOp, r int) Freed {
		switch {
		case o.reg == r:
			o.reg, o.slot = -1, f.AllocTemp(o.MachineType())
			e.Emit("st", ir.RegName(r), o.Asm())
			return FreedValue
		case o.base == r:
			o.base, o.slot = -1, f.AllocTemp(ir.Long)
			e.Emit("sta", ir.RegName(r), o.Asm())
			return FreedBase
		}
		return NotSpilled
	},
	Move: func(e *Emitter, o *fakeOp, r, nr int) bool {
		switch {
		case o.reg == r:
			o.reg = nr
		case o.base == r && !o.fixed:
			o.base = nr
		default:
			return false
		}
		e.Emit("mv", ir.RegName(nr), ir.RegName(r))
		return true
	},
}

func newFake() (*RegMan[*fakeOp], *Emitter, *ir.Func) {
	e, f := NewEmitter(), &ir.Func{Name: "t"}
	return NewRegMan(&fakeHooks, e, f), e, f
}

// value allocates a register value of type t the way the semantic
// routines do: Alloc, then record the registers in the descriptor.
func value(t *testing.T, rm *RegMan[*fakeOp], typ ir.Type) *fakeOp {
	t.Helper()
	o := &fakeOp{reg: -1, base: -1, wide: typ == ir.Double}
	r, err := rm.Alloc(typ, o)
	if err != nil {
		t.Fatal(err)
	}
	o.reg = r
	o.owned = RegRange(r, rm.m.Width(typ))
	return o
}

// location absorbs a fresh register value as the base of a location.
func location(t *testing.T, rm *RegMan[*fakeOp]) *fakeOp {
	t.Helper()
	v := value(t, rm, ir.Long)
	loc := &fakeOp{reg: -1, base: v.reg}
	loc.owned = rm.Transfer(v, loc)
	return loc
}

func fill(t *testing.T, rm *RegMan[*fakeOp], n int) []*fakeOp {
	t.Helper()
	var ops []*fakeOp
	for i := 0; i < n; i++ {
		ops = append(ops, value(t, rm, ir.Long))
	}
	return ops
}

func TestRegManStackDiscipline(t *testing.T) {
	rm, _, _ := newFake()
	ops := fill(t, rm, ir.NAllocatable)
	err := rm.CheckStatementEnd()
	if err == nil || err.Error() != "fake: register r0 leaked across a statement boundary" {
		t.Errorf("leak check with all registers busy = %v", err)
	}
	for _, o := range ops {
		rm.Consume(o)
		if o.owned != 0 {
			t.Errorf("consumed operand still owns %v", o.owned)
		}
	}
	if err := rm.CheckStatementEnd(); err != nil {
		t.Errorf("all freed but: %v", err)
	}
}

func TestRegManSpillsOldest(t *testing.T) {
	rm, e, f := newFake()
	ops := fill(t, rm, ir.NAllocatable)
	// The bank is full; the next allocation spills the oldest value — the
	// one with the most distant future use (§5.3.3).
	extra := value(t, rm, ir.Long)
	if rm.Spills != 1 {
		t.Errorf("spills = %d, want 1", rm.Spills)
	}
	if extra.reg != 0 {
		t.Errorf("extra value got r%d, want the spilled r0", extra.reg)
	}
	if ops[0].reg != -1 || ops[0].owned != 0 {
		t.Errorf("oldest operand not redirected to a virtual register: %+v", ops[0])
	}
	if want := "\tst\tr0," + ops[0].Asm() + "\n"; e.String() != want {
		t.Errorf("spill emitted %q, want %q", e.String(), want)
	}
	if f.TotalFrame() == 0 {
		t.Error("no virtual register allocated in the frame")
	}
}

func TestRegManPinPreventsSpill(t *testing.T) {
	rm, e, _ := newFake()
	for _, o := range fill(t, rm, ir.NAllocatable) {
		rm.Pin(o)
	}
	_, err := rm.Alloc(ir.Long, &fakeOp{reg: -1, base: -1})
	want := "fake: no spillable register: r0=pinned r1=pinned r2=pinned r3=pinned r4=pinned r5=pinned"
	if err == nil || err.Error() != want {
		t.Errorf("allocation with every register pinned = %v, want %q", err, want)
	}
	if e.Lines() != 0 {
		t.Errorf("failed allocation emitted:\n%s", e.String())
	}
	rm.Unpin()
	if _, err := rm.Alloc(ir.Long, &fakeOp{reg: -1, base: -1}); err != nil {
		t.Errorf("allocation failed after unpin: %v", err)
	}
}

func TestRegManPhase1Spans(t *testing.T) {
	rm, _, _ := newFake()
	rm.Phase1Busy(5, true)
	// Exactly NAllocatable-1 registers are available; allocating them all
	// must never hand out r5 (further allocations would spill instead).
	seen := map[int]bool{}
	ops := fill(t, rm, ir.NAllocatable-1)
	for _, o := range ops {
		if seen[o.reg] {
			t.Fatalf("register r%d allocated twice", o.reg)
		}
		seen[o.reg] = true
	}
	if seen[5] {
		t.Error("phase-1 register r5 handed out by phase 3")
	}
	if rm.Spills != 0 {
		t.Errorf("unexpected spills: %d", rm.Spills)
	}
	err := rm.AllocSpecific(5, ir.Long, &fakeOp{reg: 5, base: -1})
	if err == nil || err.Error() != "fake: cannot evacuate phase-1 register r5" {
		t.Errorf("claiming a phase-1 register = %v", err)
	}
	for _, o := range ops {
		rm.Consume(o)
	}
	rm.Phase1Busy(5, false)
	if err := rm.CheckStatementEnd(); err != nil {
		t.Error(err)
	}
}

// TestRegManPairs: a double takes two consecutive registers, a single
// never lands inside the pair, and spilling the pair frees both.
func TestRegManPairs(t *testing.T) {
	rm, _, _ := newFake()
	d := value(t, rm, ir.Double)
	l := value(t, rm, ir.Long)
	if l.reg == d.reg || l.reg == d.reg+1 {
		t.Errorf("single r%d overlaps pair r%d,r%d", l.reg, d.reg, d.reg+1)
	}
	fill(t, rm, ir.NAllocatable-3)
	// Full bank: a further pair spills the oldest allocation, the pair.
	d2 := value(t, rm, ir.Double)
	if rm.Spills != 1 || d.reg != -1 || d2.reg != 0 {
		t.Errorf("pair not spilled to make room: spills %d, old %+v, new %+v", rm.Spills, d, d2)
	}
}

// TestRegManAllocSpecific covers the evacuations that claiming a fixed
// register (a call's r0 result) performs: a value moves to a free
// register or, with the bank full, spills; a location's base is relocated
// so the location stays addressable.
func TestRegManAllocSpecific(t *testing.T) {
	claim := func(t *testing.T, rm *RegMan[*fakeOp]) *fakeOp {
		t.Helper()
		res := &fakeOp{reg: 0, base: -1}
		if err := rm.AllocSpecific(0, ir.Long, res); err != nil {
			t.Fatal(err)
		}
		res.owned = RegRange(0, 1)
		return res
	}

	t.Run("value moves", func(t *testing.T) {
		rm, e, _ := newFake()
		v := value(t, rm, ir.Long)
		claim(t, rm)
		if v.reg != 1 || v.owned != RegRange(1, 1) {
			t.Errorf("value not moved to r1: %+v", v)
		}
		if want := "\tmv\tr1,r0\n"; e.String() != want {
			t.Errorf("evacuation emitted %q, want %q", e.String(), want)
		}
		if rm.Spills != 0 {
			t.Errorf("spills = %d", rm.Spills)
		}
	})

	t.Run("value spills when full", func(t *testing.T) {
		rm, e, _ := newFake()
		ops := fill(t, rm, ir.NAllocatable)
		claim(t, rm)
		if ops[0].reg != -1 || rm.Spills != 1 {
			t.Errorf("r0's value not spilled: %+v, spills %d", ops[0], rm.Spills)
		}
		if !strings.HasPrefix(e.String(), "\tst\tr0,") {
			t.Errorf("evacuation emitted %q", e.String())
		}
	})

	t.Run("base relocates", func(t *testing.T) {
		rm, e, _ := newFake()
		loc := location(t, rm)
		claim(t, rm)
		if loc.base != 1 || loc.owned != RegRange(1, 1) {
			t.Errorf("base not relocated to r1: %+v", loc)
		}
		if want := "\tmv\tr1,r0\n"; e.String() != want {
			t.Errorf("relocation emitted %q, want %q", e.String(), want)
		}
	})

	t.Run("base relocates past a spill", func(t *testing.T) {
		rm, e, _ := newFake()
		loc := location(t, rm)
		ops := fill(t, rm, ir.NAllocatable-1)
		rm.Pin(loc)
		claim(t, rm)
		if ops[0].reg != -1 || loc.base != 1 {
			t.Errorf("r1's value not spilled for the base: %+v, base r%d", ops[0], loc.base)
		}
		if !strings.HasSuffix(e.String(), "\tmv\tr1,r0\n") {
			t.Errorf("relocation emitted %q", e.String())
		}
	})

	t.Run("base spilled instead", func(t *testing.T) {
		// With the bank full the oldest allocation is the location itself:
		// spilling its base vacates r0 and no move is needed.
		rm, e, _ := newFake()
		loc := location(t, rm)
		fill(t, rm, ir.NAllocatable-1)
		claim(t, rm)
		if loc.base != -1 || loc.owned != 0 {
			t.Errorf("location base not spilled: %+v", loc)
		}
		if !strings.HasPrefix(e.String(), "\tsta\tr0,") || strings.Contains(e.String(), "mv") {
			t.Errorf("evacuation emitted %q", e.String())
		}
	})
}

// TestRegManFailedRelocationEmitsNothing: an operand whose register the
// machine cannot relocate fails the claim before any move is emitted or
// any register changes hands.
func TestRegManFailedRelocationEmitsNothing(t *testing.T) {
	rm, e, _ := newFake()
	loc := location(t, rm)
	loc.fixed = true
	err := rm.AllocSpecific(0, ir.Long, &fakeOp{reg: 0, base: -1})
	if err == nil || err.Error() != "fake: cannot relocate r0 out of operand (r0)" {
		t.Errorf("claim = %v", err)
	}
	if e.Lines() != 0 {
		t.Errorf("failed relocation emitted:\n%s", e.String())
	}
	if rm.owner[0] != loc || rm.busy[1] || loc.owned != RegRange(0, 1) {
		t.Errorf("failed relocation re-booked registers: owner %+v, r1 busy %v", rm.owner[0], rm.busy[1])
	}
}

// TestRegManReclaimAsDest: a source's registers become the destination's
// only when it is exactly a register value of the destination's width.
func TestRegManReclaimAsDest(t *testing.T) {
	rm, _, _ := newFake()
	src := value(t, rm, ir.Long)
	if _, ok := rm.ReclaimAsDest(src, ir.Double, &fakeOp{}); ok {
		t.Error("reclaimed a single register for a pair")
	}
	dst := &fakeOp{reg: -1, base: -1}
	r, ok := rm.ReclaimAsDest(src, ir.Long, dst)
	if !ok || r != src.reg || rm.owner[r] != dst || src.owned != 0 {
		t.Errorf("reclaim = r%d, %v; owner %+v; source owns %v", r, ok, rm.owner[r], src.owned)
	}
	if _, ok := rm.ReclaimAsDest(location(t, rm), ir.Long, dst); ok {
		t.Error("reclaimed a location's base register")
	}
}

// TestRegManSpillLive: SpillLive empties the bank oldest first.
func TestRegManSpillLive(t *testing.T) {
	rm, _, _ := newFake()
	ops := fill(t, rm, 3)
	if err := rm.SpillLive(); err != nil {
		t.Fatal(err)
	}
	for _, o := range ops {
		if o.reg != -1 {
			t.Errorf("value still in a register: %+v", o)
		}
	}
	if rm.Spills != 3 {
		t.Errorf("spills = %d, want 3", rm.Spills)
	}
	if err := rm.CheckStatementEnd(); err != nil {
		t.Error(err)
	}
}
