package target

import (
	"fmt"
	"math/bits"

	"ggcg/internal/ir"
)

// RegSet is a set of allocatable registers, bit r standing for register
// r: the registers an operand descriptor owns, held by value.
type RegSet uint8

// RegRange returns the set of the n consecutive registers from r.
func RegRange(r, n int) RegSet { return RegSet((1<<n - 1) << r) }

// Has reports whether r is in the set.
func (s RegSet) Has(r int) bool { return r >= 0 && r < ir.NAllocatable && s&(1<<r) != 0 }

// Len returns the number of registers in the set.
func (s RegSet) Len() int { return bits.OnesCount8(uint8(s)) }

// RegOperand is what the register manager needs of a backend's operand
// descriptor: its assembler syntax and plain-register test (Operand), the
// machine type of the value it describes, and the allocatable registers
// it holds.
type RegOperand interface {
	comparable
	Operand

	// MachineType returns the machine type of the operand's value.
	MachineType() ir.Type

	// Regs returns the operand's set of owned allocatable registers,
	// which the manager reads and rewrites in place.
	Regs() *RegSet
}

// Freed tells the register manager which registers a spill hook took out
// of an operand.
type Freed uint8

const (
	// NotSpilled: the operand's use of the register cannot be spilled;
	// nothing was emitted.
	NotSpilled Freed = iota
	// FreedValue: the operand's value, in the register and the rest of
	// its register group, now lives in a virtual register.
	FreedValue
	// FreedBase: the register was the operand's base alone; the operand
	// now reaches its location through a pointer in a virtual register
	// and keeps its other registers.
	FreedBase
	// FreedAll: the operand's whole effective address now lives in a
	// virtual register, freeing every register the operand owned.
	FreedAll
)

// RegHooks is the machine-specific half of a register manager over
// operand type O: what the §5.3.3 policy cannot know about the machine.
// Width runs on every allocation; Spill and Move run only when a
// register is spilled, evacuated or relocated.
type RegHooks[O RegOperand] struct {
	// Name prefixes every error message ("vax", "risc").
	Name string

	// Width returns how many consecutive registers a value of type t
	// occupies.
	Width func(t ir.Type) int

	// Spill stores register r out of o into a virtual register allocated
	// in f, emitting the code through e, and rewrites o's addressing mode
	// to reach it there. o's register set is the manager's to update.
	Spill func(e *Emitter, f *ir.Func, o O, r int) Freed

	// Move emits the copy of register r into the free register nr and
	// rewrites o — which holds r as its value or inside its addressing
	// mode — to use nr. When o's use of r cannot be relocated it returns
	// false, having emitted nothing.
	Move func(e *Emitter, o O, r, nr int) bool
}

// RegMan is the register manager of the instruction generation phase
// (§5.3.3). It is deliberately simple: allocatable registers (r0–r5) are
// handed out on demand; since there is no common sub-expression
// detection, values can be assigned and freed with a stack discipline,
// and when the bank is exhausted the register nearest the bottom of the
// stack — the one with the most distant future use — is spilled to a
// compiler-generated temporary, a "virtual register". A spilled value is
// reloaded just before it is used.
//
// Registers assigned by the tree-transformation phase are communicated
// via special trees; Phase1Busy models their spans so this phase does not
// hand them out while they are live.
type RegMan[O RegOperand] struct {
	m *RegHooks[O]
	e *Emitter
	f *ir.Func

	owner  [ir.NAllocatable]O // operand holding the register, if any
	busy   [ir.NAllocatable]bool
	phase1 [ir.NAllocatable]bool
	pinned [ir.NAllocatable]bool
	order  []int // allocation order, oldest first, for spill selection

	// Spills counts registers spilled to virtual registers.
	Spills int
}

// NewRegMan returns a register manager for machine m, emitting spill code
// through e and allocating virtual registers in f's frame.
func NewRegMan[O RegOperand](m *RegHooks[O], e *Emitter, f *ir.Func) *RegMan[O] {
	return &RegMan[O]{m: m, e: e, f: f}
}

// Phase1Busy marks a register as owned by the tree-transformation phase's
// register manager for the current span of statements (§5.3.3).
func (rm *RegMan[O]) Phase1Busy(r int, busy bool) {
	if r >= 0 && r < ir.NAllocatable {
		rm.phase1[r] = busy
	}
}

func (rm *RegMan[O]) take(r int, o O) {
	rm.busy[r] = true
	rm.owner[r] = o
	rm.order = append(rm.order, r)
}

func (rm *RegMan[O]) release(r int) {
	var none O
	rm.busy[r] = false
	rm.owner[r] = none
	for i, x := range rm.order {
		if x == r {
			rm.order = append(rm.order[:i], rm.order[i+1:]...)
			break
		}
	}
}

// Alloc allocates a register (or group) for a value of type t owned by o,
// spilling if necessary.
func (rm *RegMan[O]) Alloc(t ir.Type, o O) (int, error) {
	n := rm.m.Width(t)
	for {
		if r, ok := rm.findFree(n); ok {
			for i := 0; i < n; i++ {
				rm.take(r+i, o)
			}
			return r, nil
		}
		if err := rm.spillOne(); err != nil {
			return 0, err
		}
	}
}

func (rm *RegMan[O]) findFree(n int) (int, bool) {
	for r := 0; r+n <= ir.NAllocatable; r++ {
		ok := true
		for i := 0; i < n; i++ {
			if rm.busy[r+i] || rm.phase1[r+i] {
				ok = false
				break
			}
		}
		if ok {
			return r, true
		}
	}
	return 0, false
}

// spillOne spills the oldest unpinned allocation the machine can spill to
// a virtual register.
func (rm *RegMan[O]) spillOne() error {
	var none O
	for _, r := range rm.order {
		if o := rm.owner[r]; o != none && !rm.pinned[r] && rm.spill(o, r) {
			return nil
		}
	}
	detail := ""
	for r := 0; r < ir.NAllocatable; r++ {
		switch {
		case rm.phase1[r]:
			detail += fmt.Sprintf(" r%d=phase1", r)
		case rm.pinned[r]:
			detail += fmt.Sprintf(" r%d=pinned", r)
		case rm.busy[r]:
			detail += fmt.Sprintf(" r%d=%s", r, rm.owner[r].AppendAsm(nil))
		}
	}
	return fmt.Errorf("%s: no spillable register:%s", rm.m.Name, detail)
}

// spill has the machine spill register r out of o, then books the
// registers that freed.
func (rm *RegMan[O]) spill(o O, r int) bool {
	owned := o.Regs()
	switch rm.m.Spill(rm.e, rm.f, o, r) {
	case FreedValue:
		for i := 0; i < rm.m.Width(o.MachineType()); i++ {
			rm.release(r + i)
		}
		*owned = 0
	case FreedBase:
		rm.release(r)
		*owned &^= RegRange(r, 1)
	case FreedAll:
		rm.releaseAll(owned)
	default:
		return false
	}
	rm.Spills++
	return true
}

// AllocSpecific makes a particular register (or group) available,
// evacuating a live value if needed, and allocates it to o for a value of
// type t. The call pseudo-instructions use it for the r0 result
// convention.
func (rm *RegMan[O]) AllocSpecific(r int, t ir.Type, o O) error {
	n := rm.m.Width(t)
	for i := 0; i < n; i++ {
		if rm.busy[r+i] || rm.phase1[r+i] {
			if err := rm.evacuate(r + i); err != nil {
				return err
			}
		}
	}
	for i := 0; i < n; i++ {
		rm.take(r+i, o)
	}
	return nil
}

// evacuate moves whatever lives in register r somewhere else. A value held
// in r moves to other registers or spills to a virtual register; a
// register absorbed into an addressing mode is relocated so the mode stays
// intact. Materializing a memory operand's value would read a store
// destination before the store, so addressing registers are always
// relocated, spilling an unrelated value when the bank is full.
func (rm *RegMan[O]) evacuate(r int) error {
	var none O
	if rm.phase1[r] {
		return fmt.Errorf("%s: cannot evacuate phase-1 register r%d", rm.m.Name, r)
	}
	o := rm.owner[r]
	if o == none {
		return fmt.Errorf("%s: register r%d busy without owner", rm.m.Name, r)
	}

	base := o.ResultReg()
	if base < 0 {
		nr, ok := rm.findFree(1)
		for !ok {
			if err := rm.spillOne(); err != nil {
				return err
			}
			if !rm.busy[r] {
				// spillOne picked o itself and spilled r out of the
				// addressing mode; r is already vacated.
				return nil
			}
			nr, ok = rm.findFree(1)
		}
		if !rm.m.Move(rm.e, o, r, nr) {
			return fmt.Errorf("%s: cannot relocate r%d out of operand %s", rm.m.Name, r, o.AppendAsm(nil))
		}
		rm.release(r)
		rm.take(nr, o)
		if owned := o.Regs(); owned.Has(r) {
			*owned = *owned&^RegRange(r, 1) | RegRange(nr, 1)
		}
		return nil
	}

	// A value: try other registers first, else spill to a virtual register.
	n := rm.m.Width(o.MachineType())
	nr, ok := rm.findFree(n)
	if !ok {
		rm.spill(o, base)
		return nil
	}
	rm.m.Move(rm.e, o, base, nr)
	for i := 0; i < n; i++ {
		rm.release(base + i)
		rm.take(nr+i, o)
	}
	*o.Regs() = RegRange(nr, n)
	return nil
}

// Pin protects an operand's registers from spilling while an instruction
// is being put together.
func (rm *RegMan[O]) Pin(o O) {
	owned := *o.Regs()
	for r := 0; r < ir.NAllocatable; r++ {
		if owned.Has(r) {
			rm.pinned[r] = true
		}
	}
	if r := o.ResultReg(); r >= 0 && r < ir.NAllocatable {
		rm.pinned[r] = true
	}
}

// Unpin releases all pins.
func (rm *RegMan[O]) Unpin() { rm.pinned = [ir.NAllocatable]bool{} }

// Transfer reassigns ownership of an operand's registers to the operand
// that encapsulates it — an addressing mode absorbing its base or index
// register. The spill machinery then sees the encapsulating descriptor
// instead of the stale sub-operand.
func (rm *RegMan[O]) Transfer(from, to O) RegSet {
	owned := *from.Regs()
	*from.Regs() = 0
	for r := 0; r < ir.NAllocatable; r++ {
		if owned.Has(r) && rm.owner[r] == from {
			rm.owner[r] = to
		}
	}
	return owned
}

// Consume reclaims every register an operand owns; called when the operand
// has been used as an instruction source.
func (rm *RegMan[O]) Consume(o O) { rm.releaseAll(o.Regs()) }

// releaseAll releases every register of *owned and empties it.
func (rm *RegMan[O]) releaseAll(owned *RegSet) {
	for r := 0; r < ir.NAllocatable; r++ {
		if owned.Has(r) {
			rm.release(r)
		}
	}
	*owned = 0
}

// ReclaimAsDest tries to reuse a source operand's registers as the
// destination of an instruction producing a value of type t, the "attempt
// to reclaim and reuse allocatable registers from the source operands"
// of §5.3.3. On success the registers change owner.
func (rm *RegMan[O]) ReclaimAsDest(src O, t ir.Type, dst O) (int, bool) {
	r, owned := src.ResultReg(), src.Regs()
	if r < 0 || r >= ir.NAllocatable || *owned != RegRange(r, rm.m.Width(t)) {
		return 0, false
	}
	for i := 0; i < rm.m.Width(t); i++ {
		rm.owner[r+i] = dst
	}
	*owned = 0
	return r, true
}

// SpillLive spills every live allocation to virtual registers. The ad hoc
// baseline generator uses it before an embedded call, since calls do not
// preserve the allocatable registers.
func (rm *RegMan[O]) SpillLive() error {
	for len(rm.order) > 0 {
		if err := rm.spillOne(); err != nil {
			return err
		}
	}
	return nil
}

// CheckStatementEnd verifies the stack discipline: at a statement boundary
// no phase-3 register may remain allocated. It returns an error naming the
// leak, which the tests treat as fatal.
func (rm *RegMan[O]) CheckStatementEnd() error {
	for r := 0; r < ir.NAllocatable; r++ {
		if rm.busy[r] {
			return fmt.Errorf("%s: register r%d leaked across a statement boundary", rm.m.Name, r)
		}
	}
	rm.order = rm.order[:0]
	return nil
}
