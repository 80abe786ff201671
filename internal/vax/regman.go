package vax

import (
	"fmt"

	"ggcg/internal/ir"
	"ggcg/internal/target"
)

// RegMan is the shared §5.3.3 register manager (internal/target) over VAX
// operand descriptors. The machine adds register pairs for doubles, the
// index register of the indexed modes, and movl/movaX as its move and
// spill instructions.
type RegMan = target.RegMan[*Operand]

var regHooks = target.RegHooks[*Operand]{
	Name:  "vax",
	Width: regsFor,
	Spill: spillReg,
	Move:  moveReg,
}

// NewRegMan returns a register manager emitting spill code through e and
// allocating virtual registers in f's frame.
func NewRegMan(e *Emitter, f *ir.Func) *RegMan { return target.NewRegMan(&regHooks, e, f) }

// MachineType returns the machine type of the operand's value.
func (o *Operand) MachineType() ir.Type { return o.Type.Machine() }

// Regs returns the operand's owned-register list for the register manager.
func (o *Operand) Regs() *[]int { return &o.Owned }

// regsFor returns how many consecutive registers a value of type t needs:
// doubles occupy a register pair.
func regsFor(t ir.Type) int {
	if t == ir.Double {
		return 2
	}
	return 1
}

// spillReg spills register r out of o. A register holding a value is
// stored and the descriptor redirected to the frame slot. A register
// absorbed into an addressing mode as the base is spilled by computing the
// address into the slot and turning the operand into its deferred form
// (*off(fp)). A register serving as the index is spilled by materializing
// the whole effective address with movaX, whose own operand size scales
// the index, releasing every register the mode absorbed.
func spillReg(e *Emitter, f *ir.Func, o *Operand, r int) target.Freed {
	switch {
	case o.Mode == OReg && o.Reg == r:
		t := o.Type.Machine()
		off := f.AllocTemp(t)
		e.Emit("mov"+t.Suffix(), o.Asm(), fmt.Sprintf("%d(fp)", off))
		// The operand now names the virtual register; all later uses
		// reload from it.
		o.Mode, o.Reg, o.Off, o.Xreg = ODisp, ir.RegFP, int64(off), -1
		return target.FreedValue

	case (o.Mode == ODisp || o.Mode == ORegDef) && !o.Deferred && o.Reg == r:
		off := f.AllocTemp(ir.Long)
		slot := fmt.Sprintf("%d(fp)", off)
		if o.Mode == ORegDef || o.Off == 0 {
			e.Emit("movl", ir.RegName(r), slot)
		} else {
			e.Emit("addl3", fmt.Sprintf("$%d", o.Off), ir.RegName(r), slot)
		}
		o.Mode, o.Deferred = ODisp, true
		o.Reg, o.Off = ir.RegFP, int64(off)
		return target.FreedBase

	case o.Xreg == r && (o.Mode == OAbs || o.Mode == ODisp || o.Mode == ORegDef):
		suffix := ""
		switch o.Type.Size() {
		case 1:
			suffix = "b"
		case 2:
			suffix = "w"
		case 4:
			suffix = "l"
		case 8:
			suffix = "q"
		}
		if suffix == "" {
			return target.NotSpilled
		}
		off := f.AllocTemp(ir.Long)
		e.Emit("mova"+suffix, o.Asm(), fmt.Sprintf("%d(fp)", off))
		o.Mode, o.Deferred = ODisp, true
		o.Reg, o.Off, o.Xreg = ir.RegFP, int64(off), -1
		return target.FreedAll
	}
	return target.NotSpilled
}

// moveReg moves register r of o into nr: a value (or pair) with its own
// sized move, a base or index register with movl.
func moveReg(e *Emitter, o *Operand, r, nr int) bool {
	switch {
	case o.Mode == OReg:
		e.Emit("mov"+o.Type.Machine().Suffix(), o.Asm(), ir.RegName(nr))
		o.Reg = nr
		return true
	case o.Xreg == r:
		o.Xreg = nr
	case o.Reg == r && (o.Mode == ODisp || o.Mode == ORegDef || o.Mode == OAutoInc || o.Mode == OAutoDec):
		o.Reg = nr
	default:
		return false
	}
	e.Emit("movl", ir.RegName(r), ir.RegName(nr))
	return true
}
