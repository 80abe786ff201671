package risc

import (
	"ggcg/internal/ir"
	"ggcg/internal/target"
)

// RegMan is the shared §5.3.3 register manager (internal/target) over RISC
// operand descriptors. The machine makes it simpler than the VAX one:
// every value fits one 64-bit register (no pairs), and a location absorbs
// at most one base register (no index registers).
type RegMan = target.RegMan[*Operand]

var regHooks = target.RegHooks[*Operand]{
	Name:  "risc",
	Width: func(ir.Type) int { return 1 },
	Spill: spillReg,
	Move:  moveReg,
}

// NewRegMan returns a register manager emitting spill code through e and
// allocating virtual registers in f's frame.
func NewRegMan(e *Emitter, f *ir.Func) *RegMan { return target.NewRegMan(&regHooks, e, f) }

// MachineType returns the machine type of the operand's value.
func (o *Operand) MachineType() ir.Type { return o.Type.Machine() }

// Regs returns the operand's owned-register set for the register manager.
func (o *Operand) Regs() *target.RegSet { return &o.Owned }

// spillReg spills register r out of o. A register holding a value is
// stored (with the sized store of its type) and the descriptor redirected
// to the frame slot. A register serving as a load/store base is spilled by
// computing the effective address into the slot, turning the location
// into its deferred form.
func spillReg(e *Emitter, f *ir.Func, o *Operand, r int) target.Freed {
	switch {
	case o.Mode == OReg && o.Reg == r:
		t := o.Type.Machine()
		off := f.AllocTemp(t)
		e.Begin(stMns[t])
		e.ArgString(ir.RegName(r))
		e.ArgDisp(int64(off), ir.RegFP)
		e.End()
		// The operand now names the virtual register; all later uses
		// reload from it.
		o.Mode, o.Base, o.Off, o.Sym = OLoc, ir.RegFP, int64(off), ""
		return target.FreedValue

	case o.Mode == OLoc && !o.Deferred && o.Auto == 0 && o.Base == r:
		off := f.AllocTemp(ir.Long)
		if o.Off != 0 {
			emitAddi(e, r, o.Off)
		}
		e.Begin(stMns[ir.Long])
		e.ArgString(ir.RegName(r))
		e.ArgDisp(int64(off), ir.RegFP)
		e.End()
		o.Deferred = true
		o.Base, o.Off = ir.RegFP, int64(off)
		return target.FreedBase
	}
	return target.NotSpilled
}

// moveReg moves register r of o — its value or its location's base — into
// nr.
func moveReg(e *Emitter, o *Operand, r, nr int) bool {
	switch {
	case o.Mode == OReg:
		o.Reg = nr
	case o.Mode == OLoc && o.Base == r:
		o.Base = nr
	default:
		return false
	}
	e.Emit("mv", ir.RegName(nr), ir.RegName(r))
	return true
}
