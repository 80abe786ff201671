package riscsim

import (
	"fmt"
	"math"

	"ggcg/internal/simcore"
)

// Machine is the simulated RISC-subset processor: sixteen 64-bit
// registers, a byte-addressable little-endian memory, no condition codes.
// Addresses are 32-bit (the low word of a register). It embeds the same
// core as vaxsim, so the stack layout and calling convention are
// byte-for-byte the same and the differential harness drives both
// machines identically.
type Machine struct {
	simcore.Core[uint64, Operand, *Machine]
}

// ExecError describes a runtime fault of the simulated machine.
type ExecError = simcore.ExecError

// isa is the RISC half of the simulator.
var isa = simcore.ISA[Operand, *Machine]{
	Name:      "riscsim",
	Exec:      execTable,
	Parse:     parseOperand,
	ModeNames: []string{"rN", "d(rN)", "_abs", "$imm", "label"}, // AddrMode order
}

// New returns a machine for the program with default memory.
func New(p *Program) *Machine {
	m := new(Machine)
	m.Core = simcore.NewCore[uint64](&isa, m, p)
	return m
}

// addr reads a register as a 32-bit address.
func (m *Machine) addr(r int) uint32 { return uint32(m.R[r]) }

// memAddr resolves a memory operand (MDisp or MAbs) to an address.
func (m *Machine) memAddr(o *Operand) (uint32, error) {
	m.ModeCounts[o.Mode]++
	switch o.Mode {
	case MDisp:
		return m.addr(o.Reg) + uint32(o.Disp), nil
	case MAbs:
		a, ok := m.Prog.Globals[o.Sym]
		if !ok {
			return 0, fmt.Errorf("undefined symbol %q", o.Sym)
		}
		return a + uint32(o.Disp), nil
	}
	return 0, fmt.Errorf("operand %s is not a memory reference", o)
}

// reg checks that the operand is a register and returns its number.
func (m *Machine) reg(o *Operand) (int, error) {
	if o.Mode != MReg {
		return 0, fmt.Errorf("operand %s is not a register", o)
	}
	m.ModeCounts[MReg]++
	return o.Reg, nil
}

// sx reads a register's low size bytes sign-extended; zx reads them
// zero-extended. All integer instructions read through these two, which
// is what makes the upper register bits unobservable.
func (m *Machine) sx(r, size int) int64 { return simcore.Extend(m.R[r], size, false) }

func (m *Machine) zx(r, size int) int64 { return simcore.Extend(m.R[r], size, true) }

// setInt writes an integer result sign-extended per size; setUint writes
// it zero-extended (the u-form convention). Consumers re-extend, so the
// two conventions are interchangeable in generated code.
func (m *Machine) setInt(r, size int, v int64) {
	m.R[r] = uint64(simcore.Extend(uint64(v), size, false))
}

func (m *Machine) setUint(r, size int, v int64) {
	m.R[r] = uint64(simcore.Extend(uint64(v), size, true))
}

// Floating values occupy a full register as float64 bits.
func (m *Machine) fval(r int) float64 { return math.Float64frombits(m.R[r]) }

func (m *Machine) setF(r int, v float64) { m.R[r] = math.Float64bits(v) }
