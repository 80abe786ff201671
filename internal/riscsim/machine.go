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
	Ops:       table,
	Parse:     parseOperand,
	Link:      func(o *Operand) *simcore.Ref { return &o.Ref },
	ModeNames: []string{"rN", "d(rN)", "_abs", "$imm", "label"}, // AddrMode order
}

// Instrs returns the machine's instruction table without its decoders,
// shared: callers must not modify it.
func Instrs() map[string]simcore.Info { return isa.Instrs() }

// New returns a machine for the program with default memory.
func New(p *Program) *Machine {
	m := new(Machine)
	m.Core = simcore.NewCore[uint64](&isa, m, p)
	return m
}

// addr reads a register as a 32-bit address.
func (m *Machine) addr(r int) uint32 { return uint32(m.R[r]) }

// mem is a memory operand decoded: its address is R[base]&mask + off,
// which covers d(rN) and, with a zero mask, _abs.
type mem struct {
	base int
	mask uint32
	off  uint32
	mode AddrMode // its ModeCounts slot
}

// at computes a memory operand's address.
func (m *Machine) at(a mem) uint32 {
	m.ModeCounts[a.mode]++
	return m.addr(a.base)&a.mask + a.off
}

// decodeMem decodes a memory operand (MDisp or MAbs).
func decodeMem(o *Operand) (mem, error) {
	switch o.Mode {
	case MDisp:
		return mem{base: o.Reg, mask: ^uint32(0), off: uint32(o.Disp), mode: MDisp}, nil
	case MAbs:
		if !o.IsData {
			return mem{}, fmt.Errorf("undefined symbol %q", o.Sym)
		}
		return mem{off: o.Addr + uint32(o.Disp), mode: MAbs}, nil
	}
	return mem{}, fmt.Errorf("operand %s is not a memory reference", o)
}

// decodeReg checks that the operand is a register and returns its number.
func decodeReg(o *Operand) (int, error) {
	if o.Mode != MReg {
		return 0, fmt.Errorf("operand %s is not a register", o)
	}
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
