package vaxsim

import (
	"fmt"
	"math"

	"ggcg/internal/simcore"
)

// Machine is a simulated VAX subset processor: sixteen 32-bit registers, a
// byte-addressable little-endian memory, and the NZVC condition codes that
// almost every VAX instruction sets as a side effect (§6.1 of the paper).
// The embedded core supplies memory, the frame protocol, the step loop
// and the profile.
type Machine struct {
	simcore.Core[uint32, Operand, *Machine]

	N, Z, V, C bool
}

// ExecError describes a runtime fault of the simulated machine.
type ExecError = simcore.ExecError

// isa is the VAX half of the simulator.
var isa = simcore.ISA[Operand, *Machine]{
	Name:  "vaxsim",
	Exec:  execTable,
	Parse: parseOperand,
	Link:  func(o *Operand) *simcore.Ref { return &o.Ref },
	// The addressing modes in AddrMode order (the assembler's surface
	// syntax), then the deferred and indexed variants, counted separately.
	ModeNames: []string{"rN", "(rN)", "d(rN)", "_abs", "$imm", "(rN)+", "-(rN)", "label",
		"*deferred", "[rX] indexed"},
	Reset: func(m *Machine) { m.N, m.Z, m.V, m.C = false, false, false, false },
}

// ModeCounts slots of the deferred and indexed variants.
const (
	modeDeferred = 8
	modeIndexed  = 9
)

// New returns a machine for the program with default memory.
func New(p *Program) *Machine {
	m := new(Machine)
	m.Core = simcore.NewCore[uint32](&isa, m, p)
	return m
}

// loc is a resolved operand location. It has at most four fields, so the
// compiler keeps it in registers rather than in memory.
type loc struct {
	kind uint8 // 0 reg, 1 mem, 2 imm
	reg  int
	addr uint32
	imm  *Operand // the immediate operand, for kind locImm
}

const (
	locReg = iota
	locMem
	locImm
)

// resolve computes an operand's location, applying autoincrement and
// autodecrement side effects (which must happen exactly once per operand
// evaluation; cf. §6.1 on side-effect descriptors).
func (m *Machine) resolve(o *Operand, size int) (loc, error) {
	m.ModeCounts[o.Mode]++
	if o.Deferred {
		m.ModeCounts[modeDeferred]++
	}
	if o.Index >= 0 {
		m.ModeCounts[modeIndexed]++
	}
	var l loc
	switch o.Mode {
	case MReg:
		l = loc{kind: locReg, reg: o.Reg}
		if o.Index >= 0 {
			return l, fmt.Errorf("register mode cannot be indexed")
		}
		return l, nil
	case MRegDef:
		l = loc{kind: locMem, addr: m.R[o.Reg]}
	case MDisp:
		l = loc{kind: locMem, addr: m.R[o.Reg] + uint32(o.Disp)}
	case MAbs:
		if !o.IsData {
			return l, fmt.Errorf("undefined symbol %q", o.Sym)
		}
		l = loc{kind: locMem, addr: o.Addr + uint32(o.Disp)}
	case MImm:
		return loc{kind: locImm, imm: o}, nil
	case MAutoInc:
		step := uint32(size)
		if o.Deferred {
			step = 4 // deferred autoincrement steps over the pointer
		}
		l = loc{kind: locMem, addr: m.R[o.Reg]}
		m.R[o.Reg] += step
	case MAutoDec:
		step := uint32(size)
		if o.Deferred {
			step = 4
		}
		m.R[o.Reg] -= step
		l = loc{kind: locMem, addr: m.R[o.Reg]}
	default:
		return l, fmt.Errorf("operand %s not addressable here", o)
	}
	if o.Deferred {
		// The addressed longword holds the operand's address.
		l.addr = uint32(m.Mem.Load(l.addr, 4))
	}
	if o.Index >= 0 {
		l.addr += m.R[o.Index] * uint32(size)
	}
	return l, nil
}

// readInt reads an integer operand of the given size, sign- or
// zero-extending to 64 bits.
func (m *Machine) readInt(l loc, size int, unsigned bool) (int64, error) {
	switch l.kind {
	case locImm:
		if l.imm.IsF {
			return int64(l.imm.FImm), nil
		}
		return l.imm.Imm, nil
	case locReg:
		return simcore.Extend(uint64(m.R[l.reg]), size, unsigned), nil
	default:
		return simcore.Extend(m.Mem.Load(l.addr, size), size, unsigned), nil
	}
}

// writeInt writes the low `size` bytes of v to the operand. A byte or word
// write to a register modifies only its low bits, as on the real machine.
func (m *Machine) writeInt(l loc, size int, v int64) error {
	switch l.kind {
	case locImm:
		return fmt.Errorf("immediate operand is not writable")
	case locReg:
		switch size {
		case 1:
			m.R[l.reg] = m.R[l.reg]&^0xff | uint32(uint8(v))
		case 2:
			m.R[l.reg] = m.R[l.reg]&^0xffff | uint32(uint16(v))
		default:
			m.R[l.reg] = uint32(v)
		}
	default:
		m.Mem.Store(l.addr, size, uint64(v))
	}
	return nil
}

// readFloat reads an F (4-byte) or D (8-byte) floating operand. A D operand
// in a register occupies the register pair rN, rN+1.
func (m *Machine) readFloat(l loc, size int) (float64, error) {
	switch l.kind {
	case locImm:
		if l.imm.IsF {
			return l.imm.FImm, nil
		}
		return float64(l.imm.Imm), nil
	case locReg:
		if size == 4 {
			return float64(math.Float32frombits(m.R[l.reg])), nil
		}
		if l.reg >= 15 {
			return 0, fmt.Errorf("double register pair out of range")
		}
		bits := uint64(m.R[l.reg]) | uint64(m.R[l.reg+1])<<32
		return math.Float64frombits(bits), nil
	default:
		if size == 4 {
			return float64(math.Float32frombits(uint32(m.Mem.Load(l.addr, 4)))), nil
		}
		return math.Float64frombits(m.Mem.Load(l.addr, 8)), nil
	}
}

func (m *Machine) writeFloat(l loc, size int, v float64) error {
	switch l.kind {
	case locImm:
		return fmt.Errorf("immediate operand is not writable")
	case locReg:
		if size == 4 {
			m.R[l.reg] = math.Float32bits(float32(v))
			return nil
		}
		if l.reg >= 15 {
			return fmt.Errorf("double register pair out of range")
		}
		bits := math.Float64bits(v)
		m.R[l.reg] = uint32(bits)
		m.R[l.reg+1] = uint32(bits >> 32)
		return nil
	default:
		if size == 4 {
			m.Mem.Store(l.addr, 4, uint64(math.Float32bits(float32(v))))
			return nil
		}
		m.Mem.Store(l.addr, 8, math.Float64bits(v))
		return nil
	}
}
