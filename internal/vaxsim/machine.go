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
	Ops:   table,
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

// Instrs returns the machine's instruction table without its decoders,
// shared: callers must not modify it.
func Instrs() map[string]simcore.Info { return isa.Instrs() }

// New returns a machine for the program with default memory.
func New(p *Program) *Machine {
	m := new(Machine)
	m.Core = simcore.NewCore[uint32](&isa, m, p)
	return m
}

// opnd is an operand decoded for access at one size, its addressing mode
// folded into a kind and fixed fields: a register, an immediate's value,
// or the address R[reg]&base + disp + R[index]*scale, which covers (rN),
// d(rN), _abs and each of them indexed. Deferred, autoincrement and
// autodecrement operands take the general path. No evaluation can fail:
// the decoder has rejected every operand that would.
type opnd struct {
	kind     uint8
	mode     AddrMode
	extra    uint8 // xDeferred, xIndexed: counted in their own slots
	size     uint8
	unsigned bool // integer reads zero-extend
	reg      int32
	index    int32
	base     uint32 // mask of R[reg] in the address: 0 for _abs
	disp     uint32
	scale    uint32 // the operand size when indexed, else 0
	imm      int64  // an immediate's value, as a float64's bits if floating
}

// Operand kinds.
const (
	okReg     = iota // rN
	okImm            // $v
	okMem            // (rN), d(rN), _abs, maybe indexed
	okGeneral        // deferred, (rN)+, -(rN)
)

// opnd.extra bits.
const (
	xDeferred = 1 << iota
	xIndexed
)

// decode decodes o, for an access of size bytes of integer or floating
// data, into o.form. It fails where evaluating o would: an indexed
// register, an absolute symbol that names no data, a code label.
func (o *Operand) decode(size int, float bool) error {
	d := &o.form
	*d = opnd{mode: o.Mode, size: uint8(size), reg: int32(o.Reg)}
	if o.Deferred {
		d.extra |= xDeferred
	}
	if o.Index >= 0 {
		d.extra |= xIndexed
		d.index, d.scale = int32(o.Index), uint32(size)
	}
	switch o.Mode {
	case MReg:
		if o.Index >= 0 {
			return fmt.Errorf("register mode cannot be indexed")
		}
		d.kind = okReg
		return nil
	case MImm:
		v, f := o.Imm, float64(o.Imm)
		if o.IsF {
			v, f = int64(o.FImm), o.FImm
		}
		d.kind, d.imm = okImm, v
		if float {
			d.imm = int64(math.Float64bits(f))
		}
		return nil
	case MAbs:
		if !o.IsData {
			return fmt.Errorf("undefined symbol %q", o.Sym)
		}
		d.reg, d.disp = 0, o.Addr+uint32(o.Disp)
	case MRegDef:
		d.base = ^uint32(0)
	case MDisp:
		d.base, d.disp = ^uint32(0), uint32(o.Disp)
	case MAutoInc, MAutoDec:
	default:
		return fmt.Errorf("operand %s not addressable here", o)
	}
	d.kind = okMem
	if o.Deferred || o.Mode == MAutoInc || o.Mode == MAutoDec {
		d.kind = okGeneral
	}
	return nil
}

// count tallies one evaluation of o in ModeCounts.
func (m *Machine) count(o *opnd) {
	m.ModeCounts[o.mode]++
	if o.extra != 0 {
		if o.extra&xDeferred != 0 {
			m.ModeCounts[modeDeferred]++
		}
		if o.extra&xIndexed != 0 {
			m.ModeCounts[modeIndexed]++
		}
	}
}

// general computes the address of a deferred, autoincrement or
// autodecrement operand, applying the register side effect, which must
// happen exactly once per evaluation (cf. §6.1 on side-effect
// descriptors).
func (m *Machine) general(o *opnd) uint32 {
	step := uint32(o.size)
	if o.extra&xDeferred != 0 {
		step = 4 // deferred autoincrement steps over the pointer
	}
	var a uint32
	switch o.mode {
	case MAutoInc:
		a = m.R[o.reg]
		m.R[o.reg] += step
	case MAutoDec:
		m.R[o.reg] -= step
		a = m.R[o.reg]
	default:
		a = m.R[o.reg]&o.base + o.disp
	}
	if o.extra&xDeferred != 0 {
		// The addressed longword holds the operand's address.
		a = uint32(m.Mem.Load(a, 4))
	}
	return a + m.R[o.index]*o.scale
}

// get evaluates and reads an integer operand, extended to 64 bits. An
// immediate reads as written, whatever the size.
func (m *Machine) get(o *opnd) int64 {
	m.count(o)
	var v uint64
	switch o.kind {
	case okImm:
		return o.imm
	case okReg:
		v = uint64(m.R[o.reg])
	case okMem:
		v = m.Mem.Load(m.R[o.reg]&o.base+o.disp+m.R[o.index]*o.scale, int(o.size))
	default:
		v = m.Mem.Load(m.general(o), int(o.size))
	}
	return simcore.Extend(v, int(o.size), o.unsigned)
}

// put evaluates an integer operand and writes the low bytes of v to it.
func (m *Machine) put(o *opnd, v int64) {
	m.count(o)
	switch o.kind {
	case okReg:
		m.setReg(o.reg, o.size, v)
	case okMem:
		m.Mem.Store(m.R[o.reg]&o.base+o.disp+m.R[o.index]*o.scale, int(o.size), uint64(v))
	default:
		m.Mem.Store(m.general(o), int(o.size), uint64(v))
	}
}

// setReg writes the low size bytes of v to register r. A byte or word
// write modifies only the register's low bits, as on the real machine.
func (m *Machine) setReg(r int32, size uint8, v int64) {
	switch size {
	case 1:
		m.R[r] = m.R[r]&^0xff | uint32(uint8(v))
	case 2:
		m.R[r] = m.R[r]&^0xffff | uint32(uint16(v))
	default:
		m.R[r] = uint32(v)
	}
}

// loc is an evaluated operand, for instructions that read and write it,
// or evaluate several operands before they read any: a register, an
// address or an immediate.
type loc struct {
	kind uint8 // okReg, okMem or okImm
	reg  int32
	addr uint32
}

// at evaluates an operand to its location.
func (m *Machine) at(o *opnd) loc {
	m.count(o)
	switch o.kind {
	case okImm:
		return loc{kind: okImm}
	case okReg:
		return loc{kind: okReg, reg: o.reg}
	case okMem:
		return loc{kind: okMem, addr: m.R[o.reg]&o.base + o.disp + m.R[o.index]*o.scale}
	}
	return loc{kind: okMem, addr: m.general(o)}
}

// load reads the integer operand o, evaluated to l.
func (m *Machine) load(o *opnd, l loc) int64 {
	switch l.kind {
	case okImm:
		return o.imm
	case okReg:
		return simcore.Extend(uint64(m.R[l.reg]), int(o.size), o.unsigned)
	}
	return simcore.Extend(m.Mem.Load(l.addr, int(o.size)), int(o.size), o.unsigned)
}

// store writes v to the integer operand o, evaluated to l.
func (m *Machine) store(o *opnd, l loc, v int64) {
	if l.kind == okReg {
		m.setReg(l.reg, o.size, v)
		return
	}
	m.Mem.Store(l.addr, int(o.size), uint64(v))
}

// loadFloat reads an F (4-byte) or D (8-byte) floating operand, evaluated
// to l. A D operand in a register occupies the register pair rN, rN+1.
func (m *Machine) loadFloat(o *opnd, l loc) float64 {
	switch l.kind {
	case okImm:
		return math.Float64frombits(uint64(o.imm))
	case okReg:
		if o.size == 4 {
			return float64(math.Float32frombits(m.R[l.reg]))
		}
		return math.Float64frombits(uint64(m.R[l.reg]) | uint64(m.R[l.reg+1])<<32)
	}
	if o.size == 4 {
		return float64(math.Float32frombits(uint32(m.Mem.Load(l.addr, 4))))
	}
	return math.Float64frombits(m.Mem.Load(l.addr, 8))
}

// storeFloat writes v to the floating operand o, evaluated to l.
func (m *Machine) storeFloat(o *opnd, l loc, v float64) {
	switch {
	case l.kind == okReg && o.size == 4:
		m.R[l.reg] = math.Float32bits(float32(v))
	case l.kind == okReg:
		bits := math.Float64bits(v)
		m.R[l.reg] = uint32(bits)
		m.R[l.reg+1] = uint32(bits >> 32)
	case o.size == 4:
		m.Mem.Store(l.addr, 4, uint64(math.Float32bits(float32(v))))
	default:
		m.Mem.Store(l.addr, 8, math.Float64bits(v))
	}
}
