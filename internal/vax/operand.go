// Package vax is the VAX-11 target of the table-driven code generator: the
// machine description grammar, the semantic attribute routines invoked by
// the pattern matcher's reductions, the hand-written instruction table with
// its binding and range idioms (§5.3 of the paper), the machine half of
// the register manager (§5.3.3: register pairs, value, base and index
// spills), and the function header (§5.4).
package vax

import (
	"strconv"

	"ggcg/internal/ir"
	"ggcg/internal/target"
)

// OperMode is an addressing mode of an operand descriptor.
type OperMode uint8

// Operand addressing modes.
const (
	ONone    OperMode = iota
	OReg              // rN (or the pair rN,rN+1 for doubles)
	OImm              // $v
	OFImm             // $f.f
	OAbs              // _sym+off
	ODisp             // off(reg); reg may be any register including fp/ap
	ORegDef           // (reg)
	OAutoInc          // (reg)+
	OAutoDec          // -(reg)
)

// Operand is the semantic attribute an encapsulating reduction condenses a
// pattern into (§5.2): an addressing mode plus the data type and register
// ownership needed by the instruction generator.
type Operand struct {
	Mode OperMode
	Type ir.Type // data type, including unsignedness
	Reg  int     // base register
	Xreg int     // index register of the indexed form, or -1
	Off  int64   // displacement
	Sym  string  // symbol of the absolute form
	Val  int64   // immediate value
	FVal float64 // floating immediate value

	// Deferred marks the VAX deferred forms (*d(r), *_sym, *(r)+): the
	// addressed longword holds the operand's address. The code generator
	// produces it for a memory fetch whose address is itself a memory
	// fetch of a pointer.
	Deferred bool

	// Owned is the set of allocatable registers this operand holds; the
	// register manager reclaims them when the operand is consumed.
	Owned target.RegSet

	// used marks a side-effecting (autoincrement) operand that has already
	// been formatted once; subsequent references must refer to the same
	// location, not re-apply the side effect (§6.1).
	used bool
}

func (g *Gen) intOp(t ir.Type, v int64) *Operand { return g.Op(Operand{Mode: OImm, Type: t, Val: v}) }
func (g *Gen) regOp(t ir.Type, r int) *Operand {
	return g.Op(Operand{Mode: OReg, Type: t, Reg: r, Xreg: -1})
}
func (g *Gen) fimmOp(t ir.Type, f float64) *Operand {
	return g.Op(Operand{Mode: OFImm, Type: t, FVal: f})
}

// IsReg reports whether the operand is (exactly) a register.
func (o *Operand) IsReg() bool { return o.Mode == OReg }

// IsImm reports whether the operand is an integer immediate.
func (o *Operand) IsImm() bool { return o.Mode == OImm }

// ImmIs reports whether the operand is the integer immediate v.
func (o *Operand) ImmIs(v int64) bool { return o.Mode == OImm && o.Val == v }

// Same reports whether two operands name the same location, the test the
// binding idioms use to turn three-address instructions into two-address
// instructions (§5.3.2).
func (o *Operand) Same(p *Operand) bool {
	if o == nil || p == nil || o.Mode != p.Mode || o.Deferred != p.Deferred {
		return false
	}
	switch o.Mode {
	case OReg:
		return o.Reg == p.Reg
	case OImm:
		return o.Val == p.Val
	case OFImm:
		return o.FVal == p.FVal
	case OAbs:
		return o.Sym == p.Sym && o.Off == p.Off && o.Xreg == p.Xreg
	case ODisp:
		return o.Reg == p.Reg && o.Off == p.Off && o.Xreg == p.Xreg
	case ORegDef:
		return o.Reg == p.Reg && o.Xreg == p.Xreg
	}
	// Side-effecting modes never bind.
	return false
}

// AppendAsm appends the operand in assembler syntax to b, applying the
// addressing-mode format table of phase 4 (§5.4). A side-effecting
// operand formats as its mode once; afterwards it refers to the location
// the side effect left behind.
func (o *Operand) AppendAsm(b []byte) []byte {
	if o.Deferred {
		b = append(b, '*')
		// Deferred autoincrement steps over the pointer (4 bytes), so a
		// reused descriptor refers back accordingly.
		switch {
		case o.Mode == OAutoInc && o.used:
			return appendRegDef(append(b, "-4"...), o.Reg)
		case o.Mode == OAutoInc:
			o.used = true
			return append(appendRegDef(b, o.Reg), '+')
		case o.Mode == OAutoDec && o.used:
			return appendRegDef(b, o.Reg)
		case o.Mode == OAutoDec:
			o.used = true
			return appendRegDef(append(b, '-'), o.Reg)
		}
	}
	switch o.Mode {
	case OReg:
		return append(b, ir.RegName(o.Reg)...)
	case OImm:
		return strconv.AppendInt(append(b, '$'), o.Val, 10)
	case OFImm:
		return target.AppendFloatImm(b, o.FVal)
	case OAbs:
		b = append(append(b, '_'), o.Sym...)
		if o.Off != 0 {
			b = strconv.AppendInt(append(b, '+'), o.Off, 10)
		}
		return o.appendIndex(b)
	case ODisp:
		return o.appendIndex(appendRegDef(strconv.AppendInt(b, o.Off, 10), o.Reg))
	case ORegDef:
		return o.appendIndex(appendRegDef(b, o.Reg))
	case OAutoInc:
		if o.used {
			// The register has already been stepped; the value read then
			// is at -size.
			return appendRegDef(strconv.AppendInt(b, int64(-o.Type.Size()), 10), o.Reg)
		}
		o.used = true
		return append(appendRegDef(b, o.Reg), '+')
	case OAutoDec:
		if o.used {
			return appendRegDef(b, o.Reg)
		}
		o.used = true
		return appendRegDef(append(b, '-'), o.Reg)
	}
	return append(b, '?')
}

// appendRegDef appends (rN).
func appendRegDef(b []byte, r int) []byte {
	return append(append(append(b, '('), ir.RegName(r)...), ')')
}

func (o *Operand) appendIndex(b []byte) []byte {
	if o.Xreg >= 0 {
		b = append(append(append(b, '['), ir.RegName(o.Xreg)...), ']')
	}
	return b
}

// Asm returns the operand's assembler syntax (AppendAsm), with the same
// side effect.
func (o *Operand) Asm() string { return string(o.AppendAsm(nil)) }

// ResultReg returns the register the operand names when it is exactly a
// register, or -1 — the emitter's condition-code tracking hook
// (target.Operand).
func (o *Operand) ResultReg() int {
	if o.Mode == OReg {
		return o.Reg
	}
	return -1
}

func (o *Operand) String() string { return o.Asm() }
