// Package risc is the second code generator grown over the target.Machine
// seam: a Graham-Glanville backend for the load/store RISC subset
// simulated by internal/riscsim. It reuses every target-neutral phase —
// mdgen expansion, the table constructor, the matcher, the
// tree-transformation pass — and supplies only what the paper says a
// retarget needs: a machine description (grammar.go), semantic actions
// over a small operand algebra (sem.go, gen.go), and the spill and move
// hooks of the shared register manager (regman.go).
//
// The operand algebra is smaller than the VAX's because the machine is
// load/store: once a value participates in arithmetic it lives in a
// register, so semantic attributes on reg nonterminals are only OReg,
// OImm or OFImm. OLoc (a memory location) appears only as the attribute
// of mem/lval nonterminals, i.e. as a load source or store destination.
package risc

import (
	"fmt"
	"strconv"

	"ggcg/internal/ir"
	"ggcg/internal/target"
)

// OpMode distinguishes the operand shapes the generator tracks.
type OpMode uint8

// Operand modes.
const (
	ONone OpMode = iota
	OReg         // value in register Reg
	OImm         // integer immediate Val
	OFImm        // floating immediate FVal
	OLoc         // memory location: Sym, or Off(Base), possibly autostepped
)

// Operand is the semantic attribute of a nonterminal: a value (register
// or immediate) or a memory location a load/store can address.
type Operand struct {
	Mode OpMode
	Type ir.Type

	Reg int // OReg: register number

	// OLoc fields. Base < 0 means an absolute (symbolic) location.
	Base int
	Off  int64
	Sym  string

	// Autostep bookkeeping: Auto is +1 for postincrement, -1 for
	// predecrement, with Step the element size. The explicit addi is
	// emitted at first access (preAccess/postAccess); stepped records
	// that it has been, and a postincremented location is then re-read
	// at -Step(Base).
	Auto    int
	Step    int64
	stepped bool

	// Deferred marks a spilled location: the frame slot Off(fp) holds
	// the ADDRESS of the location rather than being it.
	Deferred bool

	Val  int64   // OImm
	FVal float64 // OFImm

	// Owned is the set of allocatable registers this operand holds busy.
	Owned target.RegSet
}

func (g *Gen) intOp(t ir.Type, v int64) *Operand {
	return g.Op(Operand{Mode: OImm, Type: t, Val: v, Base: -1})
}

func (g *Gen) fimmOp(t ir.Type, f float64) *Operand {
	return g.Op(Operand{Mode: OFImm, Type: t, FVal: f, Base: -1})
}

func (g *Gen) regOp(t ir.Type, r int) *Operand {
	return g.Op(Operand{Mode: OReg, Type: t, Reg: r, Base: -1})
}

// locOp returns the location off(base).
func (g *Gen) locOp(t ir.Type, off int64, base int) *Operand {
	return g.Op(Operand{Mode: OLoc, Type: t, Base: base, Off: off})
}

// AppendAsm appends the operand in riscsim assembly syntax to b. Unlike
// the VAX operand it is pure: autostep side effects are emitted as
// explicit addi instructions by the generator, never folded into operand
// syntax. A deferred location formats as the frame slot holding its
// address.
func (o *Operand) AppendAsm(b []byte) []byte {
	switch o.Mode {
	case OReg:
		return append(b, ir.RegName(o.Reg)...)
	case OImm:
		return strconv.AppendInt(append(b, '$'), o.Val, 10)
	case OFImm:
		return target.AppendFloatImm(b, o.FVal)
	case OLoc:
		if o.Sym != "" {
			b = append(append(b, '_'), o.Sym...)
			if o.Off != 0 {
				b = strconv.AppendInt(append(b, '+'), o.Off, 10)
			}
			return b
		}
		if o.Off != 0 {
			b = strconv.AppendInt(b, o.Off, 10)
		}
		return append(append(append(b, '('), ir.RegName(o.Base)...), ')')
	}
	return append(b, '?')
}

// Asm returns the operand's assembler syntax (AppendAsm).
func (o *Operand) Asm() string { return string(o.AppendAsm(nil)) }

// ResultReg implements target.Operand for redundant-load suppression.
func (o *Operand) ResultReg() int {
	if o.Mode == OReg {
		return o.Reg
	}
	return -1
}

func (o *Operand) String() string {
	return fmt.Sprintf("%s[%s]", o.Asm(), o.Type)
}
