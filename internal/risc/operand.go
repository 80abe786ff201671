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

	// Owned lists allocatable registers this operand holds busy.
	Owned []int
}

func intOp(t ir.Type, v int64) *Operand { return &Operand{Mode: OImm, Type: t, Val: v, Base: -1} }
func fimmOp(t ir.Type, f float64) *Operand {
	return &Operand{Mode: OFImm, Type: t, FVal: f, Base: -1}
}

func regOp(t ir.Type, r int) *Operand { return &Operand{Mode: OReg, Type: t, Reg: r, Base: -1} }

// Asm renders the operand in riscsim assembly syntax. Unlike the VAX
// operand it is pure: autostep side effects are emitted as explicit addi
// instructions by the generator, never folded into operand syntax.
func (o *Operand) Asm() string {
	switch o.Mode {
	case OReg:
		return ir.RegName(o.Reg)
	case OImm:
		return "$" + strconv.FormatInt(o.Val, 10)
	case OFImm:
		s := fmt.Sprintf("$%g", o.FVal)
		if s == fmt.Sprintf("$%d", int64(o.FVal)) {
			s += ".0" // keep floating immediates visibly floating
		}
		return s
	case OLoc:
		if o.Sym != "" {
			if o.Off != 0 {
				return "_" + o.Sym + "+" + strconv.FormatInt(o.Off, 10)
			}
			return "_" + o.Sym
		}
		if o.Off == 0 {
			return "(" + ir.RegName(o.Base) + ")"
		}
		return strconv.FormatInt(o.Off, 10) + "(" + ir.RegName(o.Base) + ")"
	}
	return "?"
}

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
