// Package vaxsim is an assembler and simulator for the subset of the
// VAX-11/780 that the code generators in this repository emit. It stands in
// for the hardware and the UNIX assembler the paper's experiment ran on,
// letting generated code be executed and validated differentially against
// an intermediate-representation interpreter (see DESIGN.md §2).
//
// The subset covers the integer and floating move/convert/arithmetic/logic
// instructions with their 2- and 3-operand forms, compares and tests, the
// PCC-style jump pseudo-instructions, the general addressing modes
// (register, register deferred, displacement, displacement indexed,
// absolute, immediate, autoincrement and autodecrement), and a simplified
// but self-consistent calls/ret frame protocol.
//
// The package holds only what is VAX-specific — the operand syntax, the
// execute table and the condition codes; the assembler front end, memory,
// frame protocol and step loop are internal/simcore's.
package vaxsim

import (
	"fmt"
	"strings"

	"ggcg/internal/obs"
	"ggcg/internal/simcore"
)

// AddrMode is an operand addressing mode.
type AddrMode uint8

// Addressing modes.
const (
	MReg     AddrMode = iota // rN
	MRegDef                  // (rN)
	MDisp                    // d(rN)
	MAbs                     // _name or _name+d
	MImm                     // $v
	MAutoInc                 // (rN)+
	MAutoDec                 // -(rN)
	MLabel                   // L7 or _name as a code target
)

// modeOf maps the shared operand syntax onto the addressing modes.
var modeOf = [...]AddrMode{
	simcore.KReg: MReg, simcore.KRegDef: MRegDef, simcore.KDisp: MDisp,
	simcore.KAbs: MAbs, simcore.KImm: MImm, simcore.KLabel: MLabel,
}

// Operand is one parsed instruction operand. Index >= 0 adds the
// size-scaled index register of the VAX indexed addressing mode, written
// base[rX]. Deferred marks the '*' prefix: the addressed longword holds
// the operand's address.
type Operand struct {
	Mode     AddrMode
	Reg      int
	Index    int // -1 when absent
	Disp     int32
	Sym      string
	Imm      int64
	FImm     float64
	IsF      bool // immediate is floating
	Deferred bool
}

func (o Operand) String() string {
	pfx := ""
	if o.Deferred {
		pfx = "*"
	}
	base := ""
	switch o.Mode {
	case MReg:
		base = simcore.RegName(o.Reg)
	case MRegDef:
		base = "(" + simcore.RegName(o.Reg) + ")"
	case MDisp:
		base = fmt.Sprintf("%d(%s)", o.Disp, simcore.RegName(o.Reg))
	case MAbs:
		base = o.Sym
		if o.Disp != 0 {
			base += fmt.Sprintf("+%d", o.Disp)
		}
	case MImm:
		if o.IsF {
			base = fmt.Sprintf("$%g", o.FImm)
		} else {
			base = fmt.Sprintf("$%d", o.Imm)
		}
	case MAutoInc:
		base = "(" + simcore.RegName(o.Reg) + ")+"
	case MAutoDec:
		base = "-(" + simcore.RegName(o.Reg) + ")"
	case MLabel:
		base = o.Sym
	}
	if o.Index >= 0 {
		base += "[" + simcore.RegName(o.Index) + "]"
	}
	return pfx + base
}

// Label returns the code label the operand names, or "".
func (o Operand) Label() string {
	if o.Mode == MLabel {
		return o.Sym
	}
	return ""
}

// Instr is one assembled instruction.
type Instr = simcore.Instr[Operand]

// Program is an assembled unit ready to execute.
type Program = simcore.Program[Operand]

// Assemble parses assembly text into an executable program.
func Assemble(src string) (*Program, error) { return simcore.Assemble(&isa, src) }

// AssembleObs is Assemble with instrumentation: the pass reports a span
// and instruction/symbol counters to the observer (nil disables).
func AssembleObs(src string, o *obs.Observer) (*Program, error) {
	return simcore.AssembleObs(&isa, src, o)
}

// parseOperand parses the VAX-only syntax — the '*' deferred prefix, a
// trailing [rX] index, (rN)+ and -(rN) — around the shared operand syntax.
func parseOperand(s string) (Operand, error) {
	o := Operand{Index: -1}
	if strings.HasPrefix(s, "*") {
		inner, err := parseOperand(s[1:])
		if err != nil {
			return o, err
		}
		switch inner.Mode {
		case MRegDef, MDisp, MAbs, MAutoInc, MAutoDec:
			inner.Deferred = true
			return inner, nil
		}
		return o, fmt.Errorf("mode of %q cannot be deferred", s)
	}
	// Peel a trailing index register [rX].
	if strings.HasSuffix(s, "]") {
		lb := strings.LastIndexByte(s, '[')
		if lb < 0 {
			return o, fmt.Errorf("bad index in %q", s)
		}
		r, ok := simcore.ParseReg(s[lb+1 : len(s)-1])
		if !ok {
			return o, fmt.Errorf("bad index register in %q", s)
		}
		o.Index = r
		s = s[:lb]
	}
	switch {
	case strings.HasSuffix(s, ")+"):
		r, ok := simcore.ParseReg(strings.TrimSuffix(strings.TrimPrefix(s, "("), ")+"))
		if !ok || !strings.HasPrefix(s, "(") {
			return o, fmt.Errorf("bad autoincrement %q", s)
		}
		o.Mode, o.Reg = MAutoInc, r
		return o, nil
	case strings.HasPrefix(s, "-(") && strings.HasSuffix(s, ")"):
		r, ok := simcore.ParseReg(s[2 : len(s)-1])
		if !ok {
			return o, fmt.Errorf("bad autodecrement %q", s)
		}
		o.Mode, o.Reg = MAutoDec, r
		return o, nil
	}
	a, err := simcore.ParseArg(s)
	if err != nil {
		return o, err
	}
	o.Mode, o.Reg, o.Disp, o.Sym = modeOf[a.Kind], a.Reg, a.Disp, a.Sym
	o.Imm, o.FImm, o.IsF = a.Imm, a.FImm, a.IsF
	return o, nil
}
