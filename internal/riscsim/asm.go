// Package riscsim is an assembler and simulator for the load/store
// RISC-subset target (internal/risc), the second machine that proves the
// target.Machine seam. It shares its core (internal/simcore) with vaxsim
// — the same directive set, label syntax, frame protocol and memory
// layout — so generated code for either target executes against the same
// differential oracles, and holds only its operand syntax and execute
// table. The instruction set is a deliberately minimal three-register
// design:
// sixteen 64-bit registers, loads and stores as the only memory accesses,
// no condition codes (compare-and-branch instead), and immediates only in
// li/lfi/addi/push.
//
// Register semantics: an integer instruction of size suffix b/w/l reads
// the low 1/2/4 bytes of its source registers, extending per its own
// signedness, and writes its result sign- (or, for the u-forms, zero-)
// extended to 64 bits. Upper register bits are therefore never observable
// across instructions, which is what lets the generator match the IR
// interpreter's value semantics exactly (see internal/risc). Floating
// values occupy a full register as float64 bits; f-suffixed operations
// round results through float32 exactly as the IR interpreter does.
package riscsim

import (
	"fmt"

	"ggcg/internal/simcore"
)

// AddrMode is an operand addressing mode. The machine is load/store, so
// the set is small: registers, displaced memory, absolute memory,
// immediates and code labels.
type AddrMode uint8

// Addressing modes.
const (
	MReg   AddrMode = iota // rN
	MDisp                  // d(rN) or (rN)
	MAbs                   // _name or _name+d
	MImm                   // $v
	MLabel                 // L7 or _name as a code target
)

// modeOf maps the shared operand syntax onto the addressing modes; (rN)
// is d(rN) with a zero displacement.
var modeOf = [...]AddrMode{
	simcore.KReg: MReg, simcore.KRegDef: MDisp, simcore.KDisp: MDisp,
	simcore.KAbs: MAbs, simcore.KImm: MImm, simcore.KLabel: MLabel,
}

// Operand is one parsed instruction operand.
type Operand struct {
	Mode AddrMode
	Reg  int
	Disp int32
	Sym  string
	Imm  int64
	FImm float64
	IsF  bool // immediate is floating
}

func (o Operand) String() string {
	switch o.Mode {
	case MReg:
		return simcore.RegName(o.Reg)
	case MDisp:
		return fmt.Sprintf("%d(%s)", o.Disp, simcore.RegName(o.Reg))
	case MAbs:
		if o.Disp != 0 {
			return fmt.Sprintf("%s+%d", o.Sym, o.Disp)
		}
		return o.Sym
	case MImm:
		if o.IsF {
			return fmt.Sprintf("$%g", o.FImm)
		}
		return fmt.Sprintf("$%d", o.Imm)
	case MLabel:
		return o.Sym
	}
	return "?"
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

func parseOperand(s string) (Operand, error) {
	a, err := simcore.ParseArg(s)
	if err != nil {
		return Operand{}, err
	}
	return Operand{Mode: modeOf[a.Kind], Reg: a.Reg, Disp: a.Disp, Sym: a.Sym,
		Imm: a.Imm, FImm: a.FImm, IsF: a.IsF}, nil
}
