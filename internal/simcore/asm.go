package simcore

import (
	"fmt"
	"strconv"
	"strings"

	"ggcg/internal/obs"
)

// Instr is one assembled instruction.
type Instr[O Operand] struct {
	Mn   string
	Ops  []O
	Line int
}

func (i Instr[O]) String() string {
	parts := make([]string, len(i.Ops))
	for j, o := range i.Ops {
		parts[j] = o.String()
	}
	return i.Mn + "\t" + strings.Join(parts, ",")
}

// WantOps checks that the instruction has n operands; the assembler
// leaves operand counts to the handlers.
func (i *Instr[O]) WantOps(n int) error {
	if len(i.Ops) != n {
		return fmt.Errorf("want %d operands, have %d", n, len(i.Ops))
	}
	return nil
}

// Program is an assembled unit ready to execute.
type Program[O Operand] struct {
	Instrs  []Instr[O]
	Labels  map[string]int    // code label -> instruction index
	Globals map[string]uint32 // data symbol -> address
	DataEnd uint32            // first address beyond static data
	init    []dataInit
}

type dataInit struct {
	addr  uint32
	bytes []byte
}

// dataBase is where static data is placed in simulated memory; both
// machines share the layout, so the differential harness reads globals of
// either target identically.
const dataBase = 0x1000

// AssembleObs is Assemble with instrumentation: the pass reports a span
// and instruction/symbol counters to the observer (nil disables).
func AssembleObs[O Operand, M any](isa *ISA[O, M], src string, o *obs.Observer) (*Program[O], error) {
	sp := o.Start("assemble")
	defer sp.End()
	p, err := Assemble(isa, src)
	if err != nil {
		return nil, err
	}
	o.Count("asm.instructions", int64(len(p.Instrs)))
	o.Count("asm.labels", int64(len(p.Labels)))
	o.Count("asm.globals", int64(len(p.Globals)))
	return p, nil
}

// Assemble parses assembly text into an executable program: label
// definitions and directives here, mnemonics and operands through the
// machine's execute table and operand parser.
func Assemble[O Operand, M any](isa *ISA[O, M], src string) (*Program[O], error) {
	p := &Program[O]{
		Labels:  make(map[string]int),
		Globals: make(map[string]uint32),
	}
	cursor := uint32(dataBase)
	inData := false
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		for line != "" {
			// Peel off label definitions.
			colon := strings.IndexByte(line, ':')
			if colon < 0 || !isLabelDef(line[:colon]) {
				break
			}
			name := line[:colon]
			if inData {
				p.Globals[name] = cursor
			} else {
				p.Labels[name] = len(p.Instrs)
			}
			line = strings.TrimSpace(line[colon+1:])
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ".") {
			var err error
			cursor, inData, err = p.directive(line, cursor, inData)
			if err != nil {
				return nil, fmt.Errorf("%s: line %d: %v", isa.Name, lineNo+1, err)
			}
			continue
		}
		instr, err := parseInstr(isa, line, lineNo+1)
		if err != nil {
			return nil, fmt.Errorf("%s: line %d: %v", isa.Name, lineNo+1, err)
		}
		p.Instrs = append(p.Instrs, instr)
	}
	p.DataEnd = cursor
	// Verify that every code target resolves.
	for _, in := range p.Instrs {
		for _, o := range in.Ops {
			if sym := o.Label(); sym != "" {
				if _, ok := p.Labels[sym]; !ok {
					if _, isData := p.Globals[sym]; !isData {
						return nil, fmt.Errorf("%s: line %d: undefined target %q", isa.Name, in.Line, sym)
					}
				}
			}
		}
	}
	return p, nil
}

func isLabelDef(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c == '_' || c == '.' || c == '$' ||
			c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
			return false
		}
	}
	return true
}

func (p *Program[O]) directive(line string, cursor uint32, inData bool) (uint32, bool, error) {
	fields := strings.Fields(line)
	switch fields[0] {
	case ".text":
		return cursor, false, nil
	case ".data":
		return cursor, true, nil
	case ".globl", ".word":
		// .globl is advisory; .word after a function label is the VAX
		// entry register save mask, which the simulators handle implicitly.
		return cursor, inData, nil
	case ".align":
		if len(fields) < 2 {
			return cursor, inData, fmt.Errorf(".align needs an argument")
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 || n > 12 {
			return cursor, inData, fmt.Errorf("bad .align %q", fields[1])
		}
		size := uint32(1) << n
		if r := cursor % size; r != 0 {
			cursor += size - r
		}
		return cursor, inData, nil
	case ".comm":
		arg := strings.Join(fields[1:], "")
		parts := strings.Split(arg, ",")
		if len(parts) != 2 {
			return cursor, inData, fmt.Errorf("bad .comm %q", line)
		}
		size, err := strconv.Atoi(parts[1])
		if err != nil || size <= 0 {
			return cursor, inData, fmt.Errorf("bad .comm size %q", parts[1])
		}
		if r := cursor % 4; r != 0 {
			cursor += 4 - r
		}
		p.Globals[parts[0]] = cursor
		return cursor + uint32(size), inData, nil
	case ".space":
		if len(fields) < 2 {
			return cursor, inData, fmt.Errorf(".space needs a size")
		}
		size, err := strconv.Atoi(fields[1])
		if err != nil || size < 0 {
			return cursor, inData, fmt.Errorf("bad .space %q", fields[1])
		}
		return cursor + uint32(size), inData, nil
	case ".long", ".byte":
		elem := 4
		if fields[0] == ".byte" {
			elem = 1
		}
		args := strings.Split(strings.Join(fields[1:], ""), ",")
		for _, a := range args {
			v, err := strconv.ParseInt(a, 0, 64)
			if err != nil {
				return cursor, inData, fmt.Errorf("bad %s value %q", fields[0], a)
			}
			b := make([]byte, elem)
			for i := 0; i < elem; i++ {
				b[i] = byte(v >> (8 * i))
			}
			p.init = append(p.init, dataInit{addr: cursor, bytes: b})
			cursor += uint32(elem)
		}
		return cursor, inData, nil
	}
	return cursor, inData, fmt.Errorf("unknown directive %q", fields[0])
}

func parseInstr[O Operand, M any](isa *ISA[O, M], line string, lineNo int) (Instr[O], error) {
	mn := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mn, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	in := Instr[O]{Mn: mn, Line: lineNo}
	if _, ok := isa.Exec[mn]; !ok {
		return in, fmt.Errorf("unknown instruction %q", mn)
	}
	if rest != "" {
		for _, part := range strings.Split(rest, ",") {
			op, err := isa.Parse(strings.TrimSpace(part))
			if err != nil {
				return in, err
			}
			in.Ops = append(in.Ops, op)
		}
	}
	return in, nil
}

// Kind classifies an operand written in the syntax both machines share.
type Kind uint8

// Operand kinds of the shared syntax.
const (
	KReg    Kind = iota // rN, ap, fp, sp, pc
	KRegDef             // (rN)
	KDisp               // d(rN)
	KAbs                // _name or _name+d
	KImm                // $v
	KLabel              // Lnn, a code target
)

// Arg is one operand in the shared syntax; a machine maps it onto its own
// operand type.
type Arg struct {
	Kind Kind
	Reg  int
	Disp int32
	Sym  string
	Imm  int64
	FImm float64
	IsF  bool // immediate is floating
}

// ParseArg parses an operand in the shared syntax.
func ParseArg(s string) (Arg, error) {
	var a Arg
	if s == "" {
		return a, fmt.Errorf("empty operand")
	}
	switch {
	case strings.HasPrefix(s, "$"):
		body := s[1:]
		if v, err := strconv.ParseInt(body, 0, 64); err == nil {
			a.Kind, a.Imm = KImm, v
			return a, nil
		}
		if f, err := strconv.ParseFloat(body, 64); err == nil {
			a.Kind, a.FImm, a.IsF = KImm, f, true
			return a, nil
		}
		return a, fmt.Errorf("bad immediate %q", s)
	case strings.HasSuffix(s, ")"):
		lp := strings.IndexByte(s, '(')
		if lp < 0 {
			return a, fmt.Errorf("bad operand %q", s)
		}
		r, ok := ParseReg(s[lp+1 : len(s)-1])
		if !ok {
			return a, fmt.Errorf("bad base register in %q", s)
		}
		a.Reg = r
		if lp == 0 {
			a.Kind = KRegDef
			return a, nil
		}
		d, err := strconv.ParseInt(s[:lp], 0, 32)
		if err != nil {
			return a, fmt.Errorf("bad displacement in %q", s)
		}
		a.Kind, a.Disp = KDisp, int32(d)
		return a, nil
	}
	if r, ok := ParseReg(s); ok {
		a.Kind, a.Reg = KReg, r
		return a, nil
	}
	if strings.HasPrefix(s, "_") || strings.HasPrefix(s, "L") && isLabelDef(s) {
		// Split _name+disp.
		sym, disp := s, int64(0)
		if i := strings.IndexByte(s, '+'); i > 0 {
			var err error
			disp, err = strconv.ParseInt(s[i+1:], 0, 32)
			if err != nil {
				return a, fmt.Errorf("bad symbol offset %q", s)
			}
			sym = s[:i]
		}
		if !isLabelDef(sym) {
			return a, fmt.Errorf("bad symbol %q", s)
		}
		if strings.HasPrefix(sym, "L") && disp == 0 {
			a.Kind, a.Sym = KLabel, sym
			return a, nil
		}
		a.Kind, a.Sym, a.Disp = KAbs, sym, int32(disp)
		return a, nil
	}
	return a, fmt.Errorf("bad operand %q", s)
}

// ParseReg parses a register name: r0-r15 or ap, fp, sp, pc.
func ParseReg(s string) (int, bool) {
	switch s {
	case "ap":
		return AP, true
	case "fp":
		return FP, true
	case "sp":
		return SP, true
	case "pc":
		return PC, true
	}
	if strings.HasPrefix(s, "r") {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n <= 15 {
			return n, true
		}
	}
	return 0, false
}

// RegName is the assembler name of register r.
func RegName(r int) string {
	switch r {
	case AP:
		return "ap"
	case FP:
		return "fp"
	case SP:
		return "sp"
	case PC:
		return "pc"
	}
	return fmt.Sprintf("r%d", r)
}
