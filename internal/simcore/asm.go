package simcore

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Instr is one assembled instruction, as written: its mnemonic, its
// operands and its source line, with Op, the opcode of its mnemonic,
// which the assembler stamps. What executes is the Exec its mnemonic's
// decoder built from it, held in the Program beside it.
type Instr[O Operand] struct {
	Mn   string
	Op   int
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

// WantOps checks that the instruction has n operands, the first check of
// every decoder.
func (i *Instr[O]) WantOps(n int) error {
	if len(i.Ops) != n {
		return fmt.Errorf("want %d operands, have %d", n, len(i.Ops))
	}
	return nil
}

// Program is an assembled unit ready to execute: the instructions, their
// decoded form and the symbol tables. Machines only read it, so any
// number may run one Program at once.
type Program[O Operand, M any] struct {
	Instrs  []Instr[O]
	Labels  map[string]int    // code label -> instruction index
	Globals map[string]uint32 // data symbol -> address
	DataEnd uint32            // first address beyond static data
	init    []dataInit
	// code holds each instruction decoded, by index; nil until the
	// Program is decoded, which Assemble does.
	code []step[M]
}

// step is one decoded instruction: its Exec and its opcode, the slot of
// the machine's execution counts it increments.
type step[M any] struct {
	exec Exec[M]
	op   int
}

type dataInit struct {
	addr  uint32
	bytes []byte
}

// dataBase is where static data is placed in simulated memory; both
// machines share the layout, so the differential harness reads globals of
// either target identically.
const dataBase = 0x1000

// Assemble parses assembly text into an executable program: label
// definitions and directives here, mnemonics and operands through the
// machine's decoders and operand parser. It decodes every instruction
// once, so executing one only calls its Exec.
func Assemble[O Operand, M any](isa *ISA[O, M], src string) (*Program[O, M], error) {
	p := &Program[O, M]{
		Labels:  make(map[string]int),
		Globals: make(map[string]uint32),
	}
	lines := strings.Split(src, "\n")
	// At most one instruction per line; sizing for that once saves
	// regrowing the slice of instructions as it fills.
	p.Instrs = make([]Instr[O], 0, len(lines))
	cursor := uint32(dataBase)
	inData := false
	for lineNo, raw := range lines {
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
	// Link every operand to the symbol it names; a code target must
	// resolve.
	for i := range p.Instrs {
		in := &p.Instrs[i]
		for j := range in.Ops {
			if sym, ok := p.link(isa.Link, &in.Ops[j]); !ok {
				return nil, fmt.Errorf("%s: line %d: undefined target %q", isa.Name, in.Line, sym)
			}
		}
	}
	p.bind(isa.opcodes())
	return p, nil
}

// Ref is what the assembler resolved of the symbol an operand names: the
// code label's instruction index (Code, when IsCode) and the data
// symbol's address (Addr, when IsData). A machine's operand embeds one
// and ISA.Link returns it, so a decoder reads these fields instead of
// looking the symbol up.
type Ref struct {
	Code   int
	Addr   uint32
	IsCode bool
	IsData bool
}

// link resolves the symbol operand o names into its Ref, found by ref
// (the ISA's Link). It reports false, with the symbol, for a code target
// that is neither a label nor a global; any other symbol that does not
// resolve is left to fail only if it is executed.
func (p *Program[O, M]) link(ref func(*O) *Ref, o *O) (string, bool) {
	sym, label := (*o).Symbol()
	if sym == "" {
		return "", true
	}
	r := ref(o)
	r.Code, r.IsCode = p.Labels[sym]
	r.Addr, r.IsData = p.Globals[sym]
	return sym, !label || r.IsCode || r.IsData
}

// bind decodes every linked instruction through its opcode's decoder.
func (p *Program[O, M]) bind(t *opcodeTable[O, M]) {
	p.code = make([]step[M], len(p.Instrs))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		p.code[i] = step[M]{t.decode[in.Op](in), in.Op}
	}
}

// decode returns a decoded copy of a Program built by hand: opcodes
// stamped and operands linked. Unlike Assemble it accepts undefined code
// targets and unknown mnemonics; they fail only when executed.
func (p *Program[O, M]) decode(isa *ISA[O, M]) *Program[O, M] {
	t := isa.opcodes()
	q := *p
	q.Instrs = slices.Clone(p.Instrs)
	for i := range q.Instrs {
		in := &q.Instrs[i]
		op, ok := t.index[in.Mn]
		if !ok {
			op = len(t.names)
		}
		in.Op = op
		in.Ops = slices.Clone(in.Ops)
		for j := range in.Ops {
			q.link(isa.Link, &in.Ops[j])
		}
	}
	q.bind(t)
	return &q
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

func (p *Program[O, M]) directive(line string, cursor uint32, inData bool) (uint32, bool, error) {
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
	op, ok := isa.opcodes().index[mn]
	in := Instr[O]{Mn: mn, Op: op, Line: lineNo}
	if !ok {
		return in, fmt.Errorf("unknown instruction %q", mn)
	}
	if rest != "" {
		in.Ops = make([]O, 0, strings.Count(rest, ",")+1)
		for more := true; more; {
			var part string
			part, rest, more = strings.Cut(rest, ",")
			o, err := isa.Parse(strings.TrimSpace(part))
			if err != nil {
				return in, err
			}
			in.Ops = append(in.Ops, o)
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
