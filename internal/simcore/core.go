// Package simcore is the machine-independent half of the bundled
// simulators (internal/vaxsim, internal/riscsim). It holds the assembler
// front end (lines, labels, directives and the shared operand syntax), the
// register file, memory and calls/ret frame protocol, the step loop with
// its step limit, counts and fault recovery, and the profile and global
// accessors. A simulator supplies only what differs, as an ISA: its
// operand syntax and its instruction table, which gives each mnemonic a
// decoder, a class and a data size. That table is the one declaration of
// the machine's instruction set; the code generator and the peephole
// optimizer read theirs from it.
//
// Instructions are decoded once, at assembly, the way the code generator
// resolves its description into tables ahead of use. Each operand is
// linked to the code index or data address of the symbol it names; then
// the mnemonic's decoder checks the operand count and each operand's
// form and returns the instruction's Exec, a function with its register
// numbers, displacements, immediates and targets bound. The Program
// holds one Exec per instruction, so the step loop only indexes and
// calls. An instruction whose operands are invalid decodes to an Exec
// that returns the fault, so it fails when, and only if, it executes.
package simcore

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

	"ggcg/internal/obs"
)

// Word is a register width: uint32 for the VAX, uint64 for the RISC
// machine. Addresses are 32-bit either way (the low word of a register).
type Word interface{ ~uint32 | ~uint64 }

// Operand is what the core needs of a machine's operand type: its
// disassembly, and the symbol it names (or ""), with whether it is a code
// target, which the assembler requires to be defined.
type Operand interface {
	String() string
	Symbol() (name string, label bool)
}

// Exec executes one decoded instruction on machine m. The step loop
// advances control to Core.Next, which a control transfer overwrites. A
// non-nil error faults the instruction.
type Exec[M any] func(m M) error

// Fail is the Exec of an instruction that faults with err whenever it
// executes: what a decoder returns for operands it rejects.
func Fail[M any](err error) Exec[M] {
	return func(M) error { return err }
}

// Class is the role an instruction table gives a mnemonic, for the layers
// that emit or rewrite code: the code generators and the peephole.
type Class uint8

// Class bits.
const (
	Jump       Class = 1 << iota // unconditional jump to its sole operand
	CondBranch                   // branch to its last operand, taken exactly when Info.Inverse is not
	Move                         // copies its first operand to its second; else sets only the codes
	Transfer                     // may transfer control: jumps, branches, calls and returns
	SetsResult                   // writes its last operand and sets the condition codes from it
)

// Info is one mnemonic's entry in an instruction table, less its decoder.
// Size is the data size in bytes its type suffix names (b, w, l, f or d;
// the last where there are two, as in cvtbl), or 0 where it names none.
type Info struct {
	Class   Class
	Inverse string // of a CondBranch
	Size    int
}

// Op is one entry of an instruction table: a mnemonic's Info and its
// decoder, which checks an instruction's operands, already linked, and
// returns its Exec with everything bound, or a Fail with the fault
// executing it must report.
type Op[O Operand, M any] struct {
	Info
	Decode func(*Instr[O]) Exec[M]
}

// ISA is the machine-specific half of a simulator, for machine type M
// with operand type O.
type ISA[O Operand, M any] struct {
	// Name prefixes every error message ("vaxsim", "riscsim").
	Name string
	// Ops is the instruction table: the set of mnemonics the assembler
	// accepts, and the one declaration of the machine's instruction set.
	Ops map[string]Op[O, M]
	// Parse parses one operand.
	Parse func(string) (O, error)
	// Link returns the Ref an operand embeds, where the assembler stores
	// what it resolved of the operand's symbol.
	Link func(*O) *Ref
	// ModeNames labels the Core.ModeCounts slots in Profile (at most
	// len(ModeCounts)).
	ModeNames []string
	// Reset, if set, clears machine-specific state when the core resets.
	Reset func(M)

	once  sync.Once
	table opcodeTable[O, M]

	infoOnce sync.Once
	infos    map[string]Info
}

// opcodeTable is an ISA's decoders indexed by opcode. Opcodes number the
// mnemonics in sorted order and index a machine's execution counts.
type opcodeTable[O Operand, M any] struct {
	names []string       // mnemonic of each opcode
	index map[string]int // mnemonic -> opcode
	// decode holds the decoder of each opcode and, one past the last,
	// that of a mnemonic the ISA lacks, which only a Program built by
	// hand can hold.
	decode []func(*Instr[O]) Exec[M]
}

// opcodes returns the opcode table, building it on first use.
func (isa *ISA[O, M]) opcodes() *opcodeTable[O, M] {
	isa.once.Do(func() {
		t := &isa.table
		for mn := range isa.Ops {
			t.names = append(t.names, mn)
		}
		sort.Strings(t.names)
		t.index = make(map[string]int, len(t.names))
		for op, mn := range t.names {
			t.index[mn] = op
			t.decode = append(t.decode, isa.Ops[mn].Decode)
		}
		t.decode = append(t.decode, func(in *Instr[O]) Exec[M] {
			return Fail[M](fmt.Errorf("unknown instruction %q", in.Mn))
		})
	})
	return &isa.table
}

// Instrs returns the ISA's instruction table without its decoders, built
// on first use and shared: callers must not modify it.
func (isa *ISA[O, M]) Instrs() map[string]Info {
	isa.infoOnce.Do(func() {
		isa.infos = make(map[string]Info, len(isa.Ops))
		for mn, op := range isa.Ops {
			isa.infos[mn] = op.Info
		}
	})
	return isa.infos
}

// Dedicated register numbers.
const (
	AP = 12
	FP = 13
	SP = 14
	PC = 15
)

// retSentinel is the return "pc" of the outermost frame.
const retSentinel = -2

// DefaultMemory is the simulated memory size.
const DefaultMemory = 1 << 20

// pageBits sizes the pages Memory allocates on first store: 4 KiB.
const pageBits = 12

const pageSize = 1 << pageBits

// Core is the state and behaviour both simulators share. A machine embeds
// it, so its fields and methods are the machine's.
type Core[W Word, O Operand, M any] struct {
	Prog *Program[O, M]
	R    [16]W
	Mem  Memory

	// Next is the instruction executed after the current one; the step
	// loop sets it to the following instruction and control transfers
	// overwrite it.
	Next int

	// Steps counts executed instructions over the machine's lifetime;
	// Profile breaks them down by opcode. MaxSteps bounds each call.
	Steps    int64
	MaxSteps int64

	// ModeCounts tallies operand evaluations per addressing mode, in the
	// slots the ISA's ModeNames label. Cheap fixed-slot increments, so
	// they are always on.
	ModeCounts [16]int64

	isa    *ISA[O, M]
	self   M
	pc     int
	frames [][6]W  // r6..r11 of each active frame, the entry-mask save
	counts []int64 // executions per opcode

	// fnSteps attributes executed instructions to the function (call
	// stack top) executing them; nil until EnableFuncProfile. fnMark is
	// Steps at the last call or return: the steps since are charged to
	// the top function at the next one.
	fnSteps map[string]int64
	fnStack []string
	fnMark  int64
}

// NewCore returns the core of machine self for program p, with default
// memory, already reset. A Program built by hand rather than by Assemble
// is decoded into a private copy first.
func NewCore[W Word, O Operand, M any](isa *ISA[O, M], self M, p *Program[O, M]) Core[W, O, M] {
	if p.code == nil {
		p = p.decode(isa)
	}
	c := Core[W, O, M]{
		Prog:     p,
		MaxSteps: 50_000_000,
		isa:      isa,
		self:     self,
		counts:   make([]int64, len(isa.opcodes().decode)),
	}
	c.load() // a new Memory reads zero everywhere
	return c
}

// Reset clears registers and memory and reapplies data initialization.
// Only the pages stored to since the machine was made need clearing.
func (c *Core[W, O, M]) Reset() {
	c.Mem.clear()
	c.load()
}

// load brings a machine with zeroed memory to its initial state: data
// initialization applied, registers clear, the stack pointer at the top.
func (c *Core[W, O, M]) load() {
	c.R = [16]W{}
	for _, di := range c.Prog.init {
		for i, b := range di.bytes {
			c.Mem.Store(di.addr+uint32(i), 1, uint64(b))
		}
	}
	c.R[SP] = W(DefaultMemory - 64)
	c.frames = c.frames[:0]
	if c.isa.Reset != nil {
		c.isa.Reset(c.self)
	}
}

// ExecError describes a runtime fault of a simulated machine: the failing
// instruction by program counter and assembly source line, its
// disassembly, and the underlying cause. Every instruction-level fault —
// including a Go panic recovered out of a handler — surfaces as an
// ExecError from Call, never as a panic of the simulator itself.
type ExecError struct {
	PC    int    // index into Program.Instrs
	Line  int    // assembly source line of the instruction
	Instr string // disassembled instruction
	Err   error  // underlying cause
	Sim   string // simulator name, the message prefix
}

func (e *ExecError) Error() string {
	return fmt.Sprintf("%s: pc %d, line %d (%s): %v", e.Sim, e.PC, e.Line, e.Instr, e.Err)
}

func (e *ExecError) Unwrap() error { return e.Err }

// Call resets the machine, pushes the given longword arguments and executes
// the named function until it returns, yielding r0 as a signed 32-bit
// result. Arguments are pushed so the first appears at 4(ap), matching the
// calling convention the code generators emit.
func (c *Core[W, O, M]) Call(name string, args ...int64) (int64, error) {
	c.Reset()
	return c.CallPreservingState(name, args...)
}

// CallPreservingState is Call without the Reset, so globals keep their
// values across calls.
func (c *Core[W, O, M]) CallPreservingState(name string, args ...int64) (int64, error) {
	entry, ok := c.Prog.Labels[name]
	if !ok {
		return 0, fmt.Errorf("%s: no function %q", c.isa.Name, name)
	}
	c.fnStack = c.fnStack[:0]
	for i := len(args) - 1; i >= 0; i-- {
		c.Push32(uint32(args[i]))
	}
	c.pushFrame(uint32(len(args)), retSentinel, name)
	c.pc = entry
	return c.run()
}

// run is the step loop: it executes from c.pc until the outermost frame
// returns, calling each instruction's decoded Exec. A panicking Exec — an
// out-of-range register number in a hand-built Program, say — is
// recovered here, once per call rather than once per step, and reported
// with its instruction context like any other fault instead of unwinding
// through the caller.
func (c *Core[W, O, M]) run() (r int64, err error) {
	defer func() {
		if p := recover(); p != nil {
			r, err = 0, c.fault(fmt.Errorf("panic: %v", p))
		}
		c.chargeFn()
	}()
	code, counts, self := c.Prog.code, c.counts, c.self
	limit := c.Steps + c.MaxSteps
	for pc := c.pc; ; pc = c.Next {
		if pc == retSentinel {
			return int64(int32(uint32(c.R[0]))), nil
		}
		if uint(pc) >= uint(len(code)) {
			return 0, fmt.Errorf("%s: pc %d out of range", c.isa.Name, pc)
		}
		if c.Steps++; c.Steps > limit {
			// The step over the limit counts, but runs nothing, so no
			// function is charged with it.
			c.fnMark++
			return 0, fmt.Errorf("%s: step limit %d exceeded", c.isa.Name, c.MaxSteps)
		}
		s := &code[pc]
		counts[s.op]++
		c.pc, c.Next = pc, pc+1
		if err := s.exec(self); err != nil {
			return 0, c.fault(err)
		}
	}
}

// fault reports err as a fault of the instruction at the current pc.
func (c *Core[W, O, M]) fault(err error) *ExecError {
	in := &c.Prog.Instrs[c.pc]
	return &ExecError{PC: c.pc, Line: in.Line, Instr: in.String(), Err: err, Sim: c.isa.Name}
}

// chargeFn charges the steps run since the last call or return to the
// function on top of the call stack.
func (c *Core[W, O, M]) chargeFn() {
	if n := c.Steps - c.fnMark; n > 0 && len(c.fnStack) > 0 {
		c.fnSteps[c.fnStack[len(c.fnStack)-1]] += n
	}
	c.fnMark = c.Steps
}

// PushFrame is the call half of the frame protocol, after the caller has
// pushed n argument words: push the argument count, the old ap, fp and
// the return pc (the next instruction), point ap at the count word and fp
// at the new frame, save r6-r11 in lieu of the entry mask, and transfer
// to entry. Steps from here on are charged to fn.
func (c *Core[W, O, M]) PushFrame(n uint32, fn string, entry int) {
	c.pushFrame(n, c.pc+1, fn)
	c.Next = entry
}

func (c *Core[W, O, M]) pushFrame(n uint32, ret int, fn string) {
	if c.fnSteps != nil {
		c.chargeFn()
		c.fnStack = append(c.fnStack, fn)
	}
	c.Push32(n)
	ap := c.R[SP]
	c.Push32(uint32(c.R[AP]))
	c.Push32(uint32(c.R[FP]))
	c.Push32(uint32(int32(ret)))
	c.R[FP] = c.R[SP]
	c.R[AP] = ap
	c.frames = append(c.frames, [6]W(c.R[6:12]))
}

// PopFrame is the ret half of the frame protocol: restore r6-r11, unwind
// the frame and its arguments, and return to the saved pc.
func (c *Core[W, O, M]) PopFrame() error {
	if len(c.frames) == 0 {
		return fmt.Errorf("ret with no active frame")
	}
	if c.fnSteps != nil && len(c.fnStack) > 0 {
		c.chargeFn()
		c.fnStack = c.fnStack[:len(c.fnStack)-1]
	}
	copy(c.R[6:12], c.frames[len(c.frames)-1][:])
	c.frames = c.frames[:len(c.frames)-1]
	c.R[SP] = c.R[FP]
	ret := int(int32(c.pop32()))
	c.R[FP] = W(c.pop32())
	c.R[AP] = W(c.pop32())
	n := c.pop32()
	c.R[SP] = W(uint32(c.R[SP]) + 4*n)
	c.Next = ret
	return nil
}

// Push32 pushes a longword onto the stack.
func (c *Core[W, O, M]) Push32(v uint32) {
	c.R[SP] = W(uint32(c.R[SP]) - 4)
	c.Mem.Store(uint32(c.R[SP]), 4, uint64(v))
}

func (c *Core[W, O, M]) pop32() uint32 {
	v := uint32(c.Mem.Load(uint32(c.R[SP]), 4))
	c.R[SP] = W(uint32(c.R[SP]) + 4)
	return v
}

// Memory is the simulated byte-addressable little-endian memory of
// DefaultMemory bytes. Addresses wrap at its size. It is paged: a page is
// allocated on the first store to it, and a load from a page never stored
// to reads zero, so a machine costs what its program touches rather than
// the whole address space. The zero Memory is ready to use.
type Memory struct {
	pages [DefaultMemory >> pageBits]*[pageSize]byte
	used  []uint32 // indices of the allocated pages
}

// page returns page i, allocating it on first use.
func (mem *Memory) page(i uint32) *[pageSize]byte {
	p := mem.pages[i]
	if p == nil {
		p = new([pageSize]byte)
		mem.pages[i] = p
		mem.used = append(mem.used, i)
	}
	return p
}

// clear zeroes every allocated page, keeping it for the next run.
func (mem *Memory) clear() {
	for _, i := range mem.used {
		clear(mem.pages[i][:])
	}
}

// within returns the page holding size bytes at addr and the offset of
// addr in it, or ok false if the bytes wrap or straddle a page.
func within(addr uint32, size int) (page, off uint32, ok bool) {
	off = addr & (pageSize - 1)
	return addr >> pageBits, off, addr < DefaultMemory && int(off)+size <= pageSize
}

// Load reads size bytes at addr, zero-extended.
func (mem *Memory) Load(addr uint32, size int) uint64 {
	if i, off, ok := within(addr, size); ok {
		p := mem.pages[i]
		if p == nil {
			return 0
		}
		switch size {
		case 1:
			return uint64(p[off])
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		}
	}
	var v uint64
	for i := 0; i < size; i++ {
		a := (addr + uint32(i)) % DefaultMemory
		if p := mem.pages[a>>pageBits]; p != nil {
			v |= uint64(p[a&(pageSize-1)]) << (8 * i)
		}
	}
	return v
}

// Store writes the low size bytes of v at addr.
func (mem *Memory) Store(addr uint32, size int, v uint64) {
	if i, off, ok := within(addr, size); ok {
		p := mem.page(i)
		switch size {
		case 1:
			p[off] = byte(v)
			return
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(v))
			return
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(v))
			return
		case 8:
			binary.LittleEndian.PutUint64(p[off:], v)
			return
		}
	}
	for i := 0; i < size; i++ {
		a := (addr + uint32(i)) % DefaultMemory
		mem.page(a >> pageBits)[a&(pageSize-1)] = byte(v >> (8 * i))
	}
}

// Extend sign- or zero-extends the low size bytes (1, 2 or 4) of v.
func Extend(v uint64, size int, unsigned bool) int64 {
	switch size {
	case 1:
		if unsigned {
			return int64(uint8(v))
		}
		return int64(int8(v))
	case 2:
		if unsigned {
			return int64(uint16(v))
		}
		return int64(int16(v))
	default:
		if unsigned {
			return int64(uint32(v))
		}
		return int64(int32(v))
	}
}

// EnableFuncProfile turns on per-function step attribution: each executed
// instruction is charged to the function on top of the simulated call
// stack. Off by default (it costs a map update per call and return).
func (c *Core[W, O, M]) EnableFuncProfile() {
	if c.fnSteps == nil {
		c.fnSteps = make(map[string]int64)
	}
}

// Profile snapshots the machine's dynamic execution profile: opcode
// frequencies, operand addressing-mode frequencies and, when enabled,
// per-function step counts.
func (c *Core[W, O, M]) Profile() obs.SimProfile {
	p := obs.SimProfile{Steps: c.Steps}
	names := c.isa.opcodes().names
	for op, n := range c.counts[:len(names)] {
		if n > 0 {
			if p.Opcodes == nil {
				p.Opcodes = make(map[string]int64)
			}
			p.Opcodes[names[op]] = n
		}
	}
	p.Modes = make(map[string]int64)
	for i, name := range c.isa.ModeNames {
		if n := c.ModeCounts[i]; n > 0 {
			p.Modes[name] = n
		}
	}
	if len(c.fnSteps) > 0 {
		p.FuncSteps = make(map[string]int64, len(c.fnSteps))
		for fn, n := range c.fnSteps {
			p.FuncSteps[fn] = n
		}
	}
	return p
}

// Global returns the address of a data symbol.
func (c *Core[W, O, M]) Global(name string) (uint32, bool) {
	a, ok := c.Prog.Globals[name]
	return a, ok
}

// ReadGlobal reads size bytes of the named global as a signed integer, a
// convenience for tests and examples.
func (c *Core[W, O, M]) ReadGlobal(name string, size int) (int64, error) {
	a, ok := c.Global(name)
	if !ok {
		return 0, fmt.Errorf("%s: no global %q", c.isa.Name, name)
	}
	return Extend(c.Mem.Load(a, size), size, false), nil
}

// ReadGlobalFloat reads the named global as a 4- or 8-byte floating value.
func (c *Core[W, O, M]) ReadGlobalFloat(name string, size int) (float64, error) {
	a, ok := c.Global(name)
	if !ok {
		return 0, fmt.Errorf("%s: no global %q", c.isa.Name, name)
	}
	if size == 4 {
		return float64(math.Float32frombits(uint32(c.Mem.Load(a, 4)))), nil
	}
	return math.Float64frombits(c.Mem.Load(a, 8)), nil
}

// Sim presents a machine through the target-neutral simulator surface
// (target.Sim), where the step count is a method rather than a field.
type Sim[W Word, O Operand, M any] struct{ *Core[W, O, M] }

// AsSim wraps a machine's core as a Sim.
func AsSim[W Word, O Operand, M any](c *Core[W, O, M]) Sim[W, O, M] { return Sim[W, O, M]{c} }

// Steps returns the number of simulated instructions executed.
func (s Sim[W, O, M]) Steps() int64 { return s.Core.Steps }
