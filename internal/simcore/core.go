// Package simcore is the machine-independent half of the bundled
// simulators (internal/vaxsim, internal/riscsim). It holds the assembler
// front end (lines, labels, directives and the shared operand syntax), the
// register file, memory and calls/ret frame protocol, the step loop with
// its step limit, counts and fault recovery, and the profile and global
// accessors. A simulator supplies only what differs, as an ISA: its
// operand syntax and its execute table.
package simcore

import (
	"fmt"
	"math"

	"ggcg/internal/obs"
)

// Word is a register width: uint32 for the VAX, uint64 for the RISC
// machine. Addresses are 32-bit either way (the low word of a register).
type Word interface{ ~uint32 | ~uint64 }

// Operand is what the core needs of a machine's operand type: its
// disassembly, and the code label it names (or "") so the assembler can
// reject undefined targets.
type Operand interface {
	String() string
	Label() string
}

// ISA is the machine-specific half of a simulator, for machine type M
// with operand type O.
type ISA[O Operand, M any] struct {
	// Name prefixes every error message ("vaxsim", "riscsim").
	Name string
	// Exec maps mnemonics to handlers; it is also the set of mnemonics the
	// assembler accepts. A handler advances control by setting Core.Next.
	Exec map[string]func(M, *Instr[O]) error
	// Parse parses one operand.
	Parse func(string) (O, error)
	// ModeNames labels the Core.ModeCounts slots in Profile (at most
	// len(ModeCounts)).
	ModeNames []string
	// Reset, if set, clears machine-specific state when the core resets.
	Reset func(M)
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

// Core is the state and behaviour both simulators share. A machine embeds
// it, so its fields and methods are the machine's.
type Core[W Word, O Operand, M any] struct {
	Prog *Program[O]
	R    [16]W
	Mem  Memory

	// Next is the instruction executed after the current one; the step
	// loop sets it to the following instruction and control transfers
	// overwrite it.
	Next int

	// Steps counts executed instructions over the machine's lifetime;
	// Counts breaks them down by mnemonic. MaxSteps bounds each call.
	Steps    int64
	Counts   map[string]int64
	MaxSteps int64

	// ModeCounts tallies operand evaluations per addressing mode, in the
	// slots the ISA's ModeNames label. Cheap fixed-slot increments, so
	// they are always on.
	ModeCounts [16]int64

	isa    *ISA[O, M]
	self   M
	pc     int
	frames [][6]W // r6..r11 of each active frame, the entry-mask save

	// fnSteps attributes executed instructions to the function (call
	// stack top) executing them; nil until EnableFuncProfile.
	fnSteps map[string]int64
	fnStack []string
}

// NewCore returns the core of machine self for program p, with default
// memory, already reset.
func NewCore[W Word, O Operand, M any](isa *ISA[O, M], self M, p *Program[O]) Core[W, O, M] {
	c := Core[W, O, M]{
		Prog:     p,
		Mem:      make(Memory, DefaultMemory),
		Counts:   make(map[string]int64),
		MaxSteps: 50_000_000,
		isa:      isa,
		self:     self,
	}
	c.Reset()
	return c
}

// Reset clears registers and memory and reapplies data initialization.
func (c *Core[W, O, M]) Reset() {
	c.R = [16]W{}
	clear(c.Mem)
	for _, di := range c.Prog.init {
		copy(c.Mem[di.addr:], di.bytes)
	}
	c.R[SP] = W(len(c.Mem) - 64)
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

	start := c.Steps
	for {
		if c.pc == retSentinel {
			return int64(int32(uint32(c.R[0]))), nil
		}
		if c.pc < 0 || c.pc >= len(c.Prog.Instrs) {
			return 0, fmt.Errorf("%s: pc %d out of range", c.isa.Name, c.pc)
		}
		if c.Steps++; c.Steps-start > c.MaxSteps {
			return 0, fmt.Errorf("%s: step limit %d exceeded", c.isa.Name, c.MaxSteps)
		}
		in := &c.Prog.Instrs[c.pc]
		c.Counts[in.Mn]++
		if c.fnSteps != nil && len(c.fnStack) > 0 {
			c.fnSteps[c.fnStack[len(c.fnStack)-1]]++
		}
		c.Next = c.pc + 1
		h := c.isa.Exec[in.Mn]
		if h == nil {
			return 0, &ExecError{PC: c.pc, Line: in.Line, Instr: in.String(),
				Err: fmt.Errorf("unknown instruction %q", in.Mn), Sim: c.isa.Name}
		}
		if err := c.step(in, h); err != nil {
			return 0, &ExecError{PC: c.pc, Line: in.Line, Instr: in.String(), Err: err, Sim: c.isa.Name}
		}
		c.pc = c.Next
	}
}

// step runs one handler, converting a panic — an out-of-range register
// number in a hand-built Program, say — into an ordinary error so the
// fault is reported with its instruction context instead of unwinding
// through the caller.
func (c *Core[W, O, M]) step(in *Instr[O], h func(M, *Instr[O]) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return h(c.self, in)
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

// Memory is the simulated byte-addressable little-endian memory.
// Addresses wrap at its size.
type Memory []byte

// Load reads size bytes at addr, zero-extended.
func (mem Memory) Load(addr uint32, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(mem[(addr+uint32(i))%uint32(len(mem))]) << (8 * i)
	}
	return v
}

// Store writes the low size bytes of v at addr.
func (mem Memory) Store(addr uint32, size int, v uint64) {
	for i := 0; i < size; i++ {
		mem[(addr+uint32(i))%uint32(len(mem))] = byte(v >> (8 * i))
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
// stack. Off by default (it costs a map increment per step).
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
	if len(c.Counts) > 0 {
		p.Opcodes = make(map[string]int64, len(c.Counts))
		for mn, n := range c.Counts {
			p.Opcodes[mn] = n
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
