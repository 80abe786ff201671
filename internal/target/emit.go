package target

import (
	"fmt"
	"math"
	"strconv"

	"ggcg/internal/ir"
)

// Operand is the slice of an operand descriptor the emitter needs: its
// assembler syntax and, when it is a plain register, which one — so the
// condition-code tracking can tell whether the last instruction's result
// register is still described by the codes (§6.1). Each backend's operand
// descriptor implements it.
type Operand interface {
	// Asm formats the operand in assembler syntax (phase 4, §5.4).
	Asm() string

	// ResultReg returns the register the operand names when it is exactly
	// a register, or -1.
	ResultReg() int
}

// Emitter accumulates assembly output (phase 4, §5.4) and tracks the
// little state the instruction generator needs about what was last
// emitted: which register the previous instruction set, so the
// condition-code branch patterns can verify their assumption (§6.1).
//
// The buffer is a plain byte slice so an emitter can be Reset and pooled:
// the code generator builds every function body in its own emitter (the
// frame size is only known afterwards), and recycling those buffers keeps
// the per-function output path allocation-free in steady state. The type
// is target-neutral; the data directives are too (EmitGlobals), while each
// backend formats its own function headers from the append primitives
// below.
type Emitter struct {
	buf   []byte
	lines int

	lastResultReg int // register the last emitted instruction targeted, or -1

	// TstBackstops counts the defensive tst instructions inserted when a
	// condition-code pattern was selected but the register was not set by
	// the immediately preceding instruction (see §6.2.1: remaining
	// overfactoring shows up exactly here).
	TstBackstops int
}

// NewEmitter returns an empty emitter.
func NewEmitter() *Emitter {
	return &Emitter{lastResultReg: -1}
}

// Reset empties the emitter, keeping its grown buffer for reuse.
func (e *Emitter) Reset() {
	e.buf = e.buf[:0]
	e.lines = 0
	e.lastResultReg = -1
	e.TstBackstops = 0
}

// Emit appends one instruction. Operands are written straight into the
// output buffer — phase 4 runs once per instruction, so the formatting
// path builds no intermediate joined strings.
func (e *Emitter) Emit(mn string, ops ...string) {
	e.buf = append(e.buf, '\t')
	e.buf = append(e.buf, mn...)
	for i, op := range ops {
		if i == 0 {
			e.buf = append(e.buf, '\t')
		} else {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, op...)
	}
	e.buf = append(e.buf, '\n')
	e.lines++
	e.lastResultReg = -1
}

// EmitResult appends an instruction whose last operand is the destination
// operand; when that destination is a register the condition codes
// describe it afterwards.
func (e *Emitter) EmitResult(mn string, dst Operand, ops ...string) {
	e.buf = append(e.buf, '\t')
	e.buf = append(e.buf, mn...)
	e.buf = append(e.buf, '\t')
	for _, op := range ops {
		e.buf = append(e.buf, op...)
		e.buf = append(e.buf, ',')
	}
	e.buf = append(e.buf, dst.Asm()...)
	e.buf = append(e.buf, '\n')
	e.lines++
	e.lastResultReg = dst.ResultReg()
}

// EmitResultFirst appends an instruction whose FIRST operand is the
// destination (the three-register RISC convention, dst,src1,src2).
func (e *Emitter) EmitResultFirst(mn string, dst Operand, ops ...string) {
	e.buf = append(e.buf, '\t')
	e.buf = append(e.buf, mn...)
	e.buf = append(e.buf, '\t')
	e.buf = append(e.buf, dst.Asm()...)
	for _, op := range ops {
		e.buf = append(e.buf, ',')
		e.buf = append(e.buf, op...)
	}
	e.buf = append(e.buf, '\n')
	e.lines++
	e.lastResultReg = dst.ResultReg()
}

// LastSet reports whether the most recently emitted instruction set the
// condition codes for register r.
func (e *Emitter) LastSet(r int) bool { return e.lastResultReg == r }

// Label defines a local label.
func (e *Emitter) Label(id int) {
	e.buf = append(e.buf, 'L')
	e.buf = strconv.AppendInt(e.buf, int64(id), 10)
	e.buf = append(e.buf, ':', '\n')
	e.lastResultReg = -1
}

// Raw appends a raw line (directives, function headers).
func (e *Emitter) Raw(line string) {
	e.buf = append(e.buf, line...)
	e.buf = append(e.buf, '\n')
	e.lastResultReg = -1
}

// Lines returns the number of instructions emitted so far.
func (e *Emitter) Lines() int { return e.lines }

// Append merges another emitter's output (used to stitch a function body,
// generated separately so the final frame size is known, after its header).
func (e *Emitter) Append(body *Emitter) {
	e.buf = append(e.buf, body.buf...)
	e.lines += body.lines
	e.TstBackstops += body.TstBackstops
	e.lastResultReg = -1
}

// String returns the accumulated assembly text.
func (e *Emitter) String() string { return string(e.buf) }

// The append primitives below are the raw buffer access the backends'
// directive formatters (globals, function prologues) are built from; they
// write bytes without touching the line count or condition-code state, so
// a prologue can be formatted by direct appends exactly as a hand-rolled
// fast path would.

// AppendString appends raw bytes to the output buffer.
func (e *Emitter) AppendString(s string) { e.buf = append(e.buf, s...) }

// AppendInt appends the decimal form of v to the output buffer.
func (e *Emitter) AppendInt(v int64) { e.buf = strconv.AppendInt(e.buf, v, 10) }

// Appendf appends fmt-formatted bytes to the output buffer.
func (e *Emitter) Appendf(format string, args ...any) {
	e.buf = fmt.Appendf(e.buf, format, args...)
}

// AddLines adjusts the instruction count for instructions a backend
// formatted through the append primitives.
func (e *Emitter) AddLines(n int) { e.lines += n }

// InvalidateResult forgets the last result register, so a condition-code
// pattern cannot trust codes across whatever was just appended.
func (e *Emitter) InvalidateResult() { e.lastResultReg = -1 }

// EmitGlobals writes the data directives for a unit's globals. Every
// backend shares the data image: the bundled simulators share the memory
// layout, so the differential harness reads either target's globals
// identically.
func EmitGlobals(e *Emitter, globals []ir.Global) {
	if len(globals) == 0 {
		return
	}
	e.Raw(".data")
	for _, g := range globals {
		size := g.Size
		if size == 0 {
			size = g.Type.Size()
		}
		if !g.HasInit {
			e.Appendf(".comm _%s,%d\n", g.Name, size)
			continue
		}
		e.Raw(".align 2")
		e.Raw("_" + g.Name + ":")
		if g.Type.IsFloat() {
			bits := floatBits(g.Type, g.FInit)
			if g.Type == ir.Float {
				e.Appendf("\t.long %d\n", int64(int32(bits)))
			} else {
				e.Appendf("\t.long %d,%d\n", int64(int32(bits)), int64(int32(bits>>32)))
			}
			continue
		}
		switch g.Type.Size() {
		case 1:
			e.Appendf("\t.byte %d\n", int8(g.Init))
		case 2:
			e.Appendf("\t.byte %d,%d\n", int8(g.Init), int8(g.Init>>8))
		default:
			e.Appendf("\t.long %d\n", int64(int32(g.Init)))
		}
	}
	e.Raw(".text")
}

// floatBits returns the memory image of a floating initializer.
func floatBits(t ir.Type, v float64) uint64 {
	if t == ir.Float {
		return uint64(math.Float32bits(float32(v)))
	}
	return math.Float64bits(v)
}
