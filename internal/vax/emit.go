package vax

import "ggcg/internal/target"

// Emitter is the target-neutral assembly accumulator (internal/target);
// the alias keeps the VAX generator's call sites — and its historical
// byte-exact output — unchanged while the buffer machinery is shared
// across backends.
type Emitter = target.Emitter

// NewEmitter returns an empty emitter.
func NewEmitter() *Emitter { return target.NewEmitter() }

// FuncHeader emits the label and entry mask for a function and allocates
// its frame. The prologue is formatted by direct appends — function-heavy
// units emit one per function, and this is the last per-function format
// call on the output path.
func FuncHeader(e *Emitter, name string, frameBytes int) {
	e.AppendString(".globl _")
	e.AppendString(name)
	e.AppendString("\n_")
	e.AppendString(name)
	e.AppendString(":\t.word 0\n")
	if frameBytes > 0 {
		e.Begin("subl2")
		e.ArgImm(int64(frameBytes))
		e.ArgString("sp")
		e.End()
	}
	e.InvalidateResult()
}
