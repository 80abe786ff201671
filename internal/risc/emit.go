package risc

import "ggcg/internal/target"

// Emitter is the target-neutral assembly accumulator (internal/target).
type Emitter = target.Emitter

// NewEmitter returns an empty emitter.
func NewEmitter() *Emitter { return target.NewEmitter() }

// FuncHeader emits a function's label and frame allocation. The RISC
// call instruction saves registers itself, so there is no entry mask;
// the frame is claimed with a single enter.
func FuncHeader(e *Emitter, name string, frameBytes int) {
	e.AppendString(".globl _")
	e.AppendString(name)
	e.AppendString("\n_")
	e.AppendString(name)
	e.AppendString(":\n")
	if frameBytes > 0 {
		e.AppendString("\tenter\t$")
		e.AppendInt(int64(frameBytes))
		e.AppendString("\n")
		e.AddLines(1)
	}
	e.InvalidateResult()
}
