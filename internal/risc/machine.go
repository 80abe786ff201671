package risc

import (
	"ggcg/internal/ir"
	"ggcg/internal/peep"
	"ggcg/internal/riscsim"
	"ggcg/internal/simcore"
	"ggcg/internal/target"
)

// desc is the RISC description with its shipped tables and its semantic
// routines (target.Desc).
//
//go:generate go run ggcg/cmd/ggtables -target risc -gen tables_gen.go
var desc = target.NewDesc("risc", GenericGrammar, shipped, routines.Bind)

// machine adapts this package to the target.Machine seam; the embedded
// description supplies Name through TableID.
type machine struct{ *target.Desc }

// Target is the load/store RISC-subset backend, the second machine grown
// over the seam to demonstrate the paper's retargeting claim.
var Target target.Machine = machine{desc}

func init() { target.Register(Target) }

func (machine) NewGen(body *target.Emitter, f *ir.Func, labelBase int) target.Gen {
	g := NewGen(body, f)
	g.LabelBase = labelBase
	return g
}

func (machine) FuncHeader(e *target.Emitter, name string, frameBytes int) {
	FuncHeader(e, name, frameBytes)
}

func (machine) Peephole(asm string) (string, peep.Stats) { return peep.OptimizeRISC(asm) }

func (machine) NewSim(asm string) (target.Sim, error) {
	p, err := riscsim.Assemble(asm)
	if err != nil {
		return nil, err
	}
	return simcore.AsSim(&riscsim.New(p).Core), nil
}

// Stats reports the generator's per-function work counters, completing
// *Gen's target.Gen surface. The machine has no binding idioms (no
// operand can both read and step a pointer); the immediate folds play the
// range-idiom role.
func (g *Gen) Stats() target.GenStats {
	return target.GenStats{
		Spills:      g.RM.Spills,
		RangeIdioms: g.ImmFolds,
	}
}
