package risc

import (
	"ggcg/internal/cgram"
	"ggcg/internal/ir"
	"ggcg/internal/peep"
	"ggcg/internal/riscsim"
	"ggcg/internal/simcore"
	"ggcg/internal/tablegen"
	"ggcg/internal/target"
)

// desc is the RISC description with its shipped tables (target.Desc).
//
//go:generate go run ggcg/cmd/ggtables -target risc -gen tables_gen.go
var desc = target.NewDesc("risc", GenericGrammar, shipped)

// Grammar returns the type-replicated RISC machine description.
func Grammar() (*cgram.Grammar, error) { return desc.Grammar() }

// GenericStats sizes the generic (pre-replication) RISC description.
func GenericStats() (cgram.Stats, error) { return desc.GenericStats() }

// Tables returns the shared instruction-selection tables for the RISC.
func Tables() (*tablegen.Tables, error) { return desc.Tables() }

// TableID returns the content hash of the RISC tables.
func TableID() (string, error) { return desc.TableID() }

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

// The methods below complete *Gen's target.Gen surface.

// Phase1Busy marks r as owned by the tree-transformation phase.
func (g *Gen) Phase1Busy(r int, busy bool) { g.RM.Phase1Busy(r, busy) }

// CheckStatementEnd verifies the register stack discipline at a
// statement boundary.
func (g *Gen) CheckStatementEnd() error { return g.RM.CheckStatementEnd() }

// Stats reports the generator's per-function work counters. The machine
// has no binding idioms (no operand can both read and step a pointer);
// the immediate folds play the range-idiom role.
func (g *Gen) Stats() target.GenStats {
	return target.GenStats{
		Spills:      g.RM.Spills,
		RangeIdioms: g.ImmFolds,
	}
}
