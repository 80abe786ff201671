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

// desc is the RISC description, built once per process (target.Desc).
var desc = target.NewDesc("risc", GenericGrammar)

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

func (machine) Peephole(asm string) (string, peep.Stats) {
	return peep.OptimizeWith(asm, Rules())
}

func (machine) NewSim(asm string) (target.Sim, error) {
	p, err := riscsim.Assemble(asm)
	if err != nil {
		return nil, err
	}
	return simcore.AsSim(&riscsim.New(p).Core), nil
}

// Rules describes the RISC branch and move vocabulary for the
// rule-driven peephole passes. Branch targets are last operands
// (compare-and-branch carries its registers first), matching the
// contract of peep.Rules.
func Rules() peep.Rules {
	return peep.Rules{
		Jump:   "jmp",
		Invert: invertMap,
		Move:   func(mn string) bool { return mn == "mv" },
	}
}

// invertMap pairs every conditional branch with its complement. The
// floating comparisons are inverted the same NaN-unaware way the VAX
// backend's are: the simulated machines produce no NaNs, and keeping the
// rule set symmetric keeps the two targets' peephole behavior aligned.
var invertMap = func() map[string]string {
	m := make(map[string]string)
	add := func(a, b, s string) {
		m[a+s] = b + s
		m[b+s] = a + s
	}
	for _, s := range []string{"b", "w", "l", "f", "d"} {
		add("beq", "bne", s)
		add("blt", "bge", s)
		add("ble", "bgt", s)
	}
	for _, s := range []string{"b", "w", "l"} {
		add("bltu", "bgeu", s)
		add("bleu", "bgtu", s)
	}
	return m
}()

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
