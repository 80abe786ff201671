package vax

import (
	"ggcg/internal/cgram"
	"ggcg/internal/ir"
	"ggcg/internal/peep"
	"ggcg/internal/simcore"
	"ggcg/internal/tablegen"
	"ggcg/internal/target"
	"ggcg/internal/vaxsim"
)

// desc is the VAX description with its shipped tables (target.Desc).
//
//go:generate go run ggcg/cmd/ggtables -target vax -gen tables_gen.go
var desc = target.NewDesc("vax", GenericGrammar, shipped)

// Grammar returns the type-replicated VAX machine description.
func Grammar() (*cgram.Grammar, error) { return desc.Grammar() }

// GenericStats sizes the generic (pre-replication) VAX description.
func GenericStats() (cgram.Stats, error) { return desc.GenericStats() }

// Tables returns the shared instruction-selection tables for the VAX.
func Tables() (*tablegen.Tables, error) { return desc.Tables() }

// TableID returns the content hash of the VAX tables.
func TableID() (string, error) { return desc.TableID() }

// machine adapts this package to the target.Machine seam: the embedded
// description supplies Name through TableID, and the methods below front
// the package's generator, header, peephole and simulator.
type machine struct{ *target.Desc }

// Target is the VAX-11 backend, the machine of the paper's experiment and
// the default target of the code generator.
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

func (machine) Peephole(asm string) (string, peep.Stats) { return peep.Optimize(asm) }

func (machine) NewSim(asm string) (target.Sim, error) {
	p, err := vaxsim.Assemble(asm)
	if err != nil {
		return nil, err
	}
	return simcore.AsSim(&vaxsim.New(p).Core), nil
}

// The methods below complete *Gen's target.Gen surface; the concrete
// fields they front (RM, idiom counters) remain exported for the tests
// and ablations that poke at VAX specifics directly.

// Phase1Busy marks r as owned by the tree-transformation phase.
func (g *Gen) Phase1Busy(r int, busy bool) { g.RM.Phase1Busy(r, busy) }

// CheckStatementEnd verifies the register stack discipline at a
// statement boundary.
func (g *Gen) CheckStatementEnd() error { return g.RM.CheckStatementEnd() }

// Stats reports the generator's per-function work counters.
func (g *Gen) Stats() target.GenStats {
	return target.GenStats{
		Spills:        g.RM.Spills,
		BindingIdioms: g.BindingIdioms,
		RangeIdioms:   g.RangeIdioms,
	}
}
