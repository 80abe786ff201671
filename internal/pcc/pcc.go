// Package pcc is the comparison baseline: a hand-written, ad hoc second
// pass in the style of the Portable C Compiler's code generator (§2 of the
// paper). Instructions are selected by a recursive tree walk with
// hand-coded per-operator logic, instead of by a table-driven pattern
// matcher. It shares the assembly formatting, operand descriptors and
// register manager with the VAX target, but none of the grammar, table or
// matcher machinery.
//
// The baseline deliberately knows fewer addressing-mode tricks than the
// machine description (no indexed or autoincrement modes), matching the
// paper's observation that the table-driven generator's code was "as good
// or better ... in almost all cases" while overall size stayed comparable.
package pcc

import (
	"fmt"

	"ggcg/internal/ir"
	"ggcg/internal/target"
	"ggcg/internal/vax"
)

// Result is a compiled unit.
type Result struct {
	Asm      string
	AsmLines int
	Spills   int
}

// Compile generates VAX assembly for a unit with the ad hoc generator.
func Compile(u *ir.Unit) (*Result, error) {
	out := vax.NewEmitter()
	target.EmitGlobals(out, u.Globals)
	res := &Result{}
	labelBase := 0
	for _, f := range u.Funcs {
		g := &gen{u: u}
		next, err := g.function(out, f, labelBase)
		if err != nil {
			return nil, fmt.Errorf("pcc: %s: %v", f.Name, err)
		}
		labelBase = next
		res.Spills += g.rm.Spills
	}
	res.Asm = out.String()
	res.AsmLines = out.Lines()
	return res, nil
}

type gen struct {
	u         *ir.Unit
	e         *vax.Emitter
	rm        *vax.RegMan
	f         *ir.Func
	labelBase int
	nextLabel int
}

func (g *gen) function(out *vax.Emitter, f *ir.Func, labelBase int) (int, error) {
	g.e = vax.NewEmitter()
	g.rm = vax.NewRegMan(g.e, f)
	g.f = f
	g.labelBase = labelBase
	g.nextLabel = 0
	for _, it := range f.Items {
		if it.Kind == ir.ItemLabel {
			g.note(it.Label)
		}
		if it.Kind == ir.ItemTree {
			it.Tree.Walk(func(n *ir.Node) bool {
				if n.Op == ir.Lab {
					g.note(int(n.Val))
				}
				return true
			})
		}
	}
	for _, it := range f.Items {
		if it.Kind == ir.ItemLabel {
			g.e.Label(labelBase + it.Label)
			continue
		}
		if err := g.stmt(it.Tree); err != nil {
			return 0, fmt.Errorf("%v (tree %s)", err, it.Tree)
		}
		if err := g.rm.CheckStatementEnd(); err != nil {
			return 0, fmt.Errorf("%v (tree %s)", err, it.Tree)
		}
	}
	vax.FuncHeader(out, f.Name, f.TotalFrame())
	out.Append(g.e)
	return labelBase + g.nextLabel + 1, nil
}

func (g *gen) note(id int) {
	if id > g.nextLabel {
		g.nextLabel = id
	}
}

func (g *gen) newLabel() int {
	g.nextLabel++
	return g.nextLabel
}

func (g *gen) labelName(id int) string { return fmt.Sprintf("L%d", g.labelBase+id) }

// stmt generates one statement tree.
func (g *gen) stmt(n *ir.Node) error {
	switch n.Op {
	case ir.Jump:
		g.e.Emit("jbr", g.labelName(int(n.Kids[0].Val)))
		return nil
	case ir.CBranch:
		return g.branchTrue(n.Kids[0], int(n.Kids[1].Val))
	case ir.Ret:
		if len(n.Kids) == 0 || n.Type == ir.Void {
			g.e.Emit("ret")
			return nil
		}
		t := n.Type
		o, err := g.expr(n.Kids[0])
		if err != nil {
			return err
		}
		o, err = g.widen(o, t)
		if err != nil {
			return err
		}
		if !(o.Mode == vax.OReg && o.Reg == 0) {
			g.e.Emit("mov"+t.Machine().Suffix(), o.Asm(), "r0")
		}
		g.rm.Consume(o)
		g.e.Emit("ret")
		return nil
	case ir.Assign, ir.PostInc, ir.PostDec, ir.PreInc, ir.PreDec, ir.Call:
		o, err := g.expr(n)
		if err != nil {
			return err
		}
		if o != nil {
			g.rm.Consume(o)
		}
		return nil
	default:
		// An expression statement; evaluate for side effects.
		o, err := g.expr(n)
		if err != nil {
			return err
		}
		if o != nil {
			g.rm.Consume(o)
		}
		return nil
	}
}
