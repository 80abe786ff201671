package pcc

import (
	"fmt"

	"ggcg/internal/ir"
	"ggcg/internal/vax"
)

func (g *gen) assignExpr(n *ir.Node) (*vax.Operand, error) {
	dstNode, srcNode := n.Kids[0], n.Kids[1]
	if n.Op == ir.RAssign {
		dstNode, srcNode = n.Kids[1], n.Kids[0]
	}
	t := n.Type
	src, err := g.expr(srcNode)
	if err != nil {
		return nil, err
	}
	if src.Type.Size() < t.Size() || src.Type.IsFloat() != t.IsFloat() {
		if src, err = g.widen(src, t); err != nil {
			return nil, err
		}
	}
	dst, err := g.lvalue(dstNode)
	if err != nil {
		return nil, err
	}
	val := src
	if src.Mode == vax.OImm {
		val = immOp(t, truncConst(src.Val, t))
	}
	if val.ImmIs(0) || val.Mode == vax.OFImm && val.FVal == 0 {
		g.e.Emit("clr"+t.Machine().Suffix(), dst.Asm())
	} else if !val.Same(dst) {
		g.e.Emit("mov"+t.Machine().Suffix(), val.Asm(), dst.Asm())
	}
	g.rm.Consume(src)
	return dst, nil
}

func (g *gen) incDecExpr(n *ir.Node) (*vax.Operand, error) {
	t := n.Type
	s := t.Machine().Suffix()
	lv, err := g.lvalue(n.Kids[0])
	if err != nil {
		return nil, err
	}
	amt, err := g.expr(n.Kids[1])
	if err != nil {
		return nil, err
	}
	if amt.Mode != vax.OImm {
		return nil, fmt.Errorf("non-constant increment")
	}
	dst, err := g.allocReg(t)
	if err != nil {
		return nil, err
	}
	step := func() {
		add := n.Op == ir.PostInc || n.Op == ir.PreInc
		switch {
		case amt.Val == 1 && add:
			g.e.Emit("inc"+s, lv.Asm())
		case amt.Val == 1:
			g.e.Emit("dec"+s, lv.Asm())
		case add:
			g.e.Emit("add"+s+"2", amt.Asm(), lv.Asm())
		default:
			g.e.Emit("sub"+s+"2", amt.Asm(), lv.Asm())
		}
	}
	if n.Op == ir.PreInc || n.Op == ir.PreDec {
		step()
		g.e.Emit("mov"+s, lv.Asm(), dst.Asm())
	} else {
		g.e.Emit("mov"+s, lv.Asm(), dst.Asm())
		step()
	}
	g.rm.Consume(lv)
	return dst, nil
}

// frameTemp allocates a frame slot destination. Truth values and
// selections join control flow, so their result must not live in a
// register: a spill inside one arm would redirect the descriptor while the
// other arm's already-emitted code still wrote the old register.
func (g *gen) frameTemp(t ir.Type) *vax.Operand {
	off := g.f.AllocTemp(t.Machine())
	return &vax.Operand{Mode: vax.ODisp, Type: t, Off: int64(off), Reg: ir.RegFP, Xreg: -1}
}

func (g *gen) boolExpr(n *ir.Node) (*vax.Operand, error) {
	// The arms below (and short-circuit condition legs) execute
	// conditionally; a spill emitted inside one — e.g. by an embedded
	// call — would redirect a live descriptor to a slot only that path
	// writes. Park everything in memory before forking control flow.
	if err := g.rm.SpillLive(); err != nil {
		return nil, err
	}
	dst := g.frameTemp(ir.Long)
	lt, ld := g.newLabel(), g.newLabel()
	if err := g.branchTrue(n, lt); err != nil {
		return nil, err
	}
	g.e.Emit("clrl", dst.Asm())
	g.e.Emit("jbr", g.labelName(ld))
	g.e.Label(g.labelBase + lt)
	g.e.Emit("movl", "$1", dst.Asm())
	g.e.Label(g.labelBase + ld)
	return dst, nil
}

func (g *gen) selectExpr(n *ir.Node) (*vax.Operand, error) {
	// As in boolExpr: no registers may be live across the fork, since a
	// spill inside one arm reaches the join unwritten on the other.
	if err := g.rm.SpillLive(); err != nil {
		return nil, err
	}
	t := n.Type
	dst := g.frameTemp(t)
	le, ld := g.newLabel(), g.newLabel()
	if err := g.branchFalse(n.Kids[0], le); err != nil {
		return nil, err
	}
	if err := g.moveInto(n.Kids[1], t, dst); err != nil {
		return nil, err
	}
	g.e.Emit("jbr", g.labelName(ld))
	g.e.Label(g.labelBase + le)
	if err := g.moveInto(n.Kids[2], t, dst); err != nil {
		return nil, err
	}
	g.e.Label(g.labelBase + ld)
	return dst, nil
}

// moveInto evaluates a node and stores it into an already-allocated
// destination (which may have been spilled to memory meanwhile).
func (g *gen) moveInto(n *ir.Node, t ir.Type, dst *vax.Operand) error {
	v, err := g.expr(n)
	if err != nil {
		return err
	}
	if v, err = g.widen(v, t); err != nil {
		return err
	}
	g.e.Emit("mov"+t.Machine().Suffix(), v.Asm(), dst.Asm())
	g.rm.Consume(v)
	return nil
}

func (g *gen) callExpr(n *ir.Node) (*vax.Operand, error) {
	for i := len(n.Kids) - 1; i >= 0; i-- {
		k := n.Kids[i]
		a, err := g.expr(k)
		if err != nil {
			return nil, err
		}
		if k.Type.IsFloat() {
			if a, err = g.widen(a, ir.Double); err != nil {
				return nil, err
			}
			g.e.Emit("movd", a.Asm(), "-(sp)")
		} else {
			if a, err = g.widen(a, ir.Long); err != nil {
				return nil, err
			}
			g.e.Emit("pushl", a.Asm())
		}
		g.rm.Consume(a)
	}
	// Calls do not preserve the allocatable registers: spill live values.
	if err := g.rm.SpillLive(); err != nil {
		return nil, err
	}
	g.e.Emit("calls", fmt.Sprintf("$%d", n.Val), "_"+n.Sym)
	if n.Type == ir.Void {
		return nil, nil
	}
	return g.claimR0(n.Type)
}

func (g *gen) claimR0(t ir.Type) (*vax.Operand, error) {
	res := &vax.Operand{Mode: vax.OReg, Type: t, Reg: 0, Xreg: -1}
	if err := g.rm.AllocSpecific(0, t, res); err != nil {
		return nil, err
	}
	res.Owned = []int{0}
	if t == ir.Double {
		res.Owned = []int{0, 1}
	}
	return res, nil
}

func (g *gen) libCall2(sym string, t ir.Type, a, b *vax.Operand) (*vax.Operand, error) {
	g.e.Emit("pushl", b.Asm())
	g.e.Emit("pushl", a.Asm())
	g.rm.Consume(a)
	g.rm.Consume(b)
	if err := g.rm.SpillLive(); err != nil {
		return nil, err
	}
	g.e.Emit("calls", "$2", sym)
	return g.claimR0(t)
}

var signedJump = map[ir.Rel]string{
	ir.REQ: "jeql", ir.RNE: "jneq",
	ir.RLT: "jlss", ir.RLE: "jleq", ir.RGT: "jgtr", ir.RGE: "jgeq",
}

var unsignedJump = map[ir.Rel]string{
	ir.REQ: "jeql", ir.RNE: "jneq",
	ir.RLT: "jlssu", ir.RLE: "jlequ", ir.RGT: "jgtru", ir.RGE: "jgequ",
}

func (g *gen) branchTrue(cond *ir.Node, label int) error {
	switch cond.Op {
	case ir.Not:
		return g.branchFalse(cond.Kids[0], label)
	case ir.AndAnd:
		skip := g.newLabel()
		if err := g.branchFalse(cond.Kids[0], skip); err != nil {
			return err
		}
		if err := g.branchTrue(cond.Kids[1], label); err != nil {
			return err
		}
		g.e.Label(g.labelBase + skip)
		return nil
	case ir.OrOr:
		if err := g.branchTrue(cond.Kids[0], label); err != nil {
			return err
		}
		return g.branchTrue(cond.Kids[1], label)
	}
	return g.relBranch(cond, label, false)
}

func (g *gen) branchFalse(cond *ir.Node, label int) error {
	switch cond.Op {
	case ir.Not:
		return g.branchTrue(cond.Kids[0], label)
	case ir.AndAnd:
		if err := g.branchFalse(cond.Kids[0], label); err != nil {
			return err
		}
		return g.branchFalse(cond.Kids[1], label)
	case ir.OrOr:
		skip := g.newLabel()
		if err := g.branchTrue(cond.Kids[0], skip); err != nil {
			return err
		}
		if err := g.branchFalse(cond.Kids[1], label); err != nil {
			return err
		}
		g.e.Label(g.labelBase + skip)
		return nil
	}
	return g.relBranch(cond, label, true)
}

// relBranch emits a compare (or test) and conditional jump for a leaf
// condition, used for branch-if-true and, negated, branch-if-false.
func (g *gen) relBranch(cond *ir.Node, label int, negate bool) error {
	rel := ir.RNE
	l, r := cond, (*ir.Node)(nil)
	t := cond.Type
	if cond.Op.IsRelational() {
		rel, l, r = cond.Op.Rel(), cond.Kids[0], cond.Kids[1]
		if t == ir.Void {
			t = l.Type
		}
	}
	if cond.Op == ir.Cmp {
		rel, l, r = ir.Rel(cond.Val), cond.Kids[0], cond.Kids[1]
	}
	if negate {
		rel = rel.Negate()
	}
	if l.Op == ir.Const && l.Val == 0 && r != nil {
		l, r = r, l
		rel = rel.Swap()
	}
	a, err := g.expr(l)
	if err != nil {
		return err
	}
	if a, err = g.widen(a, t); err != nil {
		return err
	}
	s := t.Machine().Suffix()
	if r == nil || r.Op == ir.Const && r.Val == 0 {
		g.e.Emit("tst"+s, a.Asm())
		g.rm.Consume(a)
	} else {
		b, err := g.expr(r)
		if err != nil {
			return err
		}
		if b, err = g.widen(b, t); err != nil {
			return err
		}
		g.e.Emit("cmp"+s, a.Asm(), b.Asm())
		g.rm.Consume(a)
		g.rm.Consume(b)
	}
	table := signedJump
	if t.IsUnsigned() {
		table = unsignedJump
	}
	g.e.Emit(table[rel], g.labelName(label))
	return nil
}
