package pcc

import (
	"fmt"

	"ggcg/internal/ir"
	"ggcg/internal/vax"
)

func immOp(t ir.Type, v int64) *vax.Operand {
	return &vax.Operand{Mode: vax.OImm, Type: t, Val: v, Xreg: -1}
}

// allocReg allocates an owned register operand of type t.
func (g *gen) allocReg(t ir.Type) (*vax.Operand, error) {
	o := &vax.Operand{Mode: vax.OReg, Type: t, Xreg: -1}
	r, err := g.rm.Alloc(t, o)
	if err != nil {
		return nil, err
	}
	o.Reg = r
	o.Owned = []int{r}
	if t == ir.Double {
		o.Owned = []int{r, r + 1}
	}
	return o, nil
}

// toReg forces an operand into a register of (machine) type t.
func (g *gen) toReg(o *vax.Operand, t ir.Type) (*vax.Operand, error) {
	if o.Mode == vax.OReg && o.Type.Machine() == t.Machine() && len(o.Owned) > 0 {
		return o, nil
	}
	dst, err := g.allocReg(t)
	if err != nil {
		return nil, err
	}
	g.e.Emit("mov"+t.Machine().Suffix(), o.Asm(), dst.Asm())
	g.rm.Consume(o)
	return dst, nil
}

// widen converts o to type t if it is narrower, choosing movz for unsigned
// sources.
func (g *gen) widen(o *vax.Operand, t ir.Type) (*vax.Operand, error) {
	if o.Mode == vax.OImm || o.Mode == vax.OFImm {
		out := *o
		out.Type = t
		if t.IsInteger() && o.Mode == vax.OFImm {
			out.Mode, out.Val = vax.OImm, int64(o.FVal)
		}
		return &out, nil
	}
	fs, ts := o.Type.Machine().Suffix(), t.Machine().Suffix()
	if fs == ts {
		return o, nil
	}
	dst, err := g.allocReg(t)
	if err != nil {
		return nil, err
	}
	switch {
	case o.Type.IsUnsigned() && t.IsInteger():
		g.e.Emit("movz"+fs+ts, o.Asm(), dst.Asm())
	case o.Type.IsUnsigned() && t.IsFloat() && o.Type.Machine() != ir.Long:
		g.e.Emit("movz"+fs+"l", o.Asm(), dst.Asm())
		g.e.Emit("cvtl"+ts, dst.Asm(), dst.Asm())
	case o.Type.IsUnsigned() && t.IsFloat():
		g.e.Emit("cvtl"+ts, o.Asm(), dst.Asm())
	default:
		g.e.Emit("cvt"+fs+ts, o.Asm(), dst.Asm())
	}
	g.rm.Consume(o)
	return dst, nil
}

// address builds a memory operand of data type t for the address
// expression a (the child of an Indir). Simple frame, global and deferred
// forms become addressing modes; anything else is computed into a register.
func (g *gen) address(a *ir.Node, t ir.Type) (*vax.Operand, error) {
	if o, ok := g.simpleAddr(a, t); ok {
		return o, nil
	}
	r, err := g.expr(a)
	if err != nil {
		return nil, err
	}
	r, err = g.toReg(r, ir.Long)
	if err != nil {
		return nil, err
	}
	out := &vax.Operand{Mode: vax.ORegDef, Type: t, Reg: r.Reg, Xreg: -1}
	out.Owned = g.rm.Transfer(r, out)
	return out, nil
}

// simpleAddr recognizes the address shapes the baseline turns directly
// into addressing modes.
func (g *gen) simpleAddr(a *ir.Node, t ir.Type) (*vax.Operand, bool) {
	constAndBase := func(n *ir.Node) (int64, *ir.Node, bool) {
		if n.Op != ir.Plus {
			return 0, nil, false
		}
		if n.Kids[0].Op == ir.Const {
			return n.Kids[0].Val, n.Kids[1], true
		}
		if n.Kids[1].Op == ir.Const {
			return n.Kids[1].Val, n.Kids[0], true
		}
		return 0, nil, false
	}
	switch a.Op {
	case ir.Name:
		return &vax.Operand{Mode: vax.OAbs, Type: t, Sym: a.Sym, Xreg: -1}, true
	case ir.Dreg:
		return &vax.Operand{Mode: vax.ORegDef, Type: t, Reg: int(a.Val), Xreg: -1}, true
	}
	if off, base, ok := constAndBase(a); ok {
		switch base.Op {
		case ir.Dreg:
			return &vax.Operand{Mode: vax.ODisp, Type: t, Off: off, Reg: int(base.Val), Xreg: -1}, true
		case ir.Name:
			return &vax.Operand{Mode: vax.OAbs, Type: t, Off: off, Sym: base.Sym, Xreg: -1}, true
		}
		if off2, base2, ok2 := constAndBase(base); ok2 && base2.Op == ir.Dreg {
			return &vax.Operand{Mode: vax.ODisp, Type: t, Off: off + off2, Reg: int(base2.Val), Xreg: -1}, true
		}
	}
	return nil, false
}

// lvalue builds the destination operand for an assignment target.
func (g *gen) lvalue(n *ir.Node) (*vax.Operand, error) {
	switch n.Op {
	case ir.Name:
		return &vax.Operand{Mode: vax.OAbs, Type: n.Type, Sym: n.Sym, Xreg: -1}, nil
	case ir.Dreg:
		return &vax.Operand{Mode: vax.OReg, Type: n.Type, Reg: int(n.Val), Xreg: -1}, nil
	case ir.Indir:
		return g.address(n.Kids[0], n.Type)
	}
	return nil, fmt.Errorf("bad assignment destination %v", n.Op)
}

// expr generates code for an expression, returning its operand.
func (g *gen) expr(n *ir.Node) (*vax.Operand, error) {
	switch n.Op {
	case ir.Const:
		return immOp(n.Type, n.Val), nil
	case ir.FConst:
		return &vax.Operand{Mode: vax.OFImm, Type: n.Type, FVal: n.F, Xreg: -1}, nil
	case ir.Name:
		dst, err := g.allocReg(ir.Long)
		if err != nil {
			return nil, err
		}
		g.e.Emit("moval", "_"+n.Sym, dst.Asm())
		return dst, nil
	case ir.Dreg, ir.RegUse:
		return &vax.Operand{Mode: vax.OReg, Type: n.Type, Reg: int(n.Val), Xreg: -1}, nil
	case ir.Indir:
		return g.address(n.Kids[0], n.Type)
	case ir.Conv:
		return g.convExpr(n)
	case ir.Neg, ir.Compl:
		return g.unaryExpr(n)
	case ir.Plus, ir.Minus, ir.Mul, ir.Div, ir.Mod, ir.And, ir.Or, ir.Xor,
		ir.Lsh, ir.Rsh:
		return g.binExpr(n)
	case ir.RMinus, ir.RDiv, ir.RMod, ir.RLsh, ir.RRsh:
		fwd, _ := n.Op.Forward()
		m := &ir.Node{Op: fwd, Type: n.Type, Kids: []*ir.Node{n.Kids[1], n.Kids[0]}}
		return g.binExpr(m)
	case ir.Assign, ir.RAssign:
		return g.assignExpr(n)
	case ir.PostInc, ir.PostDec, ir.PreInc, ir.PreDec:
		return g.incDecExpr(n)
	case ir.Eq, ir.Ne, ir.Lt, ir.Le, ir.Gt, ir.Ge, ir.Not, ir.AndAnd, ir.OrOr:
		return g.boolExpr(n)
	case ir.Select:
		return g.selectExpr(n)
	case ir.Call:
		return g.callExpr(n)
	}
	return nil, fmt.Errorf("cannot generate %v", n.Op)
}

// binExpr generates a binary arithmetic or logical operator, evaluating
// the more complicated subtree first (Sethi-Ullman style).
func (g *gen) binExpr(n *ir.Node) (*vax.Operand, error) {
	t := n.Type
	l, r := n.Kids[0], n.Kids[1]
	var a, b *vax.Operand
	var err error
	if r.Count() > l.Count() && len(l.Kids) > 0 && len(r.Kids) > 0 {
		b, err = g.expr(r)
		if err != nil {
			return nil, err
		}
		a, err = g.expr(l)
	} else {
		a, err = g.expr(l)
		if err != nil {
			return nil, err
		}
		b, err = g.expr(r)
	}
	if err != nil {
		return nil, err
	}
	if a, err = g.widen(a, t); err != nil {
		return nil, err
	}
	if b, err = g.widen(b, t); err != nil {
		return nil, err
	}
	return g.applyBin(n.Op, t, a, b)
}

// applyBin emits the instruction(s) for a OP b.
func (g *gen) applyBin(op ir.Op, t ir.Type, a, b *vax.Operand) (*vax.Operand, error) {
	s := t.Machine().Suffix()
	switch op {
	case ir.Div, ir.Mod:
		if t.IsUnsigned() {
			sym := "_udiv"
			if op == ir.Mod {
				sym = "_urem"
			}
			return g.libCall2(sym, t, a, b)
		}
		if op == ir.Mod {
			q, err := g.allocReg(t)
			if err != nil {
				return nil, err
			}
			g.e.Emit("div"+s+"3", b.Asm(), a.Asm(), q.Asm())
			g.e.Emit("mul"+s+"2", b.Asm(), q.Asm())
			g.e.Emit("sub"+s+"3", q.Asm(), a.Asm(), q.Asm())
			g.rm.Consume(a)
			g.rm.Consume(b)
			return q, nil
		}
	case ir.Lsh, ir.Rsh:
		return g.shiftOp(op, t, a, b)
	case ir.And:
		// A constant mask is complemented in its own descriptor; a fresh
		// one would escape to the heap through the register manager.
		if b.Mode == vax.OImm {
			*b = *immOp(t, ^b.Val)
		} else if a.Mode == vax.OImm {
			*a = *immOp(t, ^a.Val)
			a, b = b, a
		} else {
			m, err := g.allocReg(t)
			if err != nil {
				return nil, err
			}
			g.e.Emit("mcom"+s, b.Asm(), m.Asm())
			g.rm.Consume(b)
			b = m
		}
		dst, err := g.allocReg(t)
		if err != nil {
			return nil, err
		}
		g.e.Emit("bic"+s+"3", b.Asm(), a.Asm(), dst.Asm())
		g.rm.Consume(a)
		g.rm.Consume(b)
		return dst, nil
	}
	var mnemonic string
	flip := false
	switch op {
	case ir.Plus:
		mnemonic = "add" + s + "3"
	case ir.Minus:
		mnemonic, flip = "sub"+s+"3", true
	case ir.Mul:
		mnemonic = "mul" + s + "3"
	case ir.Div:
		mnemonic, flip = "div"+s+"3", true
	case ir.Or:
		mnemonic = "bis" + s + "3"
	case ir.Xor:
		mnemonic = "xor" + s + "3"
	default:
		return nil, fmt.Errorf("bad binary operator %v", op)
	}
	dst, err := g.allocReg(t)
	if err != nil {
		return nil, err
	}
	if flip {
		g.e.Emit(mnemonic, b.Asm(), a.Asm(), dst.Asm())
	} else {
		g.e.Emit(mnemonic, a.Asm(), b.Asm(), dst.Asm())
	}
	g.rm.Consume(a)
	g.rm.Consume(b)
	return dst, nil
}

func (g *gen) shiftOp(op ir.Op, t ir.Type, val, cnt *vax.Operand) (*vax.Operand, error) {
	dst, err := g.allocReg(ir.Long)
	if err != nil {
		return nil, err
	}
	if op == ir.Rsh && t.IsUnsigned() {
		if cnt.Mode == vax.OImm {
			switch {
			case cnt.Val <= 0:
				g.e.Emit("movl", val.Asm(), dst.Asm())
			case cnt.Val >= 32:
				g.e.Emit("clrl", dst.Asm())
			default:
				g.e.Emit("extzv", cnt.Asm(), fmt.Sprintf("$%d", 32-cnt.Val), val.Asm(), dst.Asm())
			}
		} else {
			g.e.Emit("subl3", cnt.Asm(), "$32", dst.Asm())
			g.e.Emit("extzv", cnt.Asm(), dst.Asm(), val.Asm(), dst.Asm())
		}
		g.rm.Consume(val)
		g.rm.Consume(cnt)
		return dst, nil
	}
	var cntAsm string
	switch {
	case cnt.Mode == vax.OImm && op == ir.Lsh:
		cntAsm = fmt.Sprintf("$%d", cnt.Val)
	case cnt.Mode == vax.OImm:
		cntAsm = fmt.Sprintf("$%d", -cnt.Val)
	case op == ir.Lsh:
		cntAsm = cnt.Asm()
	default:
		g.e.Emit("mnegl", cnt.Asm(), dst.Asm())
		g.rm.Consume(cnt)
		cnt = dst
		cntAsm = dst.Asm()
	}
	g.e.Emit("ashl", cntAsm, val.Asm(), dst.Asm())
	g.rm.Consume(val)
	if cnt != dst {
		g.rm.Consume(cnt)
	}
	return dst, nil
}

func (g *gen) unaryExpr(n *ir.Node) (*vax.Operand, error) {
	t := n.Type
	src, err := g.expr(n.Kids[0])
	if err != nil {
		return nil, err
	}
	if src, err = g.widen(src, t); err != nil {
		return nil, err
	}
	dst, err := g.allocReg(t)
	if err != nil {
		return nil, err
	}
	mnemonic := "mneg" + t.Machine().Suffix()
	if n.Op == ir.Compl {
		mnemonic = "mcom" + t.Machine().Suffix()
	}
	g.e.Emit(mnemonic, src.Asm(), dst.Asm())
	g.rm.Consume(src)
	return dst, nil
}

func (g *gen) convExpr(n *ir.Node) (*vax.Operand, error) {
	src, err := g.expr(n.Kids[0])
	if err != nil {
		return nil, err
	}
	to := n.Type
	if src.Mode == vax.OImm || src.Mode == vax.OFImm {
		out := *src
		out.Type = to
		if to.IsInteger() && src.Mode == vax.OFImm {
			out.Mode, out.Val = vax.OImm, int64(src.FVal)
		}
		if to.IsInteger() && src.Mode == vax.OImm {
			out.Val = truncConst(src.Val, to)
		}
		return &out, nil
	}
	fs, ts := src.Type.Machine().Suffix(), to.Machine().Suffix()
	if fs == ts {
		out := *src
		out.Type = to
		return &out, nil
	}
	if src.Type.IsUnsigned() && src.Type.Size() < to.Size() && to.IsInteger() {
		return g.widen(src, to)
	}
	dst, err := g.allocReg(to)
	if err != nil {
		return nil, err
	}
	g.e.Emit("cvt"+fs+ts, src.Asm(), dst.Asm())
	g.rm.Consume(src)
	return dst, nil
}

func truncConst(v int64, t ir.Type) int64 {
	switch t.Size() {
	case 1:
		return int64(int8(v))
	case 2:
		return int64(int16(v))
	}
	return v
}
