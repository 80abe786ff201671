package transform

import (
	"ggcg/internal/ir"
)

// value rewrites an expression subtree in value context: calls, increment
// side effects, truth values and selections are hoisted into preceding
// statements, leaving a pure computation tree. indirSize is the operand
// size of the enclosing Indir when the node is an address child, used to
// decide whether an increment operator may remain as an autoincrement
// addressing mode (§6.1).
func (c *ctx) value(n *ir.Node, indirSize int) (*ir.Node, error) {
	switch n.Op {
	case ir.Const, ir.FConst, ir.Name, ir.Dreg, ir.Lab, ir.RegUse:
		return n, nil

	case ir.Call:
		leaf, err := c.lowerCallToLeaf(n)
		if err != nil {
			return nil, err
		}
		// Calls always require the registers to be free, so the result is
		// factored into a compiler temporary (§5.1.1).
		off := c.f.AllocTemp(n.Type)
		c.emit(c.a.Bin(ir.Assign, n.Type, c.a.FrameRef(n.Type, off), leaf))
		return c.a.FrameRef(n.Type, off), nil

	case ir.Indir:
		a, err := c.value(n.Kids[0], n.Type.Size())
		if err != nil {
			return nil, err
		}
		return c.a.Un(ir.Indir, n.Type, a), nil

	case ir.PostInc, ir.PostDec, ir.PreInc, ir.PreDec:
		return c.incDecValue(n, indirSize)

	case ir.Not, ir.AndAnd, ir.OrOr, ir.Eq, ir.Ne, ir.Lt, ir.Le, ir.Gt, ir.Ge:
		// A truth value: the VAX lacks an instruction to construct one,
		// so it is built by a sequence of tests, jumps and assignments
		// (§5.1.1).
		return c.boolValue(n)

	case ir.Select:
		return c.selectValue(n)

	case ir.Assign:
		// A nested assignment used as a value.
		dst, err := c.lvalue(n.Kids[0])
		if err != nil {
			return nil, err
		}
		src, err := c.value(n.Kids[1], 0)
		if err != nil {
			return nil, err
		}
		return c.a.Bin(ir.Assign, n.Type, dst, src), nil

	default:
		kids := c.a.MakeKids(len(n.Kids))
		for i, k := range n.Kids {
			nk, err := c.value(k, 0)
			if err != nil {
				return nil, err
			}
			kids[i] = nk
		}
		m := c.a.New()
		*m = *n
		m.Kids = kids
		return m, nil
	}
}

// lowerCallToLeaf rewrites a call's arguments into Arg statements (pushed
// right to left) and returns the residual Call leaf.
func (c *ctx) lowerCallToLeaf(n *ir.Node) (*ir.Node, error) {
	for i := len(n.Kids) - 1; i >= 0; i-- {
		k := n.Kids[i]
		// Integer arguments travel as longwords, floating ones as
		// doubles; the grammar's conversion chains do the widening.
		at := ir.Long
		if k.Type.IsFloat() {
			at = ir.Double
		}
		v, err := c.value(k, 0)
		if err != nil {
			return nil, err
		}
		c.emit(c.a.Un(ir.Arg, at, c.order(c.canon(v))))
	}
	call := c.newNode(ir.Call, n.Type)
	call.Sym, call.Val = n.Sym, n.Val
	return call, nil
}

// incDecValue rewrites an increment/decrement operator used as a value.
// The autoincrement and autodecrement addressing modes survive only for
// postfix increment and prefix decrement of a dedicated register whose
// step matches the enclosing operand size (§6.1).
func (c *ctx) incDecValue(n *ir.Node, indirSize int) (*ir.Node, error) {
	lv := n.Kids[0]
	amt := n.Kids[1]
	if (n.Op == ir.PostInc || n.Op == ir.PreDec) &&
		lv.Op == ir.Dreg && lv.Val >= ir.NAllocatable && lv.Val < ir.RegAP &&
		indirSize > 0 && amt.Op == ir.Const && amt.Val == int64(indirSize) {
		return n, nil
	}
	nlv, err := c.lvalue(lv)
	if err != nil {
		return nil, err
	}
	read := c.readOf(nlv)
	op := ir.Plus
	if n.Op == ir.PostDec || n.Op == ir.PreDec {
		op = ir.Minus
	}
	update := func() {
		asg := c.a.Bin(ir.Assign, n.Type, c.a.Clone(nlv), c.a.Bin(op, n.Type, c.readOf(nlv), amt))
		c.emit(c.order(c.canon(asg)))
	}
	if n.Op == ir.PreInc || n.Op == ir.PreDec {
		update()
		return read, nil
	}
	// Postfix: save the old value first.
	off := c.f.AllocTemp(n.Type)
	c.emit(c.a.Bin(ir.Assign, n.Type, c.a.FrameRef(n.Type, off), read))
	update()
	return c.a.FrameRef(n.Type, off), nil
}

// tempDest allocates a destination for a truth value or selection: a
// phase-1 register when one is free (communicated to the instruction
// generator through Assign-to-Dreg and RegUse trees, §5.3.3), else a
// memory temporary. Floating selections always use memory, since a double
// would need a register pair.
func (c *ctx) tempDest(t ir.Type) (d dest, use *ir.Node) {
	if !t.IsFloat() && !c.stmtHasCall {
		if r := c.allocP1Reg(); r >= 0 {
			use := c.newNode(ir.RegUse, t)
			use.Val = int64(r)
			return dest{t: t, reg: r}, use
		}
	}
	d = dest{t: t, reg: -1, off: c.f.AllocTemp(t)}
	return d, c.a.FrameRef(t, d.off)
}

// dest is a truth-value or selection destination from tempDest: phase-1
// register reg, or the frame temporary at off when reg is -1.
type dest struct {
	t        ir.Type
	reg, off int
}

// store returns a fresh tree naming the destination as an assignment
// target.
func (d dest) store(c *ctx) *ir.Node {
	if d.reg >= 0 {
		return c.a.NewDreg(d.t, d.reg)
	}
	return c.a.FrameRef(d.t, d.off)
}

// boolValue builds the 0/1 value of a boolean expression with branches.
// Truth values are always long.
func (c *ctx) boolValue(n *ir.Node) (*ir.Node, error) {
	t := ir.Long
	d, use := c.tempDest(t)
	trueL := c.f.NewLabel()
	doneL := c.f.NewLabel()
	if err := c.branchTrue(n, trueL); err != nil {
		return nil, err
	}
	c.emit(c.a.Bin(ir.Assign, t, d.store(c), c.a.NewConst(ir.Byte, 0)))
	c.emit(c.a.Un(ir.Jump, ir.Void, c.a.NewLab(doneL)))
	c.f.EmitLabel(trueL)
	c.emit(c.a.Bin(ir.Assign, t, d.store(c), c.a.NewConst(ir.Byte, 1)))
	c.f.EmitLabel(doneL)
	return use, nil
}

// selectValue lowers a ?: selection into explicit conditional branches
// (§5.1.1).
func (c *ctx) selectValue(n *ir.Node) (*ir.Node, error) {
	d, use := c.tempDest(n.Type)
	elseL := c.f.NewLabel()
	doneL := c.f.NewLabel()
	if err := c.branchFalse(n.Kids[0], elseL); err != nil {
		return nil, err
	}
	a, err := c.value(n.Kids[1], 0)
	if err != nil {
		return nil, err
	}
	c.emit(c.order(c.canon(c.a.Bin(ir.Assign, n.Type, d.store(c), a))))
	c.emit(c.a.Un(ir.Jump, ir.Void, c.a.NewLab(doneL)))
	c.f.EmitLabel(elseL)
	b, err := c.value(n.Kids[2], 0)
	if err != nil {
		return nil, err
	}
	c.emit(c.order(c.canon(c.a.Bin(ir.Assign, n.Type, d.store(c), b))))
	c.f.EmitLabel(doneL)
	return use, nil
}

// branchTrue emits statements that branch to label when cond is non-zero,
// splitting short-circuit structure first so that unevaluated operands
// stay unevaluated (§5.1.1).
func (c *ctx) branchTrue(cond *ir.Node, label int) error {
	switch cond.Op {
	case ir.Not:
		return c.branchFalse(cond.Kids[0], label)
	case ir.AndAnd:
		skip := c.f.NewLabel()
		if err := c.branchFalse(cond.Kids[0], skip); err != nil {
			return err
		}
		if err := c.branchTrue(cond.Kids[1], label); err != nil {
			return err
		}
		c.f.EmitLabel(skip)
		return nil
	case ir.OrOr:
		if err := c.branchTrue(cond.Kids[0], label); err != nil {
			return err
		}
		return c.branchTrue(cond.Kids[1], label)
	}
	return c.emitCmpBranch(cond, label, false)
}

func (c *ctx) branchFalse(cond *ir.Node, label int) error {
	switch cond.Op {
	case ir.Not:
		return c.branchTrue(cond.Kids[0], label)
	case ir.AndAnd:
		if err := c.branchFalse(cond.Kids[0], label); err != nil {
			return err
		}
		return c.branchFalse(cond.Kids[1], label)
	case ir.OrOr:
		skip := c.f.NewLabel()
		if err := c.branchTrue(cond.Kids[0], skip); err != nil {
			return err
		}
		if err := c.branchFalse(cond.Kids[1], label); err != nil {
			return err
		}
		c.f.EmitLabel(skip)
		return nil
	}
	return c.emitCmpBranch(cond, label, true)
}

// emitCmpBranch emits the CBranch/Cmp form for a leaf condition. A
// comparison against zero is normalized with the zero on the right so the
// tst and condition-code patterns apply.
func (c *ctx) emitCmpBranch(cond *ir.Node, label int, negate bool) error {
	var rel ir.Rel
	var l, r *ir.Node
	var t ir.Type
	switch {
	case cond.Op == ir.Cmp:
		// Already in compare form (hand-built trees).
		rel, l, r, t = ir.Rel(cond.Val), cond.Kids[0], cond.Kids[1], cond.Type
	case cond.Op.IsRelational():
		rel, l, r = cond.Op.Rel(), cond.Kids[0], cond.Kids[1]
		t = cond.Type
		if t == ir.Void {
			t = l.Type
		}
	default:
		rel, l, r = ir.RNE, cond, c.a.NewConst(ir.Byte, 0)
		t = cond.Type
	}
	if negate {
		rel = rel.Negate()
	}
	if isZero(l) && !isZero(r) {
		l, r = r, l
		rel = rel.Swap()
	}
	nl, err := c.value(l, 0)
	if err != nil {
		return err
	}
	nr, err := c.value(r, 0)
	if err != nil {
		return err
	}
	cmp := c.a.NewCmp(t, rel, c.order(c.canon(nl)), c.order(c.canon(nr)))
	br := c.a.New()
	br.Op = ir.CBranch
	br.Kids = c.a.Kids(cmp, c.a.NewLab(label))
	c.emit(br)
	return nil
}

func isZero(n *ir.Node) bool {
	return n.Op == ir.Const && n.Val == 0 || n.Op == ir.FConst && n.F == 0
}

// canon is phase 1b: operator expansion and commutative canonicalization
// (§5.1.2), applied bottom-up.
func (c *ctx) canon(n *ir.Node) *ir.Node {
	for i, k := range n.Kids {
		n.Kids[i] = c.canon(k)
	}
	switch n.Op {
	case ir.Lsh:
		// Left shift by a constant becomes multiplication by a power of
		// two, exposing the scaled-index addressing patterns.
		if sh := n.Kids[1]; sh.Op == ir.Const && sh.Val >= 0 && sh.Val < 31 && n.Type.IsInteger() && !n.Type.IsUnsigned() {
			return c.canon(c.a.Bin(ir.Mul, n.Type, c.a.SmallConst(int64(1)<<uint(sh.Val)), n.Kids[0]))
		}
	case ir.Minus:
		// Subtraction of a constant becomes addition.
		if k := n.Kids[1]; k.Op == ir.Const && n.Type.IsInteger() && k.Val != -(1<<31) {
			return c.canon(c.a.Bin(ir.Plus, n.Type, c.a.SmallConst(-k.Val), n.Kids[0]))
		}
	case ir.Plus, ir.Mul, ir.And, ir.Or, ir.Xor:
		// A constant operand is forced to be the left child.
		if n.Kids[1].Op == ir.Const && n.Kids[0].Op != ir.Const {
			n.Kids[0], n.Kids[1] = n.Kids[1], n.Kids[0]
		}
	}
	return n
}

// regNeed estimates how many registers evaluating a subtree holds while
// the other operand is computed. Operands the instruction selector can use
// as addressing modes are free; only computed values occupy registers.
// This refines the paper's raw node-count measure so the exchange stays
// rare ("less than 1% of the expressions", §5.1.3) while still preventing
// right-recursive trees from exhausting the bank.
func regNeed(n *ir.Node) int {
	switch n.Op {
	case ir.Const, ir.FConst, ir.Name, ir.Dreg, ir.RegUse, ir.Lab, ir.Call:
		return 0
	case ir.Indir:
		if addressable(n.Kids[0]) {
			return 0
		}
		return regNeed(n.Kids[0])
	case ir.Assign, ir.RAssign:
		a, b := regNeed(n.Kids[0]), regNeed(n.Kids[1])
		if b > a {
			return b
		}
		return a
	}
	if len(n.Kids) == 1 {
		k := regNeed(n.Kids[0])
		if k < 1 {
			return 1
		}
		return k
	}
	if len(n.Kids) == 2 {
		a, b := regNeed(n.Kids[0]), regNeed(n.Kids[1])
		switch {
		case a == b:
			return a + 1
		case a > b:
			return a
		default:
			return b
		}
	}
	return 1
}

// addressable reports whether an address computation is an addressing mode
// needing no registers of its own.
func addressable(a *ir.Node) bool {
	switch a.Op {
	case ir.Name, ir.Dreg:
		return true
	case ir.Plus:
		l, r := a.Kids[0], a.Kids[1]
		if l.Op == ir.Const && (r.Op == ir.Dreg || r.Op == ir.Name || addressable(r)) {
			return true
		}
	}
	return false
}

// order is phase 1c: the evaluation-ordering heuristic. The subtree
// needing more registers should be the left subtree, so the left-to-right,
// no-backup instruction selector does not run out of registers on
// right-recursive trees. If the operator is not commutative it is replaced
// by a reverse operator telling the instruction generator to order the
// computed values properly (§5.1.3).
func (c *ctx) order(n *ir.Node) *ir.Node {
	for i, k := range n.Kids {
		n.Kids[i] = c.order(k)
	}
	if len(n.Kids) != 2 {
		return n
	}
	switch n.Op {
	case ir.Plus, ir.Minus, ir.Mul, ir.Div, ir.Mod, ir.And, ir.Or, ir.Xor, ir.Lsh, ir.Rsh, ir.Assign:
	default:
		return n
	}
	a, b := n.Kids[0], n.Kids[1]
	// Exchange only when the left side also computes into registers:
	// addressing-mode operands hold nothing while the right side runs.
	na, nb := regNeed(a), regNeed(b)
	if na < 1 || nb <= na {
		return n
	}
	if n.Op.IsCommutative() {
		n.Kids[0], n.Kids[1] = b, a
		c.stats.Swapped++
		return n
	}
	if c.opt.NoReverseOps {
		return n
	}
	if rev, ok := n.Op.Reverse(); ok {
		c.stats.Reversed++
		m := c.newNode(rev, n.Type)
		m.Kids = c.a.Kids(b, a)
		return m
	}
	return n
}
