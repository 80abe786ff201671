package vax

import (
	"ggcg/internal/cgram"
	"ggcg/internal/ir"
	"ggcg/internal/matcher"
	"ggcg/internal/target"
)

// routine is a VAX semantic routine (§5.2, §5.3).
type routine = target.Routine[*Gen]

// routineTable holds the VAX semantic routines, keyed by the action names
// of the description (grammar.go). A family of actions shares one
// constructor with its parameters bound; the positions given are indices
// into the production's right-hand side.
var routineTable = map[string]routine{
	"con":    (*Gen).con,
	"imm":    (*Gen).imm,
	"fcon":   (*Gen).fcon,
	"dreg":   (*Gen).dreg,
	"reguse": (*Gen).dreg,
	"abs":    (*Gen).abs,
	"addr":   (*Gen).addr,
	"lea":    (*Gen).lea,
	"load":   (*Gen).load,
	"cvt":    (*Gen).cvt,
	"retype": (*Gen).retype,

	// Addressing modes: the encapsulating reductions of §5.2.
	"mabs":     mem(memMode{mode: OAbs, sym: 1}),
	"mabsoff":  mem(memMode{mode: OAbs, off: 2, sym: 3}),
	"mregdef":  mem(memMode{mode: ORegDef, base: 1}),
	"mregdefd": mem(memMode{mode: ORegDef, dreg: 1}),
	"mdisp":    mem(memMode{mode: ODisp, off: 2, base: 3}),
	"mdispd":   mem(memMode{mode: ODisp, off: 2, dreg: 3}),
	"mdispd2":  mem(memMode{mode: ODisp, off: 2, off2: 4, dreg: 5}),
	"mnx":      mem(memMode{mode: OAbs, sym: 2, index: 5}),
	"mdx":      mem(memMode{mode: ODisp, off: 3, base: 4, index: 7}),
	"mdxd":     mem(memMode{mode: ODisp, off: 3, dreg: 4, index: 7}),
	"mrx":      mem(memMode{mode: ORegDef, base: 2, index: 5}),
	"mrxd":     mem(memMode{mode: ORegDef, dreg: 2, index: 5}),
	"mautoinc": mem(memMode{mode: OAutoInc, dreg: 2}),
	"mautodec": mem(memMode{mode: OAutoDec, dreg: 2}),
	"mdef":     (*Gen).mdef,

	// Bridge productions (§6.2.2).
	"mbrdxd":     bridge(bridgeMode{off: 3, dreg: 4, scaled: 6}),
	"mbrdx":      bridge(bridgeMode{off: 3, base: 4, scaled: 6}),
	"mbrrxd":     bridge(bridgeMode{dreg: 2, scaled: 4}),
	"mbrrx":      bridge(bridgeMode{base: 2, scaled: 4}),
	"mbrnx":      bridge(bridgeMode{sym: 2, scaled: 4}),
	"mbraddrd":   bridge(bridgeMode{off: 3, dreg: 4, value: 5}),
	"mbraddr":    bridge(bridgeMode{off: 3, base: 4, value: 5}),
	"mbrnameadd": bridge(bridgeMode{sym: 2, value: 3}),

	// Operators over the operator node's type; the reverse forms take
	// their first attribute as the right operand (§5.1.3).
	"add":   arith(addOps.op, false),
	"sub":   arith(subOps.op, false),
	"rsub":  arith(subOps.op, true),
	"mul":   arith(mulOps.op, false),
	"div":   arith((*Gen).div, false),
	"rdiv":  arith((*Gen).div, true),
	"mod":   arith((*Gen).mod, false),
	"rmod":  arith((*Gen).mod, true),
	"and":   arith((*Gen).andOp, false),
	"or":    arith(bisOps.op, false),
	"xor":   arith(xorOps.op, false),
	"lsh":   arith(shiftBy(true), false),
	"rlsh":  arith(shiftBy(true), true),
	"rsh":   arith(shiftBy(false), false),
	"rrsh":  arith(shiftBy(false), true),
	"neg":   unaryOp(mnegT),
	"compl": unaryOp(mcomT),

	// Assignments: to a destination, as a value, and of an operator
	// straight into the destination (Figure 3's three-address scheme).
	"asg":      assignTo(1, 2),
	"asgn":     assignTo(1, 2),
	"rasg":     assignTo(2, 1),
	"rasgn":    assignTo(2, 1),
	"asgv":     assignValue(1, 2),
	"asgnv":    assignValue(1, 2),
	"rasgv":    assignValue(2, 1),
	"rasgnv":   assignValue(2, 1),
	"asgc":     (*Gen).asgc,
	"asgadd":   assignOp(addOps, ""),
	"asgsub":   assignOp(subOps, ""),
	"asgmul":   assignOp(mulOps, ""),
	"asgdiv":   assignOp(divOps, "udiv"),
	"asgor":    assignOp(bisOps, ""),
	"asgxor":   assignOp(xorOps, ""),
	"asgneg":   assignUnary(mnegT),
	"asgcompl": assignUnary(mcomT),

	// Calls, returns and jumps.
	"call":     (*Gen).call,
	"callstmt": (*Gen).callStmt,
	"callv":    (*Gen).callStmt,
	"arg":      (*Gen).arg,
	"ret":      (*Gen).ret,
	"retv":     (*Gen).retv,
	"jump":     (*Gen).jump,

	// Conditional branches (§6.1, §6.2.1).
	"cmpbr":    (*Gen).cmpbr,
	"tstbr":    (*Gen).tstbr,
	"ccbr":     (*Gen).ccbr,
	"dregbr":   (*Gen).dregbr,
	"regusebr": (*Gen).dregbr,
}

// routines binds each production of the VAX description to its routine
// when the description loads (desc).
var routines = target.NewRoutines(routineTable)

// Reduce runs the semantic routine bound to p (§5.2, §5.3).
func (g *Gen) Reduce(p *cgram.Prod, args []matcher.Value) (any, error) {
	return routines.Reduce(g, p, args)
}

func opnd(v matcher.Value) (*Operand, error) { return target.Attr[*Operand](v) }

func opnds(args []matcher.Value, i, j int) (*Operand, *Operand, error) {
	return target.Attrs[*Operand](args, i, j)
}

// con passes the constant terminal's node up as the attribute, which
// target.Const reads.
func (g *Gen) con(_ ir.Type, args []matcher.Value) (any, error) { return target.Node(args[0]), nil }

func (g *Gen) imm(t ir.Type, args []matcher.Value) (any, error) {
	v, err := target.Const(args[0])
	if err != nil {
		return nil, err
	}
	return g.intOp(t, v), nil
}

func (g *Gen) fcon(t ir.Type, args []matcher.Value) (any, error) {
	return g.fimmOp(t, target.Node(args[0]).F), nil
}

func (g *Gen) dreg(_ ir.Type, args []matcher.Value) (any, error) {
	n := target.Node(args[0])
	return g.regOp(n.Type, int(n.Val)), nil
}

func (g *Gen) abs(_ ir.Type, args []matcher.Value) (any, error) {
	n := target.Node(args[0])
	return g.Op(Operand{Mode: OAbs, Type: n.Type, Sym: n.Sym, Xreg: -1}), nil
}

// symOp returns the absolute operand _sym.
func (g *Gen) symOp(sym string) *Operand {
	return g.Op(Operand{Mode: OAbs, Type: ir.Long, Sym: sym, Xreg: -1})
}

func (g *Gen) addr(_ ir.Type, args []matcher.Value) (any, error) {
	return g.addrOf(ir.ULong, g.symOp(target.Node(args[0]).Sym))
}

func (g *Gen) lea(_ ir.Type, args []matcher.Value) (any, error) {
	off, err := target.Const(args[1])
	if err != nil {
		return nil, err
	}
	r := int(target.Node(args[2]).Val)
	return g.addrOf(ir.ULong, g.Op(Operand{Mode: ODisp, Type: ir.Long, Reg: r, Off: off, Xreg: -1}))
}

// addrOf computes the address src names into a fresh register of type t.
func (g *Gen) addrOf(t ir.Type, src *Operand) (*Operand, error) {
	dst := g.regOp(t, 0)
	r, err := g.RM.Alloc(ir.Long, dst)
	if err != nil {
		return nil, err
	}
	dst.Reg, dst.Owned = r, target.RegRange(r, 1)
	g.E.EmitResult("moval", dst, src)
	return dst, nil
}

func (g *Gen) load(_ ir.Type, args []matcher.Value) (any, error) {
	o, err := opnd(args[0])
	if err != nil {
		return nil, err
	}
	return g.materialize(o.Type, o)
}

func (g *Gen) cvt(t ir.Type, args []matcher.Value) (any, error) {
	src, err := opnd(args[len(args)-1])
	if err != nil {
		return nil, err
	}
	return g.convert(t, src)
}

func (g *Gen) retype(_ ir.Type, args []matcher.Value) (any, error) {
	src, err := opnd(args[1])
	if err != nil {
		return nil, err
	}
	return g.retyped(src, target.Node(args[0]).Type), nil
}

// retyped returns a copy of o typed t that takes over o's registers.
func (g *Gen) retyped(o *Operand, t ir.Type) *Operand {
	out := g.Op(*o)
	out.Type, out.Owned = t, 0
	out.Owned = g.RM.Transfer(o, out)
	return out
}

// memMode is an addressing-mode pattern: its mode, and the positions of
// its parts (0 where it has none; position 0 is the Indir). off and off2
// are constants summed into the displacement, sym the Name of an absolute
// form, base a computed address register, dreg a dedicated one and index
// the index register.
type memMode struct {
	mode                              OperMode
	off, off2, sym, base, dreg, index int
}

// mem returns the routine of an addressing-mode pattern: the operand
// descriptor it condenses into, typed by its Indir.
func mem(m memMode) routine {
	return func(g *Gen, _ ir.Type, args []matcher.Value) (any, error) {
		out := g.Op(Operand{Mode: m.mode, Type: target.Node(args[0]).Type, Xreg: -1})
		for _, k := range [...]int{m.off, m.off2} {
			if k > 0 {
				off, err := target.Const(args[k])
				if err != nil {
					return nil, err
				}
				out.Off += off
			}
		}
		if m.sym > 0 {
			out.Sym = target.Node(args[m.sym]).Sym
		}
		if m.dreg > 0 {
			out.Reg = int(target.Node(args[m.dreg]).Val)
		}
		if m.index > 0 {
			idx, err := g.ensureReg(args[m.index])
			if err != nil {
				return nil, err
			}
			out.Xreg = idx.Reg
			out.Owned = g.RM.Transfer(idx, out)
		}
		if m.base > 0 {
			b, err := g.ensureReg(args[m.base])
			if err != nil {
				return nil, err
			}
			out.Reg = b.Reg
			out.Owned |= g.RM.Transfer(b, out)
		}
		return out, nil
	}
}

// ensureReg forces a reg.l attribute to actually be a register: the
// conversion chains can deliver a retyped immediate where an address base
// or index register is required.
func (g *Gen) ensureReg(v matcher.Value) (*Operand, error) {
	o, err := opnd(v)
	if err != nil {
		return nil, err
	}
	if o.Mode == OReg {
		return o, nil
	}
	return g.materialize(ir.Long, o)
}

// mdef: a pointer fetched from memory addresses the operand, the VAX
// deferred modes. Already-deferred or indexed inner operands are loaded
// into a register instead (the hardware has one level).
func (g *Gen) mdef(_ ir.Type, args []matcher.Value) (any, error) {
	inner, err := opnd(args[1])
	if err != nil {
		return nil, err
	}
	indirT := target.Node(args[0]).Type
	if !inner.Deferred && inner.Xreg < 0 &&
		(inner.Mode == OAbs || inner.Mode == ODisp || inner.Mode == ORegDef ||
			inner.Mode == OAutoInc || inner.Mode == OAutoDec) {
		out := g.retyped(inner, indirT)
		out.Deferred = true
		return out, nil
	}
	r, err := g.materialize(ir.Long, inner)
	if err != nil {
		return nil, err
	}
	out := g.Op(Operand{Mode: ORegDef, Type: indirT, Reg: r.Reg, Xreg: -1})
	out.Owned = g.RM.Transfer(r, out)
	return out, nil
}

// bridgeMode is a bridge production (§6.2.2): the indexing prefix was
// committed to but the scale is general, so the scaled index is computed
// with an explicit multiply and folded into the base by an add. scaled is
// the position of the two values multiplied, or value that of an unscaled
// index subtree; off, base, dreg and sym place the prefix's displacement
// and base as in memMode.
type bridgeMode struct {
	off, base, dreg, sym, scaled, value int
}

// bridge returns the routine of a bridge production: d(r) over the sum
// when the prefix has a displacement, (r) otherwise.
func bridge(m bridgeMode) routine {
	return func(g *Gen, _ ir.Type, args []matcher.Value) (any, error) { return g.bridge(&m, args) }
}

// bridge generates a bridge production.
func (g *Gen) bridge(m *bridgeMode, args []matcher.Value) (*Operand, error) {
	var off int64
	var val *Operand
	var err error
	if m.off > 0 {
		if off, err = target.Const(args[m.off]); err != nil {
			return nil, err
		}
	}
	if m.scaled > 0 {
		rv1, rv2, err := opnds(args, m.scaled, m.scaled+1)
		if err != nil {
			return nil, err
		}
		if val, err = g.binary(mulOps, ir.Long, rv1, rv2); err != nil {
			return nil, err
		}
	}
	// The base: a dedicated register, a computed register, or a
	// symbol's address.
	var base *Operand
	switch {
	case m.dreg > 0:
		base = g.regOp(ir.Long, int(target.Node(args[m.dreg]).Val))
	case m.base > 0:
		if base, err = opnd(args[m.base]); err != nil {
			return nil, err
		}
	default:
		if val != nil {
			g.RM.Pin(val)
		}
		addr, err := g.addrOf(ir.Long, g.symOp(target.Node(args[m.sym]).Sym))
		if err != nil {
			return nil, err
		}
		if val != nil {
			g.RM.Unpin()
		}
		base = addr
	}
	if m.value > 0 {
		if val, err = opnd(args[m.value]); err != nil {
			return nil, err
		}
	}
	sum, err := g.binary(addOps, ir.Long, val, base)
	if err != nil {
		return nil, err
	}
	out := g.Op(Operand{Mode: ORegDef, Type: target.Node(args[0]).Type, Reg: sum.Reg, Xreg: -1})
	out.Owned = g.RM.Transfer(sum, out)
	if m.off > 0 {
		out.Mode, out.Off = ODisp, off
	}
	return out, nil
}

// binOp generates a two-source operator of type t.
type binOp func(g *Gen, t ir.Type, a, b *Operand) (*Operand, error)

// arith returns the routine of a two-source operator over the operator
// node's type, with its sources swapped for a reverse operator.
func arith(op binOp, reverse bool) routine {
	return func(g *Gen, _ ir.Type, args []matcher.Value) (any, error) {
		a, b, err := opnds(args, 1, 2)
		if err != nil {
			return nil, err
		}
		if reverse {
			a, b = b, a
		}
		return op(g, target.Node(args[0]).Type, a, b)
	}
}

// op generates the cluster's operator (a binOp).
func (c *cluster) op(g *Gen, t ir.Type, a, b *Operand) (*Operand, error) { return g.binary(c, t, a, b) }

// shiftBy returns the left or right shift of a value by a count.
func shiftBy(left bool) binOp {
	return func(g *Gen, t ir.Type, val, cnt *Operand) (*Operand, error) { return g.shift(t, val, cnt, left) }
}

// div and mod: unsigned division and modulus are calls on library
// functions known not to modify any register, and signed modulus is a
// pseudo-instruction needing a register for an intermediate result
// (§5.3.2).
func (g *Gen) div(t ir.Type, a, b *Operand) (*Operand, error) {
	if t.IsUnsigned() {
		return g.callBuiltin("udiv", t, a, b)
	}
	return g.binary(divOps, t, a, b)
}

func (g *Gen) mod(t ir.Type, a, b *Operand) (*Operand, error) {
	if t.IsUnsigned() {
		return g.callBuiltin("urem", t, a, b)
	}
	return g.signedMod(t, a, b)
}

// unaryOp returns the routine of a one-source operator over the operator
// node's type.
func unaryOp(op *mnem) routine {
	return func(g *Gen, _ ir.Type, args []matcher.Value) (any, error) {
		src, err := opnd(args[1])
		if err != nil {
			return nil, err
		}
		return g.unary(op, target.Node(args[0]).Type, src)
	}
}

// assignTo returns the routine of an assignment statement whose
// destination and source are at positions dst and src.
func assignTo(dst, src int) routine {
	return func(g *Gen, t ir.Type, args []matcher.Value) (any, error) {
		d, s, err := opnds(args, dst, src)
		if err != nil {
			return nil, err
		}
		return nil, g.assign(t, s, d)
	}
}

// assignValue returns the routine of an assignment used as a value: the
// destination descriptor is reused once as the source of the surrounding
// computation. The narrowing forms type the result at the destination's
// width, so a wider context widens it back via a conversion chain.
func assignValue(dst, src int) routine {
	return func(g *Gen, t ir.Type, args []matcher.Value) (any, error) {
		d, s, err := opnds(args, dst, src)
		if err != nil {
			return nil, err
		}
		if s, err = g.stepAtSize(t, s); err != nil {
			return nil, err
		}
		g.move(t, s, d)
		g.RM.Consume(s)
		return g.retyped(d, t), nil
	}
}

// assignOp returns the routine of the assignment-destination form of
// cluster c: stmt -> Assign lval OP rval rval,
// Figure 3's three-address scheme with the assignment target as the
// destination. An unsigned operation calls the library function _unsigned
// instead, where there is one, and stores its result.
func assignOp(c *cluster, unsigned string) routine {
	return func(g *Gen, _ ir.Type, args []matcher.Value) (any, error) {
		dst, err := opnd(args[1])
		if err != nil {
			return nil, err
		}
		t := target.Node(args[2]).Type
		a, b, err := opnds(args, 3, 4)
		if err != nil {
			return nil, err
		}
		if unsigned != "" && t.IsUnsigned() {
			r, err := g.callBuiltin(unsigned, t, a, b)
			if err != nil {
				return nil, err
			}
			g.move(t, r, dst)
			g.RM.Consume(r)
		} else {
			g.binaryInto(c, t, a, b, dst)
		}
		g.RM.Consume(dst)
		return nil, nil
	}
}

// assignUnary returns the routine of a one-source operator assigned
// straight into its destination.
func assignUnary(op *mnem) routine {
	return func(g *Gen, t ir.Type, args []matcher.Value) (any, error) {
		dst, src, err := opnds(args, 1, 3)
		if err != nil {
			return nil, err
		}
		g.RM.Pin(dst)
		g.E.EmitResult(mn(op, t), dst, src)
		g.RM.Unpin()
		g.RM.Consume(src)
		g.RM.Consume(dst)
		return nil, nil
	}
}

// asgc assigns a call's result directly, keeping it out of a temporary
// when the destination needs no address registers.
func (g *Gen) asgc(t ir.Type, args []matcher.Value) (any, error) {
	dst, err := opnd(args[1])
	if err != nil {
		return nil, err
	}
	g.emitCall(target.Node(args[2]))
	g.move(t, g.regOp(t, 0), dst)
	g.RM.Consume(dst)
	return nil, nil
}

func (g *Gen) call(_ ir.Type, args []matcher.Value) (any, error) {
	n := target.Node(args[0])
	g.emitCall(n)
	return g.callResult(n.Type)
}

func (g *Gen) callStmt(_ ir.Type, args []matcher.Value) (any, error) {
	g.emitCall(target.Node(args[0]))
	return nil, nil
}

func (g *Gen) arg(t ir.Type, args []matcher.Value) (any, error) {
	src, err := opnd(args[1])
	if err != nil {
		return nil, err
	}
	if t == ir.Double {
		g.E.Begin("movd")
		g.E.Arg(src)
		g.E.ArgString("-(sp)")
		g.E.End()
	} else {
		g.E.EmitOps("pushl", src)
	}
	g.RM.Consume(src)
	return nil, nil
}

func (g *Gen) ret(t ir.Type, args []matcher.Value) (any, error) {
	src, err := opnd(args[1])
	if err != nil {
		return nil, err
	}
	g.move(t, src, g.regOp(t, 0))
	g.RM.Consume(src)
	g.E.Emit("ret")
	return nil, nil
}

func (g *Gen) retv(ir.Type, []matcher.Value) (any, error) {
	g.E.Emit("ret")
	return nil, nil
}

func (g *Gen) jump(_ ir.Type, args []matcher.Value) (any, error) {
	g.E.EmitJump("jbr", g.LabelID(args[1]))
	return nil, nil
}

func (g *Gen) cmpbr(t ir.Type, args []matcher.Value) (any, error) {
	a, b, err := opnds(args, 2, 3)
	if err != nil {
		return nil, err
	}
	g.E.EmitOps(mn(cmpT, t), a, b)
	g.RM.Consume(a)
	g.RM.Consume(b)
	g.branch(target.Node(args[1]), g.LabelID(args[4]))
	return nil, nil
}

func (g *Gen) tstbr(t ir.Type, args []matcher.Value) (any, error) {
	a, err := opnd(args[2])
	if err != nil {
		return nil, err
	}
	g.E.EmitOps(mn(tstT, t), a)
	g.RM.Consume(a)
	g.branch(target.Node(args[1]), g.LabelID(args[4]))
	return nil, nil
}

// ccbr branches on the codes the instruction that set the register also
// set (§6.1). If overfactoring let a quiet register slip through, it
// falls back to an explicit test.
func (g *Gen) ccbr(t ir.Type, args []matcher.Value) (any, error) {
	a, err := opnd(args[2])
	if err != nil {
		return nil, err
	}
	if a.Mode != OReg || !g.E.LastSet(a.Reg) {
		g.E.TstBackstops++
		g.E.EmitOps(mn(tstT, t), a)
	}
	g.RM.Consume(a)
	g.branch(target.Node(args[1]), g.LabelID(args[4]))
	return nil, nil
}

// dregbr tests a dedicated or phase-1 register: those arrive without code
// having been emitted, so the condition codes do not describe them
// (§6.2.1).
func (g *Gen) dregbr(t ir.Type, args []matcher.Value) (any, error) {
	g.E.Emit(mn(tstT, t), ir.RegName(int(target.Node(args[2]).Val)))
	g.branch(target.Node(args[1]), g.LabelID(args[4]))
	return nil, nil
}

// branch emits the conditional jump to label id for a Cmp node's
// relation, using the unsigned forms when the comparison type is
// unsigned.
func (g *Gen) branch(cmp *ir.Node, id int) {
	rel := ir.Rel(cmp.Val)
	table := signedBranch
	if cmp.Type.IsUnsigned() {
		table = unsignedBranch
	}
	g.E.EmitJump(table[rel], id)
}

// stepAtSize materializes a side-effecting source whose operand size
// disagrees with an assignment of type t: a narrowing assignment must not
// step an autoincrement pointer by the wrong amount.
func (g *Gen) stepAtSize(t ir.Type, src *Operand) (*Operand, error) {
	if (src.Mode == OAutoInc || src.Mode == OAutoDec) && src.Type.Size() != t.Size() {
		return g.materialize(src.Type, src)
	}
	return src, nil
}

// assign stores src into dst (stepAtSize).
func (g *Gen) assign(t ir.Type, src, dst *Operand) error {
	src, err := g.stepAtSize(t, src)
	if err != nil {
		return err
	}
	val := src
	if src.Mode == OImm {
		val = g.Op(*src)
		val.Val = target.TruncImm(src.Val, t)
	}
	g.move(t, val, dst)
	g.RM.Consume(src)
	g.RM.Consume(dst)
	return nil
}

func (g *Gen) emitCall(n *ir.Node) {
	g.E.EmitOps("calls", g.intOp(ir.Long, n.Val), g.symOp(n.Sym))
}

// callResult claims the r0 (or r0/r1) result of a call.
func (g *Gen) callResult(t ir.Type) (*Operand, error) {
	res := g.regOp(t, 0)
	if err := g.RM.AllocSpecific(0, t, res); err != nil {
		return nil, err
	}
	res.Owned = ownedRegs(0, t)
	return res, nil
}

// andOp implements AND with the bit-clear instruction: the VAX has no and,
// so one operand is complemented — at table-construction time for
// constants, with an mcom instruction otherwise. A constant mask is
// complemented in its own descriptor, which is consumed here.
func (g *Gen) andOp(t ir.Type, a, b *Operand) (*Operand, error) {
	if b.Mode == OImm {
		*b = Operand{Mode: OImm, Type: t, Val: ^b.Val}
		return g.binary(bicOps, t, a, b)
	}
	if a.Mode == OImm {
		*a = Operand{Mode: OImm, Type: t, Val: ^a.Val}
		return g.binary(bicOps, t, b, a)
	}
	g.RM.Pin(a)
	mask, err := g.unary(mcomT, t, b)
	if err != nil {
		return nil, err
	}
	g.RM.Unpin()
	return g.binary(bicOps, t, a, mask)
}

// signedMod computes a%b as a-(a/b)*b through an intermediate register.
func (g *Gen) signedMod(t ir.Type, a, b *Operand) (*Operand, error) {
	g.RM.Pin(a)
	g.RM.Pin(b)
	q := g.regOp(t, 0)
	r, err := g.RM.Alloc(t, q)
	if err != nil {
		return nil, err
	}
	q.Reg, q.Owned = r, ownedRegs(r, t)
	g.E.EmitResult(mn(divOps[0].print, t), q, b, a)
	g.E.EmitResult(mn(mulOps[1].print, t), q, b)
	g.E.EmitResult(mn(subOps[0].print, t), q, q, a)
	g.RM.Unpin()
	g.RM.Consume(a)
	g.RM.Consume(b)
	return q, nil
}

// callBuiltin pushes (dividend, divisor) and calls the library routine
// _sym, which preserves every register except r0 — so any value living in
// r0 must be moved out *before* the call. If an operand itself held r0 its
// descriptor is redirected by the evacuation and the pushes pick up the
// new home.
func (g *Gen) callBuiltin(sym string, t ir.Type, a, b *Operand) (*Operand, error) {
	res := g.regOp(t, 0)
	if err := g.RM.AllocSpecific(0, t, res); err != nil {
		return nil, err
	}
	res.Owned = ownedRegs(0, t)
	g.E.EmitOps("pushl", b)
	g.E.EmitOps("pushl", a)
	g.E.EmitOps("calls", g.intOp(ir.Long, 2), g.symOp(sym))
	g.RM.Consume(a)
	g.RM.Consume(b)
	return res, nil
}

// shift emits ashl for left and signed right shifts and extzv for unsigned
// right shifts.
func (g *Gen) shift(t ir.Type, val, cnt *Operand, left bool) (*Operand, error) {
	g.RM.Pin(val)
	g.RM.Pin(cnt)
	dst := g.regOp(t, 0)
	if !left && t.IsUnsigned() {
		// Unsigned right shift: extract a zero-extended field.
		r, err := g.RM.Alloc(ir.Long, dst)
		if err != nil {
			return nil, err
		}
		dst.Reg, dst.Owned = r, target.RegRange(r, 1)
		if cnt.Mode == OImm {
			k := cnt.Val
			if k <= 0 {
				g.E.EmitResult("movl", dst, val)
			} else if k >= 32 {
				g.E.EmitResult("clrl", dst)
			} else {
				g.E.EmitResult("extzv", dst, cnt, g.intOp(ir.Long, 32-k), val)
			}
		} else {
			g.E.EmitOps("subl3", cnt, g.intOp(ir.Long, 32), dst)
			g.E.EmitResult("extzv", dst, cnt, dst, val)
		}
		g.RM.Unpin()
		g.RM.Consume(val)
		g.RM.Consume(cnt)
		return dst, nil
	}
	// ashl cnt,src,dst: negative counts shift right.
	count := cnt
	switch {
	case cnt.Mode == OImm && !left:
		count = g.intOp(ir.Long, -cnt.Val)
	case cnt.Mode != OImm && !left:
		// Negate a variable count through a register.
		neg, err := g.unary(mnegT, ir.Long, cnt)
		if err != nil {
			return nil, err
		}
		cnt, count = neg, neg
		g.RM.Pin(cnt)
	}
	g.RM.Unpin()
	g.RM.Pin(val)
	g.RM.Pin(cnt)
	if r, ok := g.RM.ReclaimAsDest(val, ir.Long, dst); ok {
		dst.Reg = r
	} else {
		r, err := g.RM.Alloc(ir.Long, dst)
		if err != nil {
			return nil, err
		}
		dst.Reg = r
	}
	dst.Owned = target.RegRange(dst.Reg, 1)
	g.E.EmitResult("ashl", dst, count, val)
	g.RM.Unpin()
	g.RM.Consume(val)
	g.RM.Consume(cnt)
	return dst, nil
}

// unary emits a one-source instruction into a (possibly reclaimed)
// register.
func (g *Gen) unary(op *mnem, t ir.Type, src *Operand) (*Operand, error) {
	g.RM.Pin(src)
	defer g.RM.Unpin()
	dst := g.regOp(t, 0)
	if r, ok := g.RM.ReclaimAsDest(src, t, dst); ok {
		dst.Reg = r
	} else {
		r, err := g.RM.Alloc(t, dst)
		if err != nil {
			return nil, err
		}
		dst.Reg = r
	}
	dst.Owned = ownedRegs(dst.Reg, t)
	g.E.EmitResult(mn(op, t), dst, src)
	g.RM.Consume(src)
	return dst, nil
}
