package risc

import (
	"ggcg/internal/cgram"
	"ggcg/internal/ir"
	"ggcg/internal/matcher"
	"ggcg/internal/target"
)

// routine is a RISC semantic routine.
type routine = target.Routine[*Gen]

// routineTable holds the RISC semantic routines, keyed by the action names
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

	// Addressing patterns: the encapsulating reductions of §5.2, reduced
	// to the load/store forms.
	"mabs":     mem(memMode{sym: 1}),
	"mabsoff":  mem(memMode{off: 2, sym: 3}),
	"mregdef":  mem(memMode{base: 1}),
	"mregdefd": mem(memMode{dreg: 1}),
	"mdisp":    mem(memMode{off: 2, base: 3}),
	"mdispd":   mem(memMode{off: 2, dreg: 3}),
	"mautoinc": mem(memMode{dreg: 2, auto: 1}),
	"mautodec": mem(memMode{dreg: 2, auto: -1}),

	// Operators over the operator node's type; the reverse forms take
	// their first attribute as the right operand.
	"add":   arith(addOp, false),
	"sub":   arith(subOp, false),
	"rsub":  arith(subOp, true),
	"mul":   arith(mulOp, false),
	"div":   arith(divOp, false),
	"rdiv":  arith(divOp, true),
	"mod":   arith(modOp, false),
	"rmod":  arith(modOp, true),
	"and":   arith(andOp, false),
	"or":    arith(orOp, false),
	"xor":   arith(xorOp, false),
	"lsh":   arith(lshOp, false),
	"rlsh":  arith(lshOp, true),
	"rsh":   arith(rshOp, false),
	"rrsh":  arith(rshOp, true),
	"neg":   unaryOp(negOp),
	"compl": unaryOp(notOp),

	// Assignments: to a destination and as a value.
	"asg":    assignTo(1, 2),
	"asgn":   assignTo(1, 2),
	"rasg":   assignTo(2, 1),
	"rasgn":  assignTo(2, 1),
	"asgv":   assignValue(1, 2),
	"asgnv":  assignValue(1, 2),
	"rasgv":  assignValue(2, 1),
	"rasgnv": assignValue(2, 1),

	// Calls, returns, jumps and the compare-and-branch.
	"call":     (*Gen).call,
	"callstmt": (*Gen).callStmt,
	"callv":    (*Gen).callStmt,
	"arg":      (*Gen).arg,
	"ret":      (*Gen).ret,
	"retv":     (*Gen).retv,
	"jump":     (*Gen).jump,
	"cmpbr":    (*Gen).cmpbr,
}

// routines binds each production of the RISC description to its routine
// when the description loads (desc).
var routines = target.NewRoutines(routineTable)

// Reduce runs the semantic routine bound to p.
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
	return g.Op(Operand{Mode: OLoc, Type: n.Type, Sym: n.Sym, Base: -1}), nil
}

// symOp returns the absolute location _sym.
func (g *Gen) symOp(sym string) *Operand {
	return g.Op(Operand{Mode: OLoc, Type: ir.Long, Sym: sym, Base: -1})
}

func (g *Gen) addr(_ ir.Type, args []matcher.Value) (any, error) {
	dst, err := g.allocReg(ir.ULong)
	if err != nil {
		return nil, err
	}
	g.E.EmitResultFirst("la", dst, g.symOp(target.Node(args[0]).Sym))
	return dst, nil
}

// lea takes the address off(r) with la, the displacement written out even
// when it is zero.
func (g *Gen) lea(_ ir.Type, args []matcher.Value) (any, error) {
	off, err := target.Const(args[1])
	if err != nil {
		return nil, err
	}
	dst, err := g.allocReg(ir.ULong)
	if err != nil {
		return nil, err
	}
	g.E.Begin("la")
	g.E.Arg(dst)
	g.E.ArgDisp(off, int(target.Node(args[2]).Val))
	g.E.EndResult(dst)
	return dst, nil
}

func (g *Gen) load(_ ir.Type, args []matcher.Value) (any, error) {
	o, err := opnd(args[0])
	if err != nil {
		return nil, err
	}
	return g.valueReg(o)
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

// memMode is an addressing pattern: the positions of its parts (0 where
// it has none; position 0 is the Indir) — a constant displacement off,
// the Name sym of an absolute location, a computed base register base or
// a dedicated one dreg — and auto, +1 for postincrement and -1 for
// predecrement.
type memMode struct {
	off, sym, base, dreg, auto int
}

// mem returns the routine of an addressing pattern: the location
// descriptor it condenses into, typed by its Indir.
func mem(m memMode) routine {
	return func(g *Gen, _ ir.Type, args []matcher.Value) (any, error) {
		indir := target.Node(args[0])
		out := g.Op(Operand{Mode: OLoc, Type: indir.Type, Base: -1})
		if m.off > 0 {
			off, err := target.Const(args[m.off])
			if err != nil {
				return nil, err
			}
			out.Off = off
		}
		if m.sym > 0 {
			out.Sym = target.Node(args[m.sym]).Sym
		}
		if m.dreg > 0 {
			out.Base = int(target.Node(args[m.dreg]).Val)
		}
		if m.base > 0 {
			r, err := g.ensureReg(args[m.base])
			if err != nil {
				return nil, err
			}
			out.Base = r.Reg
			out.Owned = g.RM.Transfer(r, out)
		}
		if m.auto != 0 {
			out.Auto, out.Step = m.auto, int64(indir.Type.Size())
		}
		return out, nil
	}
}

// ensureReg forces a reg.l attribute to actually be a register: the
// conversion chains can deliver a retyped immediate where an address
// base register is required.
func (g *Gen) ensureReg(v matcher.Value) (*Operand, error) {
	o, err := opnd(v)
	if err != nil {
		return nil, err
	}
	if o.Mode == OReg {
		return o, nil
	}
	return g.valueReg(o)
}

// arith returns the routine of a three-register operator over the
// operator node's type, with its sources swapped for a reverse operator.
func arith(op *operator, reverse bool) routine {
	return func(g *Gen, _ ir.Type, args []matcher.Value) (any, error) {
		a, b, err := opnds(args, 1, 2)
		if err != nil {
			return nil, err
		}
		if reverse {
			a, b = b, a
		}
		return g.op3(op, target.Node(args[0]).Type, a, b)
	}
}

// unaryOp returns the routine of a one-source operator over the operator
// node's type.
func unaryOp(op *operator) routine {
	return func(g *Gen, _ ir.Type, args []matcher.Value) (any, error) {
		src, err := opnd(args[1])
		if err != nil {
			return nil, err
		}
		return g.op2(op, target.Node(args[0]).Type, src)
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

// assignValue returns the routine of an assignment used as a value.
func assignValue(dst, src int) routine {
	return func(g *Gen, t ir.Type, args []matcher.Value) (any, error) {
		d, s, err := opnds(args, dst, src)
		if err != nil {
			return nil, err
		}
		return g.assignValue(t, s, d)
	}
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
	push := "push"
	if t == ir.Double {
		push = "pushd"
	}
	g.E.EmitOps(push, src)
	g.RM.Consume(src)
	return nil, nil
}

func (g *Gen) ret(t ir.Type, args []matcher.Value) (any, error) {
	src, err := opnd(args[1])
	if err != nil {
		return nil, err
	}
	if err := g.move(t, src, g.regOp(t, 0)); err != nil {
		return nil, err
	}
	g.RM.Consume(src)
	g.E.Emit("ret")
	return nil, nil
}

func (g *Gen) retv(ir.Type, []matcher.Value) (any, error) {
	g.E.Emit("ret")
	return nil, nil
}

func (g *Gen) jump(_ ir.Type, args []matcher.Value) (any, error) {
	g.E.EmitJump("jmp", g.LabelID(args[1]))
	return nil, nil
}

// cmpbr generates the compare-and-branch statement.
func (g *Gen) cmpbr(_ ir.Type, args []matcher.Value) (any, error) {
	a, b, err := opnds(args, 2, 3)
	if err != nil {
		return nil, err
	}
	g.RM.Pin(a)
	g.RM.Pin(b)
	av, err := g.valueReg(a)
	if err != nil {
		return nil, err
	}
	g.RM.Pin(av)
	g.RM.Pin(b)
	bv, err := g.valueReg(b)
	if err != nil {
		return nil, err
	}
	g.RM.Unpin()
	cmp := target.Node(args[1])
	g.E.EmitJump(branchMns[cmp.Val][cmp.Type], g.LabelID(args[4]), ir.RegName(av.Reg), ir.RegName(bv.Reg))
	g.RM.Consume(av)
	g.RM.Consume(bv)
	return nil, nil
}
