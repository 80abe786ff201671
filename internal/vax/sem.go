package vax

import (
	"fmt"
	"strings"

	"ggcg/internal/cgram"
	"ggcg/internal/ir"
	"ggcg/internal/matcher"
)

// Reduce dispatches a production's semantic action (§5.2, §5.3). The VAX
// description has no semantically qualified productions, so Predicate is
// never consulted.
func (g *Gen) Reduce(p *cgram.Prod, args []matcher.Value) (any, error) {
	if p.Action == "" {
		// Glue: condense the single right-hand-side attribute.
		return args[0].Sem, nil
	}
	base, suffix, _ := strings.Cut(p.Action, ".")
	t := ir.Void
	if s, ok := ir.TypeBySuffix(suffix); ok {
		t = s
	}
	return g.action(base, t, p, args)
}

// Predicate implements matcher.Semantics; the VAX description has no
// semantic qualifications (§6.3 converted the candidates to syntax).
func (g *Gen) Predicate(string, *cgram.Prod, []matcher.Value) bool { return false }

func node(v matcher.Value) *ir.Node { return v.Tok.N }

func opnd(v matcher.Value) (*Operand, error) {
	o, ok := v.Sem.(*Operand)
	if !ok {
		return nil, fmt.Errorf("vax: expected operand attribute, have %T", v.Sem)
	}
	return o, nil
}

func conval(v matcher.Value) (int64, error) {
	c, ok := v.Sem.(int64)
	if !ok {
		return 0, fmt.Errorf("vax: expected constant attribute, have %T", v.Sem)
	}
	return c, nil
}

func (g *Gen) action(base string, t ir.Type, p *cgram.Prod, args []matcher.Value) (any, error) {
	switch base {
	case "con":
		return node(args[0]).Val, nil

	case "imm":
		v, err := conval(args[0])
		if err != nil {
			return nil, err
		}
		return intOp(t, v), nil

	case "fcon":
		return fimmOp(t, node(args[0]).F), nil

	case "dreg", "reguse":
		n := node(args[0])
		return regOp(n.Type, int(n.Val)), nil

	case "abs":
		n := node(args[0])
		return &Operand{Mode: OAbs, Type: n.Type, Sym: n.Sym, Xreg: -1}, nil

	case "addr":
		n := node(args[0])
		dst := &Operand{Mode: OReg, Type: ir.ULong, Xreg: -1}
		r, err := g.RM.Alloc(ir.Long, dst)
		if err != nil {
			return nil, err
		}
		dst.Reg, dst.Owned = r, []int{r}
		g.E.EmitResult("moval", dst, "_"+n.Sym)
		return dst, nil

	case "lea":
		off, err := conval(args[1])
		if err != nil {
			return nil, err
		}
		base := int(node(args[2]).Val)
		dst := &Operand{Mode: OReg, Type: ir.ULong, Xreg: -1}
		r, err := g.RM.Alloc(ir.Long, dst)
		if err != nil {
			return nil, err
		}
		dst.Reg, dst.Owned = r, []int{r}
		g.E.EmitResult("moval", dst, fmt.Sprintf("%d(%s)", off, ir.RegName(base)))
		return dst, nil

	case "load":
		o, err := opnd(args[0])
		if err != nil {
			return nil, err
		}
		return g.materialize(o.Type, o)

	case "mabs", "mabsoff", "mregdef", "mregdefd", "mdisp", "mdispd", "mdispd2",
		"mnx", "mdx", "mdxd", "mrx", "mrxd", "mautoinc", "mautodec":
		return g.memAction(base, t, args)

	case "mbrdxd", "mbrdx", "mbrrxd", "mbrrx", "mbrnx":
		return g.bridgeAction(base, args)

	case "mbraddrd", "mbraddr", "mbrnameadd":
		return g.bridgeAddAction(base, args)

	case "mdef":
		// A pointer fetched from memory addresses the operand: the VAX
		// deferred modes. Already-deferred or indexed inner operands are
		// loaded into a register instead (the hardware has one level).
		inner, err := opnd(args[1])
		if err != nil {
			return nil, err
		}
		indirT := node(args[0]).Type
		switch {
		case !inner.Deferred && inner.Xreg < 0 &&
			(inner.Mode == OAbs || inner.Mode == ODisp || inner.Mode == ORegDef ||
				inner.Mode == OAutoInc || inner.Mode == OAutoDec):
			out := &Operand{}
			*out = *inner
			out.Deferred = true
			out.Type = indirT
			out.Owned = nil
			out.Owned = g.RM.Transfer(inner, out)
			return out, nil
		default:
			r, err := g.materialize(ir.Long, inner)
			if err != nil {
				return nil, err
			}
			out := &Operand{Mode: ORegDef, Type: indirT, Reg: r.Reg, Xreg: -1}
			out.Owned = g.RM.Transfer(r, out)
			return out, nil
		}

	case "asgadd", "asgsub", "asgmul", "asgdiv", "asgor", "asgxor":
		return nil, g.asgOpAction(base, args)

	case "asgneg", "asgcompl":
		dst, err := opnd(args[1])
		if err != nil {
			return nil, err
		}
		src, err := opnd(args[3])
		if err != nil {
			return nil, err
		}
		tmpl := "mneg$"
		if base == "asgcompl" {
			tmpl = "mcom$"
		}
		g.RM.Pin(dst)
		g.E.EmitResult(mn(tmpl, t), dst, src.Asm())
		g.RM.Unpin()
		g.RM.Consume(src)
		g.RM.Consume(dst)
		return nil, nil

	case "add", "mul", "or", "xor", "sub", "rsub", "div", "rdiv", "mod", "rmod", "and":
		return g.binAction(base, args)

	case "lsh", "rlsh", "rsh", "rrsh":
		return g.shiftAction(base, args)

	case "neg", "compl":
		return g.unaryAction(base, args)

	case "cvt":
		src, err := opnd(args[len(args)-1])
		if err != nil {
			return nil, err
		}
		return g.convert(t, src)

	case "retype":
		src, err := opnd(args[1])
		if err != nil {
			return nil, err
		}
		out := &Operand{}
		*out = *src
		out.Type = node(args[0]).Type
		out.Owned = nil
		out.Owned = g.RM.Transfer(src, out)
		return out, nil

	case "call":
		n := node(args[0])
		g.emitCall(n)
		return g.callResult(n.Type)

	case "callstmt", "callv":
		g.emitCall(node(args[0]))
		return nil, nil

	case "asg", "asgn":
		dst, err := opnd(args[1])
		if err != nil {
			return nil, err
		}
		src, err := opnd(args[2])
		if err != nil {
			return nil, err
		}
		return nil, g.assign(t, src, dst)

	case "rasg", "rasgn":
		src, err := opnd(args[1])
		if err != nil {
			return nil, err
		}
		dst, err := opnd(args[2])
		if err != nil {
			return nil, err
		}
		return nil, g.assign(t, src, dst)

	case "asgv", "rasgv", "asgnv", "rasgnv":
		// Assignment as a value: the destination descriptor is reused
		// once as the source of the surrounding computation. The
		// narrowing forms type the result at the destination's width,
		// so a wider context widens it back via a conversion chain.
		di, si := 1, 2
		if base == "rasgv" || base == "rasgnv" {
			di, si = 2, 1
		}
		dst, err := opnd(args[di])
		if err != nil {
			return nil, err
		}
		src, err := opnd(args[si])
		if err != nil {
			return nil, err
		}
		if (src.Mode == OAutoInc || src.Mode == OAutoDec) && src.Type.Size() != t.Size() {
			m, merr := g.materialize(src.Type, src)
			if merr != nil {
				return nil, merr
			}
			src = m
		}
		g.move(t, src, dst)
		g.RM.Consume(src)
		out := &Operand{}
		*out = *dst
		out.Type = t
		out.Owned = nil
		out.Owned = g.RM.Transfer(dst, out)
		return out, nil

	case "asgc":
		dst, err := opnd(args[1])
		if err != nil {
			return nil, err
		}
		n := node(args[2])
		g.emitCall(n)
		g.move(t, regOp(t, 0), dst)
		g.RM.Consume(dst)
		return nil, nil

	case "arg":
		src, err := opnd(args[1])
		if err != nil {
			return nil, err
		}
		if t == ir.Double {
			g.E.Emit("movd", src.Asm(), "-(sp)")
		} else {
			g.E.Emit("pushl", src.Asm())
		}
		g.RM.Consume(src)
		return nil, nil

	case "ret":
		src, err := opnd(args[1])
		if err != nil {
			return nil, err
		}
		g.move(t, src, regOp(t, 0))
		g.RM.Consume(src)
		g.E.Emit("ret")
		return nil, nil

	case "retv":
		g.E.Emit("ret")
		return nil, nil

	case "jump":
		g.E.Emit("jbr", g.label(args[1]))
		return nil, nil

	case "cmpbr":
		a, err := opnd(args[2])
		if err != nil {
			return nil, err
		}
		b, err := opnd(args[3])
		if err != nil {
			return nil, err
		}
		g.E.Emit("cmp"+t.Machine().Suffix(), a.Asm(), b.Asm())
		g.RM.Consume(a)
		g.RM.Consume(b)
		g.branch(node(args[1]), g.label(args[4]))
		return nil, nil

	case "tstbr":
		a, err := opnd(args[2])
		if err != nil {
			return nil, err
		}
		g.E.Emit("tst"+t.Machine().Suffix(), a.Asm())
		g.RM.Consume(a)
		g.branch(node(args[1]), g.label(args[4]))
		return nil, nil

	case "ccbr":
		a, err := opnd(args[2])
		if err != nil {
			return nil, err
		}
		// The register was set by the immediately preceding instruction,
		// which also set the condition codes (§6.1). If overfactoring let
		// a quiet register slip through, fall back to an explicit test.
		if a.Mode != OReg || !g.E.LastSet(a.Reg) {
			g.E.TstBackstops++
			g.E.Emit("tst"+t.Machine().Suffix(), a.Asm())
		}
		g.RM.Consume(a)
		g.branch(node(args[1]), g.label(args[4]))
		return nil, nil

	case "dregbr", "regusebr":
		// Dedicated and phase-1 registers arrive without code having been
		// emitted, so the condition codes do not describe them (§6.2.1).
		n := node(args[2])
		g.E.Emit("tst"+t.Machine().Suffix(), ir.RegName(int(n.Val)))
		g.branch(node(args[1]), g.label(args[4]))
		return nil, nil
	}
	return nil, fmt.Errorf("vax: unknown action %q (production %d: %s)", p.Action, p.Index, p)
}

func (g *Gen) label(v matcher.Value) string {
	return fmt.Sprintf("L%d", g.LabelBase+int(node(v).Val))
}

// branch emits the conditional jump for a Cmp node's relation, using the
// unsigned forms when the comparison type is unsigned.
func (g *Gen) branch(cmp *ir.Node, target string) {
	rel := ir.Rel(cmp.Val)
	table := signedBranch
	if cmp.Type.IsUnsigned() {
		table = unsignedBranch
	}
	g.E.Emit(table[rel], target)
}

// assign stores src into dst, materializing side-effecting sources whose
// operand size disagrees with the destination (a narrowing assignment must
// not step an autoincrement pointer by the wrong amount).
func (g *Gen) assign(t ir.Type, src, dst *Operand) error {
	if (src.Mode == OAutoInc || src.Mode == OAutoDec) && src.Type.Size() != t.Size() {
		m, err := g.materialize(src.Type, src)
		if err != nil {
			return err
		}
		src = m
	}
	val := src
	if src.Mode == OImm {
		narrowed := *src
		narrowed.Val = truncImm(src.Val, t)
		val = &narrowed
	}
	g.move(t, val, dst)
	g.RM.Consume(src)
	g.RM.Consume(dst)
	return nil
}

func truncImm(v int64, t ir.Type) int64 {
	switch t.Size() {
	case 1:
		return int64(int8(v))
	case 2:
		return int64(int16(v))
	}
	return v
}

func (g *Gen) emitCall(n *ir.Node) {
	g.E.Emit("calls", fmt.Sprintf("$%d", n.Val), "_"+n.Sym)
}

// callResult claims the r0 (or r0/r1) result of a call.
func (g *Gen) callResult(t ir.Type) (*Operand, error) {
	res := &Operand{Mode: OReg, Type: t, Reg: 0, Xreg: -1}
	if err := g.RM.AllocSpecific(0, t, res); err != nil {
		return nil, err
	}
	res.Owned = ownedRegs(0, t)
	return res, nil
}

// binAction generates the two-source arithmetic operators. Unsigned
// division and modulus become calls on library functions known not to
// modify any register, and signed modulus is a pseudo-instruction needing
// a register for an intermediate result (§5.3.2).
func (g *Gen) binAction(base string, args []matcher.Value) (any, error) {
	n := node(args[0])
	t := n.Type
	a, err := opnd(args[1])
	if err != nil {
		return nil, err
	}
	b, err := opnd(args[2])
	if err != nil {
		return nil, err
	}
	switch base {
	case "rsub", "rdiv", "rmod":
		// Reverse operators: the first attribute is the right operand.
		a, b = b, a
		base = base[1:]
	}
	switch base {
	case "add":
		return g.binary("add", t, a, b)
	case "sub":
		return g.binary("sub", t, a, b)
	case "mul":
		return g.binary("mul", t, a, b)
	case "or":
		return g.binary("bis", t, a, b)
	case "xor":
		return g.binary("xor", t, a, b)
	case "and":
		return g.andOp(t, a, b)
	case "div":
		if t.IsUnsigned() {
			return g.callBuiltin("_udiv", t, a, b)
		}
		return g.binary("div", t, a, b)
	case "mod":
		if t.IsUnsigned() {
			return g.callBuiltin("_urem", t, a, b)
		}
		return g.signedMod(t, a, b)
	}
	return nil, fmt.Errorf("vax: bad binary action %q", base)
}

// andOp implements AND with the bit-clear instruction: the VAX has no and,
// so one operand is complemented — at table-construction time for
// constants, with an mcom instruction otherwise. A constant mask is
// complemented in its own descriptor: the immediate is consumed here, and
// a fresh descriptor would escape to the heap through the register
// manager.
func (g *Gen) andOp(t ir.Type, a, b *Operand) (*Operand, error) {
	if b.Mode == OImm {
		*b = Operand{Mode: OImm, Type: t, Val: ^b.Val}
		return g.binary("bic", t, a, b)
	}
	if a.Mode == OImm {
		*a = Operand{Mode: OImm, Type: t, Val: ^a.Val}
		return g.binary("bic", t, b, a)
	}
	g.RM.Pin(a)
	mask, err := g.unary("mcom$", t, b)
	if err != nil {
		return nil, err
	}
	g.RM.Unpin()
	return g.binary("bic", t, a, mask)
}

// signedMod computes a%b as a-(a/b)*b through an intermediate register.
func (g *Gen) signedMod(t ir.Type, a, b *Operand) (*Operand, error) {
	g.RM.Pin(a)
	g.RM.Pin(b)
	q := &Operand{Mode: OReg, Type: t, Xreg: -1}
	r, err := g.RM.Alloc(t, q)
	if err != nil {
		return nil, err
	}
	q.Reg, q.Owned = r, ownedRegs(r, t)
	s := t.Machine().Suffix()
	g.E.EmitResult("div"+s+"3", q, b.Asm(), a.Asm())
	g.E.EmitResult("mul"+s+"2", q, b.Asm())
	g.E.EmitResult("sub"+s+"3", q, q.Asm(), a.Asm())
	g.RM.Unpin()
	g.RM.Consume(a)
	g.RM.Consume(b)
	return q, nil
}

// callBuiltin pushes (dividend, divisor) and calls a library routine that
// preserves every register except r0 — so any value living in r0 must be
// moved out *before* the call. If an operand itself held r0 its descriptor
// is redirected by the evacuation and the pushes pick up the new home.
func (g *Gen) callBuiltin(sym string, t ir.Type, a, b *Operand) (*Operand, error) {
	res := &Operand{Mode: OReg, Type: t, Reg: 0, Xreg: -1}
	if err := g.RM.AllocSpecific(0, t, res); err != nil {
		return nil, err
	}
	res.Owned = ownedRegs(0, t)
	g.E.Emit("pushl", b.Asm())
	g.E.Emit("pushl", a.Asm())
	g.E.Emit("calls", "$2", sym)
	g.RM.Consume(a)
	g.RM.Consume(b)
	return res, nil
}

func (g *Gen) shiftAction(base string, args []matcher.Value) (any, error) {
	n := node(args[0])
	t := n.Type
	val, err := opnd(args[1])
	if err != nil {
		return nil, err
	}
	cnt, err := opnd(args[2])
	if err != nil {
		return nil, err
	}
	left := base == "lsh" || base == "rlsh"
	if base == "rlsh" || base == "rrsh" {
		val, cnt = cnt, val
	}
	return g.shift(t, val, cnt, left)
}

// shift emits ashl for left and signed right shifts and extzv for unsigned
// right shifts.
func (g *Gen) shift(t ir.Type, val, cnt *Operand, left bool) (*Operand, error) {
	g.RM.Pin(val)
	g.RM.Pin(cnt)
	s := t.Machine().Suffix()
	_ = s
	dst := &Operand{Mode: OReg, Type: t, Xreg: -1}
	if !left && t.IsUnsigned() {
		// Unsigned right shift: extract a zero-extended field.
		r, err := g.RM.Alloc(ir.Long, dst)
		if err != nil {
			return nil, err
		}
		dst.Reg, dst.Owned = r, []int{r}
		if cnt.Mode == OImm {
			k := cnt.Val
			if k <= 0 {
				g.E.EmitResult("movl", dst, val.Asm())
			} else if k >= 32 {
				g.E.EmitResult("clrl", dst)
			} else {
				g.E.EmitResult("extzv", dst, cnt.Asm(), fmt.Sprintf("$%d", 32-k), val.Asm())
			}
		} else {
			g.E.Emit("subl3", cnt.Asm(), "$32", dst.Asm())
			g.E.EmitResult("extzv", dst, cnt.Asm(), dst.Asm(), val.Asm())
		}
		g.RM.Unpin()
		g.RM.Consume(val)
		g.RM.Consume(cnt)
		return dst, nil
	}
	// ashl cnt,src,dst: negative counts shift right.
	var cntAsm string
	switch {
	case cnt.Mode == OImm && left:
		cntAsm = fmt.Sprintf("$%d", cnt.Val)
	case cnt.Mode == OImm:
		cntAsm = fmt.Sprintf("$%d", -cnt.Val)
	case left:
		cntAsm = cnt.Asm()
	default:
		// Negate a variable count through a register.
		neg, err := g.unary("mneg$", ir.Long, cnt)
		if err != nil {
			return nil, err
		}
		cnt = neg
		g.RM.Pin(cnt)
		cntAsm = cnt.Asm()
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
	dst.Owned = []int{dst.Reg}
	g.E.EmitResult("ashl", dst, cntAsm, val.Asm())
	g.RM.Unpin()
	g.RM.Consume(val)
	g.RM.Consume(cnt)
	return dst, nil
}

func (g *Gen) unaryAction(base string, args []matcher.Value) (any, error) {
	n := node(args[0])
	src, err := opnd(args[1])
	if err != nil {
		return nil, err
	}
	tmpl := "mneg$"
	if base == "compl" {
		tmpl = "mcom$"
	}
	return g.unary(tmpl, n.Type, src)
}

// unary emits a one-source instruction into a (possibly reclaimed)
// register.
func (g *Gen) unary(tmpl string, t ir.Type, src *Operand) (*Operand, error) {
	g.RM.Pin(src)
	defer g.RM.Unpin()
	dst := &Operand{Mode: OReg, Type: t, Xreg: -1}
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
	g.E.EmitResult(mn(tmpl, t), dst, src.Asm())
	g.RM.Consume(src)
	return dst, nil
}

// asgOpAction generates the assignment-destination instruction forms:
// stmt -> Assign lval OP rval rval (Figure 3's three-address instruction
// scheme with the assignment target as destination).
func (g *Gen) asgOpAction(base string, args []matcher.Value) error {
	dst, err := opnd(args[1])
	if err != nil {
		return err
	}
	nt := node(args[2]).Type
	a, err := opnd(args[3])
	if err != nil {
		return err
	}
	b, err := opnd(args[4])
	if err != nil {
		return err
	}
	key := map[string]string{
		"asgadd": "add", "asgsub": "sub", "asgmul": "mul",
		"asgdiv": "div", "asgor": "bis", "asgxor": "xor",
	}[base]
	if key == "div" && nt.IsUnsigned() {
		// Unsigned division is a library-call pseudo-instruction; compute
		// into r0 and store.
		r, err := g.callBuiltin("_udiv", nt, a, b)
		if err != nil {
			return err
		}
		g.move(nt, r, dst)
		g.RM.Consume(r)
		g.RM.Consume(dst)
		return nil
	}
	if err := g.binaryInto(key, nt, a, b, dst); err != nil {
		return err
	}
	g.RM.Consume(dst)
	return nil
}

// bridgeAction implements the bridge productions of §6.2.2: the indexing
// prefix was committed to but the scale is general, so the scaled index is
// computed with an explicit multiply and folded into the base by an add.
func (g *Gen) bridgeAction(base string, args []matcher.Value) (any, error) {
	indir := node(args[0])
	var conIdx, baseIdx, rvIdx int
	switch base {
	case "mbrdxd", "mbrdx":
		conIdx, baseIdx, rvIdx = 3, 4, 6
	default: // mbrrxd, mbrrx, mbrnx
		conIdx, baseIdx, rvIdx = -1, 2, 4
	}
	rv1, err := opnd(args[rvIdx])
	if err != nil {
		return nil, err
	}
	rv2, err := opnd(args[rvIdx+1])
	if err != nil {
		return nil, err
	}
	product, err := g.binary("mul", ir.Long, rv1, rv2)
	if err != nil {
		return nil, err
	}
	// The base: a dedicated register, a computed register, or a symbol.
	var baseOp *Operand
	switch base {
	case "mbrdxd", "mbrrxd":
		baseOp = regOp(ir.Long, int(node(args[baseIdx]).Val))
	case "mbrnx":
		g.RM.Pin(product)
		addr := &Operand{Mode: OReg, Type: ir.Long, Xreg: -1}
		r, err := g.RM.Alloc(ir.Long, addr)
		if err != nil {
			return nil, err
		}
		addr.Reg, addr.Owned = r, []int{r}
		g.E.EmitResult("moval", addr, "_"+node(args[baseIdx]).Sym)
		g.RM.Unpin()
		baseOp = addr
	default:
		baseOp, err = opnd(args[baseIdx])
		if err != nil {
			return nil, err
		}
	}
	sum, err := g.binary("add", ir.Long, product, baseOp)
	if err != nil {
		return nil, err
	}
	out := &Operand{Type: indir.Type, Reg: sum.Reg, Xreg: -1}
	out.Owned = g.RM.Transfer(sum, out)
	if conIdx >= 0 {
		off, err := conval(args[conIdx])
		if err != nil {
			return nil, err
		}
		out.Mode, out.Off = ODisp, off
	} else {
		out.Mode = ORegDef
	}
	return out, nil
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

// bridgeAddAction handles the committed indexing prefix followed by a
// general (unscaled) subtree: the base and the index value are added and
// the displacement survives as d(r).
func (g *Gen) bridgeAddAction(base string, args []matcher.Value) (any, error) {
	indir := node(args[0])
	var off int64
	var baseOp *Operand
	var rvIdx int
	var err error
	switch base {
	case "mbraddrd":
		if off, err = conval(args[3]); err != nil {
			return nil, err
		}
		baseOp = regOp(ir.Long, int(node(args[4]).Val))
		rvIdx = 5
	case "mbraddr":
		if off, err = conval(args[3]); err != nil {
			return nil, err
		}
		if baseOp, err = opnd(args[4]); err != nil {
			return nil, err
		}
		rvIdx = 5
	default: // mbrnameadd: _sym + subtree
		addr := &Operand{Mode: OReg, Type: ir.Long, Xreg: -1}
		r, aerr := g.RM.Alloc(ir.Long, addr)
		if aerr != nil {
			return nil, aerr
		}
		addr.Reg, addr.Owned = r, []int{r}
		g.E.EmitResult("moval", addr, "_"+node(args[2]).Sym)
		baseOp = addr
		rvIdx = 3
	}
	rv, err := opnd(args[rvIdx])
	if err != nil {
		return nil, err
	}
	sum, err := g.binary("add", ir.Long, rv, baseOp)
	if err != nil {
		return nil, err
	}
	out := &Operand{Type: indir.Type, Reg: sum.Reg, Xreg: -1}
	out.Owned = g.RM.Transfer(sum, out)
	if off != 0 || base != "mbrnameadd" {
		out.Mode, out.Off = ODisp, off
	} else {
		out.Mode = ORegDef
	}
	return out, nil
}

// memAction builds the operand descriptor for an addressing-mode pattern:
// the encapsulating reductions of §5.2.
func (g *Gen) memAction(base string, t ir.Type, args []matcher.Value) (any, error) {
	indir := node(args[0])
	out := &Operand{Type: indir.Type, Xreg: -1}
	switch base {
	case "mabs":
		out.Mode, out.Sym = OAbs, node(args[1]).Sym
	case "mabsoff":
		off, err := conval(args[2])
		if err != nil {
			return nil, err
		}
		out.Mode, out.Off, out.Sym = OAbs, off, node(args[3]).Sym
	case "mregdef":
		r, err := g.ensureReg(args[1])
		if err != nil {
			return nil, err
		}
		out.Mode, out.Reg = ORegDef, r.Reg
		out.Owned = g.RM.Transfer(r, out)
	case "mregdefd":
		out.Mode, out.Reg = ORegDef, int(node(args[1]).Val)
	case "mdisp":
		off, err := conval(args[2])
		if err != nil {
			return nil, err
		}
		r, err := g.ensureReg(args[3])
		if err != nil {
			return nil, err
		}
		out.Mode, out.Off, out.Reg = ODisp, off, r.Reg
		out.Owned = g.RM.Transfer(r, out)
	case "mdispd":
		off, err := conval(args[2])
		if err != nil {
			return nil, err
		}
		out.Mode, out.Off, out.Reg = ODisp, off, int(node(args[3]).Val)
	case "mdispd2":
		o1, err := conval(args[2])
		if err != nil {
			return nil, err
		}
		o2, err := conval(args[4])
		if err != nil {
			return nil, err
		}
		out.Mode, out.Off, out.Reg = ODisp, o1+o2, int(node(args[5]).Val)
	case "mnx":
		idx, err := g.ensureReg(args[5])
		if err != nil {
			return nil, err
		}
		out.Mode, out.Sym, out.Xreg = OAbs, node(args[2]).Sym, idx.Reg
		out.Owned = g.RM.Transfer(idx, out)
	case "mdx", "mdxd":
		off, err := conval(args[3])
		if err != nil {
			return nil, err
		}
		idx, err := g.ensureReg(args[7])
		if err != nil {
			return nil, err
		}
		out.Mode, out.Off, out.Xreg = ODisp, off, idx.Reg
		out.Owned = g.RM.Transfer(idx, out)
		if base == "mdx" {
			b, err := g.ensureReg(args[4])
			if err != nil {
				return nil, err
			}
			out.Reg = b.Reg
			out.Owned = append(out.Owned, g.RM.Transfer(b, out)...)
		} else {
			out.Reg = int(node(args[4]).Val)
		}
	case "mrx", "mrxd":
		idx, err := g.ensureReg(args[5])
		if err != nil {
			return nil, err
		}
		out.Mode, out.Xreg = ORegDef, idx.Reg
		out.Owned = g.RM.Transfer(idx, out)
		if base == "mrx" {
			b, err := g.ensureReg(args[2])
			if err != nil {
				return nil, err
			}
			out.Reg = b.Reg
			out.Owned = append(out.Owned, g.RM.Transfer(b, out)...)
		} else {
			out.Reg = int(node(args[2]).Val)
		}
	case "mautoinc":
		out.Mode, out.Reg = OAutoInc, int(node(args[2]).Val)
	case "mautodec":
		out.Mode, out.Reg = OAutoDec, int(node(args[2]).Val)
	default:
		return nil, fmt.Errorf("vax: bad mem action %q", base)
	}
	_ = t
	return out, nil
}
