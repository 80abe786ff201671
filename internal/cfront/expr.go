package cfront

import (
	"ggcg/internal/ir"
)

// expr is a parsed, typed expression: an rvalue tree plus, when the
// expression is assignable, the lvalue tree an Assign destination uses
// (a Name, an Indir of an address computation, or a dedicated register).
type expr struct {
	n  *ir.Node
	lv *ir.Node
	t  ctype
}

func rval(n *ir.Node, t ctype) expr                    { return expr{n: n, t: t} }
func lvexpr(lv *ir.Node, t ctype, fetch *ir.Node) expr { return expr{n: fetch, lv: lv, t: t} }

// expr parses a full expression, lowering the comma operator to statement
// sequencing.
func (p *parser) expr() expr {
	e := p.assignExpr()
	for p.accept(',') {
		p.emitExprStmt(e)
		e = p.assignExpr()
	}
	return e
}

// compoundOps maps each compound assignment to its binary operator; every
// other id maps to ir.Nop.
var compoundOps = [256]ir.Op{
	pAddAssign: ir.Plus, pSubAssign: ir.Minus, pMulAssign: ir.Mul,
	pDivAssign: ir.Div, pModAssign: ir.Mod, pAndAssign: ir.And,
	pOrAssign: ir.Or, pXorAssign: ir.Xor, pShlAssign: ir.Lsh, pShrAssign: ir.Rsh,
}

func (p *parser) assignExpr() expr {
	e := p.condExpr()
	id := p.at()
	op := compoundOps[id]
	if id != '=' && op == ir.Nop {
		return e
	}
	p.pos++
	p.nest()
	rhs := p.assignExpr()
	p.unnest()
	if id == '=' {
		return p.buildAssign(e, rhs)
	}
	// a op= b is expanded to a = a op b (§6.5); the address expression
	// is re-evaluated, so it must be side-effect free.
	if e.lv == nil {
		p.errf("left side of %s is not assignable", idText[id])
	}
	read := expr{n: p.a.Clone(e.n), t: e.t}
	return p.buildAssign(e, p.buildBin(op, read, rhs))
}

func (p *parser) condExpr() expr {
	c := p.binExpr(1)
	if !p.accept('?') {
		return c
	}
	p.nest()
	a := p.assignExpr()
	p.expect(':')
	b := p.condExpr()
	p.unnest()
	t := arith(a.t, b.t)
	sel := p.newNode(ir.Select, t.irType())
	sel.Kids = p.a.Kids(c.n, a.n, b.n)
	return rval(sel, t)
}

// binOp is one row of the binary-operator table: how tightly the operator
// binds (0 for ids that are not binary operators), its IR operator, and
// the routine that types, folds and builds the node.
type binOp struct {
	prec  uint8
	op    ir.Op
	build func(p *parser, op ir.Op, a, b expr) expr
}

// binOps is the precedence table, indexed by token id, that drives
// binExpr: C's ten binary levels from || (loosest) to * / % (tightest).
var binOps = [256]binOp{
	pOrOr:   {1, ir.OrOr, (*parser).buildLogical},
	pAndAnd: {2, ir.AndAnd, (*parser).buildLogical},
	'|':     {3, ir.Or, (*parser).buildBin},
	'^':     {4, ir.Xor, (*parser).buildBin},
	'&':     {5, ir.And, (*parser).buildBin},
	pEq:     {6, ir.Eq, (*parser).buildRel},
	pNe:     {6, ir.Ne, (*parser).buildRel},
	'<':     {7, ir.Lt, (*parser).buildRel},
	'>':     {7, ir.Gt, (*parser).buildRel},
	pLe:     {7, ir.Le, (*parser).buildRel},
	pGe:     {7, ir.Ge, (*parser).buildRel},
	pShl:    {8, ir.Lsh, (*parser).buildShift},
	pShr:    {8, ir.Rsh, (*parser).buildShift},
	'+':     {9, ir.Plus, (*parser).buildAdd},
	'-':     {9, ir.Minus, (*parser).buildAdd},
	'*':     {10, ir.Mul, (*parser).buildBin},
	'/':     {10, ir.Div, (*parser).buildBin},
	'%':     {10, ir.Mod, (*parser).buildMod},
}

// binExpr parses a binary expression by precedence climbing: it takes
// every operator binding at least as tightly as minPrec and parses each
// right operand one level tighter, which makes all of them
// left-associative. Nodes are built in the order a recursive-descent
// cascade of one function per level would build them.
func (p *parser) binExpr(minPrec uint8) expr {
	e := p.unaryExpr()
	for {
		b := &binOps[p.at()]
		if b.prec < minPrec {
			return e
		}
		p.pos++
		e = b.build(p, b.op, e, p.binExpr(b.prec+1))
	}
}

// unaryExpr parses a unary expression. Parentheses, casts and unary
// chains all recurse through here, so it carries the nesting budget.
func (p *parser) unaryExpr() expr {
	p.nest()
	defer p.unnest()
	switch id := p.at(); id {
	case kSizeof:
		p.pos++
		return p.sizeofExpr()
	case '(':
		// A cast if the parenthesis opens a type name.
		if typ, isCast := p.tryCast(); isCast {
			e := p.unaryExpr()
			return rval(p.convertValue(e, typ), typ)
		}
	case '-':
		p.pos++
		e := p.unaryExpr()
		if e.n.Op == ir.Const {
			return rval(p.a.SmallConst(-e.n.Val), e.t)
		}
		if e.n.Op == ir.FConst {
			return rval(p.a.NewFConst(e.n.Type, -e.n.F), e.t)
		}
		t := arith(e.t, ctype{base: ir.Long})
		return rval(p.a.Un(ir.Neg, t.irType(), e.n), t)
	case '~':
		p.pos++
		e := p.unaryExpr()
		if e.t.isFloat() || e.t.isPtr() {
			p.errf("~ requires an integer operand")
		}
		t := arith(e.t, ctype{base: ir.Long})
		if e.n.Op == ir.Const {
			return rval(p.a.SmallConst(^e.n.Val), t)
		}
		return rval(p.a.Un(ir.Compl, t.irType(), e.n), t)
	case '!':
		p.pos++
		e := p.unaryExpr()
		return rval(p.a.Un(ir.Not, ir.Long, e.n), ctype{base: ir.Long})
	case '*':
		p.pos++
		e := p.unaryExpr()
		if !e.t.isPtr() {
			p.errf("cannot dereference non-pointer %v", e.t)
		}
		et := e.t.elem()
		lv := p.a.Un(ir.Indir, et.irType(), e.n)
		return lvexpr(lv, et, p.a.Clone(lv))
	case '&':
		p.pos++
		e := p.unaryExpr()
		if e.lv == nil {
			p.errf("cannot take the address of this expression")
		}
		switch e.lv.Op {
		case ir.Name:
			return rval(e.lv, ctype{base: e.t.base, ptr: e.t.ptr + 1})
		case ir.Indir:
			return rval(e.lv.Kids[0], ctype{base: e.t.base, ptr: e.t.ptr + 1})
		}
		p.errf("cannot take the address of a register variable")
	case pInc, pDec:
		p.pos++
		op := ir.PreInc
		if id == pDec {
			op = ir.PreDec
		}
		e := p.unaryExpr()
		return p.buildIncDec(op, e)
	}
	return p.postfixExpr()
}

func (p *parser) sizeofExpr() expr {
	if p.accept('(') {
		if typ, ok := p.typeSpec(); ok {
			for p.accept('*') {
				typ.ptr++
			}
			p.expect(')')
			return rval(p.a.SmallConst(int64(typ.size())), ctype{base: ir.Long})
		}
		e := p.expr()
		p.expect(')')
		return rval(p.a.SmallConst(int64(e.t.size())), ctype{base: ir.Long})
	}
	e := p.unaryExpr()
	return rval(p.a.SmallConst(int64(e.t.size())), ctype{base: ir.Long})
}

// tryCast checks for '(' typename ')' and consumes it if present.
func (p *parser) tryCast() (ctype, bool) {
	save := p.pos
	if !p.accept('(') {
		return ctype{}, false
	}
	typ, ok := p.typeSpec()
	if !ok {
		p.pos = save
		return ctype{}, false
	}
	for p.accept('*') {
		typ.ptr++
	}
	if !p.accept(')') {
		p.pos = save
		return ctype{}, false
	}
	return typ, true
}

func (p *parser) postfixExpr() expr {
	e := p.primary()
	for {
		switch id := p.at(); id {
		case '[':
			p.pos++
			idx := p.expr()
			p.expect(']')
			e = p.buildIndex(e, idx)
		case pInc, pDec:
			p.pos++
			op := ir.PostInc
			if id == pDec {
				op = ir.PostDec
			}
			e = p.buildIncDec(op, e)
		default:
			return e
		}
	}
}

func (p *parser) primary() expr {
	t := p.peek()
	switch t.kind {
	case tInt:
		p.advance()
		if t.text == "u" {
			return rval(p.a.NewConst(ir.ULong, t.ival), ctype{base: ir.ULong})
		}
		return rval(p.a.SmallConst(t.ival), ctype{base: ir.Long})
	case tFloat:
		p.advance()
		if t.text == "f" {
			return rval(p.a.NewFConst(ir.Float, t.fval()), ctype{base: ir.Float})
		}
		return rval(p.a.NewFConst(ir.Double, t.fval()), ctype{base: ir.Double})
	case tIdent:
		p.advance()
		if p.at() == '(' {
			return p.callExpr(t.text)
		}
		s := p.lookup(t.text)
		if s == nil {
			p.errf("undeclared identifier %q", t.text)
		}
		return p.symbolExpr(s)
	case tPunct:
		if t.id == '(' {
			p.advance()
			e := p.expr()
			p.expect(')')
			return e
		}
	}
	p.errf("unexpected %q in expression", t.String())
	panic("unreachable")
}

// symbolExpr builds the reference expression for a declared symbol.
func (p *parser) symbolExpr(s *symbol) expr {
	it := s.t.irType()
	switch s.kind {
	case symGlobal:
		if s.isArray() {
			// Arrays decay to a pointer to their first element; the Name
			// leaf is typed by the element type (cf. the appendix).
			return rval(p.a.NewName(it, s.name), ctype{base: s.t.base, ptr: s.t.ptr + 1})
		}
		lv := p.a.NewName(it, s.name)
		return lvexpr(lv, s.t, p.a.Un(ir.Indir, it, p.a.Clone(lv)))
	case symLocal:
		if s.isArray() {
			return rval(p.a.FrameAddr(s.offset), ctype{base: s.t.base, ptr: s.t.ptr + 1})
		}
		lv := p.a.FrameRef(it, s.offset)
		return lvexpr(lv, s.t, p.a.Clone(lv))
	case symParam:
		lv := p.a.Un(ir.Indir, it,
			p.a.Bin(ir.Plus, ir.Long, p.a.SmallConst(int64(s.offset)), p.a.NewDreg(ir.Long, ir.RegAP)))
		return lvexpr(lv, s.t, p.a.Clone(lv))
	case symRegVar:
		lv := p.a.NewDreg(it, s.reg)
		return lvexpr(lv, s.t, p.a.Clone(lv))
	}
	p.errf("%q is a function, not a value", s.name)
	panic("unreachable")
}

// callExpr parses f(args...). Undeclared functions default to int, as in
// traditional C.
func (p *parser) callExpr(name string) expr {
	s := p.globals[name]
	if s == nil {
		s = &symbol{name: name, kind: symFunc, result: ctype{base: ir.Long}}
		p.globals[name] = s
	}
	if s.kind != symFunc {
		p.errf("%q is not a function", name)
	}
	p.expect('(')
	var args []*ir.Node
	words := 0
	i := 0
	if !p.accept(')') {
		for {
			a := p.assignExpr()
			if s.defined && i < len(s.params) {
				a = rval(p.convertArg(a, s.params[i]), s.params[i])
			} else if a.t.base == ir.Float && a.t.ptr == 0 {
				// Default promotion: float arguments travel as double.
				a = rval(p.a.Un(ir.Conv, ir.Double, a.n), ctype{base: ir.Double})
			}
			if a.t.base == ir.Double && a.t.ptr == 0 {
				words += 2
			} else {
				words++
			}
			args = append(args, a.n)
			i++
			if !p.accept(',') {
				p.expect(')')
				break
			}
		}
	}
	if s.defined && len(s.params) != len(args) {
		p.errf("%q expects %d arguments, got %d", name, len(s.params), len(args))
	}
	rt := s.result
	var nodeT ir.Type
	switch {
	case rt.isPtr():
		nodeT = ir.ULong
	case rt.base.IsFloat():
		nodeT = rt.base
	case rt.base == ir.Void:
		nodeT = ir.Void
	default:
		// Integer results come back widened in r0.
		nodeT = rt.base
		if nodeT.IsUnsigned() {
			nodeT = ir.ULong
		} else {
			nodeT = ir.Long
		}
		rt = ctype{base: nodeT}
	}
	call := p.newNode(ir.Call, nodeT)
	call.Sym, call.Val, call.Kids = name, int64(words), args
	return rval(call, rt)
}

// convertArg applies the conversions for passing a to a parameter of type
// t: floats travel as doubles, integers as longs (widening is syntactic).
func (p *parser) convertArg(a expr, t ctype) *ir.Node {
	if t.base == ir.Double && t.ptr == 0 {
		return p.convertValue(a, ctype{base: ir.Double})
	}
	if t.ptr == 0 && t.base.IsInteger() && a.t.isFloat() {
		return p.convertValue(a, ctype{base: ir.Long})
	}
	return a.n
}

// buildIndex builds a[i] for an array or pointer a. The address tree takes
// the canonical form base + (scale * index) with the scale constant on the
// left, so that scales of 1, 2, 4 and 8 linearize to the special terminals
// the indexed addressing mode patterns need (§6.3).
func (p *parser) buildIndex(a, idx expr) expr {
	if !a.t.isPtr() {
		p.errf("indexed expression is not an array or pointer")
	}
	if idx.t.isFloat() {
		p.errf("array index must be an integer")
	}
	et := a.t.elem()
	addr := p.a.Bin(ir.Plus, ir.Long, a.n, p.scaleIndex(idx.n, et.size()))
	if idx.n.Op == ir.Const {
		// Constant index: fold into a displacement.
		addr = p.a.Bin(ir.Plus, ir.Long, p.a.SmallConst(idx.n.Val*int64(et.size())), a.n)
		if a.n.Op == ir.Const {
			addr = p.a.SmallConst(idx.n.Val*int64(et.size()) + a.n.Val)
		}
	}
	lv := p.a.Un(ir.Indir, et.irType(), addr)
	return lvexpr(lv, et, p.a.Clone(lv))
}

// scaleIndex multiplies an index by an element size, keeping the constant
// as the left child of the Mul.
func (p *parser) scaleIndex(idx *ir.Node, size int) *ir.Node {
	if size == 1 {
		return idx
	}
	if idx.Op == ir.Const {
		return p.a.SmallConst(idx.Val * int64(size))
	}
	return p.a.Bin(ir.Mul, ir.Long, p.a.SmallConst(int64(size)), idx)
}

func (p *parser) buildIncDec(op ir.Op, e expr) expr {
	if e.lv == nil {
		p.errf("operand of ++/-- is not assignable")
	}
	amount := int64(1)
	if e.t.isPtr() {
		amount = int64(e.t.elem().size())
	}
	if e.t.isFloat() {
		p.errf("++/-- on floating operands is not supported")
	}
	n := p.a.Bin(op, e.t.irType(), e.lv, p.a.SmallConst(amount))
	return rval(n, e.t)
}

// buildAdd handles + and -, including pointer arithmetic.
func (p *parser) buildAdd(op ir.Op, a, b expr) expr {
	sub := op == ir.Minus
	switch {
	case a.t.isPtr() && b.t.isPtr():
		if !sub {
			p.errf("cannot add two pointers")
		}
		diff := p.a.Bin(ir.Minus, ir.Long, a.n, b.n)
		size := int64(a.t.elem().size())
		if size == 1 {
			return rval(diff, ctype{base: ir.Long})
		}
		return rval(p.a.Bin(ir.Div, ir.Long, diff, p.a.SmallConst(size)), ctype{base: ir.Long})
	case a.t.isPtr():
		if b.t.isFloat() {
			p.errf("invalid pointer arithmetic")
		}
		return rval(p.a.Bin(op, ir.Long, a.n, p.scaleIndex(b.n, a.t.elem().size())), a.t)
	case b.t.isPtr():
		if sub {
			p.errf("cannot subtract a pointer from an integer")
		}
		return rval(p.a.Bin(op, ir.Long, b.n, p.scaleIndex(a.n, b.t.elem().size())), b.t)
	}
	return p.buildBin(op, a, b)
}

// buildBin builds an arithmetic or bitwise binary node with the usual
// conversions, folding constants (the front ends are assumed to have done
// constant folding, §5.1.2).
func (p *parser) buildBin(op ir.Op, a, b expr) expr {
	t := arith(a.t, b.t)
	if t.isFloat() && (op == ir.And || op == ir.Or || op == ir.Xor || op == ir.Lsh || op == ir.Rsh || op == ir.Mod) {
		p.errf("%v requires integer operands", op)
	}
	if f := p.foldInt(op, t, a.n, b.n); f != nil {
		return rval(f, t)
	}
	return rval(p.a.Bin(op, t.irType(), a.n, b.n), t)
}

// buildMod builds %, which C defines only on integers.
func (p *parser) buildMod(op ir.Op, a, b expr) expr {
	if a.t.isFloat() || b.t.isFloat() {
		p.errf("%% requires integer operands")
	}
	return p.buildBin(op, a, b)
}

// buildShift builds << and >>; the result has the promoted type of the
// left operand.
func (p *parser) buildShift(op ir.Op, a, b expr) expr {
	t := arith(a.t, ctype{base: ir.Long})
	if !a.t.irType().IsUnsigned() {
		t = ctype{base: ir.Long}
	}
	if f := p.foldInt(op, t, a.n, b.n); f != nil {
		return rval(f, t)
	}
	return rval(p.a.Bin(op, t.irType(), a.n, b.n), t)
}

// buildLogical builds && and ||, which the transformation phase later
// rewrites into explicit control flow.
func (p *parser) buildLogical(op ir.Op, a, b expr) expr {
	return rval(p.a.Bin(op, ir.Long, a.n, b.n), ctype{base: ir.Long})
}

// buildRel builds a relational value expression; its type records the
// comparison type.
func (p *parser) buildRel(op ir.Op, a, b expr) expr {
	ct := arith(a.t, b.t)
	if a.t.isPtr() || b.t.isPtr() {
		ct = ctype{base: ir.ULong}
	}
	return rval(p.a.Bin(op, ct.irType(), a.n, b.n), ctype{base: ir.Long})
}

func (p *parser) buildAssign(lhs, rhs expr) expr {
	if lhs.lv == nil {
		p.errf("left side of assignment is not assignable")
	}
	t := lhs.t
	n := p.convertForStore(rhs, t)
	asg := p.a.Bin(ir.Assign, t.irType(), lhs.lv, n)
	return rval(asg, t)
}

// convertForStore converts a value for storing into a location of type t.
// Integer width changes in both directions are syntactic (widening by the
// conversion chain productions, narrowing by the typed move instructions),
// as is int-to-float; float-to-int and double-to-float need explicit
// conversion operators.
func (p *parser) convertForStore(e expr, t ctype) *ir.Node {
	if t.isFloat() {
		if t.base == ir.Float && e.t.base == ir.Double && !e.t.isPtr() {
			return p.a.Un(ir.Conv, ir.Float, e.n)
		}
		return e.n
	}
	if e.t.isFloat() {
		return p.a.Un(ir.Conv, t.irType(), e.n)
	}
	return e.n
}

// convertValue converts for value contexts (casts, returns, promoted
// arguments): everything the grammar cannot widen syntactically becomes an
// explicit conversion operator.
func (p *parser) convertValue(e expr, t ctype) *ir.Node {
	src, dst := e.t, t
	if src.irType() == dst.irType() {
		return e.n
	}
	if dst.isPtr() || src.isPtr() {
		return e.n // pointer casts are free
	}
	sb, db := src.base, dst.base
	switch {
	case db.IsFloat() && sb.IsFloat():
		if db == ir.Float && sb == ir.Double {
			return p.a.Un(ir.Conv, ir.Float, e.n)
		}
		return e.n // float widening is a chain production
	case db.IsFloat():
		return e.n // int to float is a chain production
	case sb.IsFloat():
		return p.a.Un(ir.Conv, db, e.n)
	default:
		if db.Size() < sb.Size() || db.Size() == sb.Size() && db.IsUnsigned() != sb.IsUnsigned() {
			if e.n.Op == ir.Const {
				return p.a.NewConst(db, extendConst(e.n.Val, db))
			}
			return p.a.Un(ir.Conv, db, e.n)
		}
		return e.n // integer widening is a chain production
	}
}

func extendConst(v int64, t ir.Type) int64 {
	switch t.Size() {
	case 1:
		if t.IsUnsigned() {
			return int64(uint8(v))
		}
		return int64(int8(v))
	case 2:
		if t.IsUnsigned() {
			return int64(uint16(v))
		}
		return int64(int16(v))
	default:
		if t.IsUnsigned() {
			return int64(uint32(v))
		}
		return int64(int32(v))
	}
}

// foldInt folds integer binary operations over constants.
func (p *parser) foldInt(op ir.Op, t ctype, a, b *ir.Node) *ir.Node {
	if a.Op != ir.Const || b.Op != ir.Const || t.isFloat() || t.isPtr() {
		return nil
	}
	x, y := a.Val, b.Val
	var v int64
	switch op {
	case ir.Plus:
		v = x + y
	case ir.Minus:
		v = x - y
	case ir.Mul:
		v = x * y
	case ir.And:
		v = x & y
	case ir.Or:
		v = x | y
	case ir.Xor:
		v = x ^ y
	case ir.Lsh:
		if y < 0 || y >= 32 {
			return nil
		}
		v = x << uint(y)
	default:
		return nil
	}
	if t.base.IsUnsigned() {
		return p.a.NewConst(ir.ULong, int64(uint32(v)))
	}
	return p.a.SmallConst(extendConst(v, ir.Long))
}
