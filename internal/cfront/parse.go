package cfront

import (
	"sync"

	"ggcg/internal/ir"
	"ggcg/internal/obs"
)

// Compile parses a source file and returns the compilation unit: the forest
// of typed expression trees interspersed with labels that the code
// generators consume.
func Compile(src string) (u *ir.Unit, err error) {
	return CompileObs(src, nil)
}

// CompileObs is Compile with instrumentation: the lexing and parsing
// subphases report spans and counters to the observer (nil disables).
// Nodes are heap-allocated; the returned unit has no arena tie.
func CompileObs(src string, o *obs.Observer) (u *ir.Unit, err error) {
	return CompileArena(src, nil, o)
}

// CompileArena is CompileObs with an explicit node arena: every IR node of
// the returned unit is allocated from a. The caller owns the arena and must
// keep it alive for as long as the unit's trees are in use; after
// a.Reset/a.Release the unit is invalid. A nil arena falls back to per-node
// heap allocation (identical to CompileObs). Lexer tokens and parser state
// are drawn from process-wide pools either way.
func CompileArena(src string, a *ir.Arena, o *obs.Observer) (u *ir.Unit, err error) {
	sp := o.Start("cfront")
	defer sp.End()
	lsp := o.Start("lex")
	tp := tokPool.Get().(*[]token)
	toks, lerr := lexInto(src, (*tp)[:0])
	if toks != nil {
		*tp = toks
	}
	defer func() {
		if cap(*tp) > maxPooledTokens {
			return // a huge unit's slice goes to the collector, not the pool
		}
		clear(*tp) // drop the strings pinning src
		tokPool.Put(tp)
	}()
	lsp.End()
	if lerr != nil {
		return nil, lerr
	}
	o.Count("cfront.tokens", int64(len(toks)))
	psp := o.Start("parse")
	defer psp.End()
	p := acquireParser(toks, a)
	defer releaseParser(p)
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(perr)
			if !ok {
				panic(r)
			}
			u, err = nil, pe.err
		}
	}()
	p.parseUnit()
	o.Count("cfront.funcs", int64(len(p.unit.Funcs)))
	o.Count("cfront.globals", int64(len(p.unit.Globals)))
	return p.unit, nil
}

// tokPool recycles token slices across compiles; lexInto appends into the
// pooled backing array, so steady-state lexing allocates only when a unit
// out-grows every slice seen before. Slices longer than maxPooledTokens
// (2 MiB; corpus.Large(60) lexes to about 4500 tokens) are not pooled.
var tokPool = sync.Pool{New: func() any { return new([]token) }}

const maxPooledTokens = 1 << 16

// parserPool recycles parser state — the globals map, scope maps, symbol
// slab and the bookkeeping slices — across compiles.
var parserPool = sync.Pool{New: func() any {
	return &parser{globals: make(map[string]*symbol, 16)}
}}

func acquireParser(toks []token, a *ir.Arena) *parser {
	p := parserPool.Get().(*parser)
	p.toks, p.a = toks, a
	p.unit = &ir.Unit{}
	p.pos, p.depth = 0, 0
	return p
}

// releaseParser clears everything the parser touched — including leftover
// scopes after a parse panic — and returns it to the pool. The produced
// unit is never pooled: it is the caller's.
func releaseParser(p *parser) {
	clear(p.globals)
	for _, m := range p.scopes {
		clear(m)
		p.scopeFree = append(p.scopeFree, m)
	}
	p.scopes = p.scopes[:0]
	full := p.symChunk[:cap(p.symChunk)]
	clear(full) // drop symbol names/param slices
	p.symChunk = p.symChunk[:0]
	p.toks, p.a, p.unit = nil, nil, nil
	p.fn, p.curFunc = nil, nil
	p.breakLs, p.contLs = p.breakLs[:0], p.contLs[:0]
	p.switches = p.switches[:0]
	p.frameOff, p.nextReg = 0, 0
	parserPool.Put(p)
}

// MustCompile is Compile for known-good sources in tests and examples.
func MustCompile(src string) *ir.Unit {
	u, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return u
}

type parser struct {
	toks  []token
	pos   int
	depth int // current nesting, bounded by maxNesting

	a       *ir.Arena // node arena; nil means heap allocation
	unit    *ir.Unit
	globals map[string]*symbol

	// Pooled allocation state, recycled across compiles.
	scopeFree []map[string]*symbol // cleared scope maps ready for reuse
	symChunk  []symbol             // active symbol slab

	// Per-function state.
	fn       *ir.Func
	scopes   []map[string]*symbol
	frameOff int
	nextReg  int
	breakLs  []int
	contLs   []int
	switches []*switchCtx
	curFunc  *symbol
}

// maxNesting is the nesting budget: how deeply statements and expressions
// may nest, counted together. Every recursive path of the parser passes
// through a counted point, so input past the budget is a LimitError rather
// than a stack overflow. The deepest unit of the corpus, corpus.Large and
// progen seeds 1-2000 nests 21 levels (progen seed 127); C itself only
// guarantees 63 nested parentheses and 127 nested blocks.
const maxNesting = 1000

// nest enters one nesting level; unnest leaves it. A parse error abandons
// the parser, and acquireParser resets the count.
func (p *parser) nest() {
	p.depth++
	if p.depth > maxNesting {
		panic(perr{&LimitError{Line: int(p.peek().line), What: "nesting depth", Limit: maxNesting}})
	}
}

func (p *parser) unnest() { p.depth-- }

// newSymbol hands out a zeroed symbol from the parser's slab. Chunks are
// fixed-capacity so previously returned pointers stay valid when the slab
// grows; retired chunks are garbage-collected with their symbols.
const symChunkLen = 64

func (p *parser) newSymbol() *symbol {
	if len(p.symChunk) == cap(p.symChunk) {
		p.symChunk = make([]symbol, 0, symChunkLen)
	}
	p.symChunk = append(p.symChunk, symbol{})
	return &p.symChunk[len(p.symChunk)-1]
}

// pushScope opens a scope, reusing a cleared map when one is available.
func (p *parser) pushScope() {
	var m map[string]*symbol
	if n := len(p.scopeFree); n > 0 {
		m, p.scopeFree = p.scopeFree[n-1], p.scopeFree[:n-1]
	} else {
		m = make(map[string]*symbol, 8)
	}
	p.scopes = append(p.scopes, m)
}

// popScope closes the innermost scope and recycles its map.
func (p *parser) popScope() {
	n := len(p.scopes) - 1
	m := p.scopes[n]
	p.scopes = p.scopes[:n]
	clear(m)
	p.scopeFree = append(p.scopeFree, m)
}

// switchCtx collects the case labels of an open switch statement; the
// dispatch comparisons are emitted after the body.
type switchCtx struct {
	tempOff  int // frame slot holding the switch value
	cases    []switchCase
	defaultL int // 0 until a default label is seen
	endL     int
}

type switchCase struct {
	value int64
	label int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tEOF {
		p.pos++
	}
	return t
}

// at returns the id of the current token.
func (p *parser) at() tokID { return p.toks[p.pos].id }

// accept consumes the current token if it is the punctuator or keyword id.
func (p *parser) accept(id tokID) bool {
	if p.toks[p.pos].id == id {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(id tokID) {
	if !p.accept(id) {
		p.errf("expected %q, found %q", idText[id], p.peek().String())
	}
}

// typeSpecs maps each type keyword to its base type and to the type
// "unsigned" makes of it, the same type where unsigned cannot apply.
var typeSpecs = [256]struct {
	ok             bool
	base, unsigned ir.Type
}{
	kChar: {true, ir.Byte, ir.UByte}, kShort: {true, ir.Word, ir.UWord},
	kInt: {true, ir.Long, ir.ULong}, kLong: {true, ir.Long, ir.ULong},
	kFloat: {true, ir.Float, ir.Float}, kDouble: {true, ir.Double, ir.Double},
	kVoid: {true, ir.Void, ir.Void},
}

// typeSpec parses a type specifier if one is present.
func (p *parser) typeSpec() (ctype, bool) {
	save := p.pos
	unsigned := p.accept(kUnsigned)
	id := p.at()
	ts := typeSpecs[id]
	if !ts.ok {
		if unsigned {
			// Bare "unsigned" means unsigned int.
			return ctype{base: ir.ULong}, true
		}
		p.pos = save
		return ctype{}, false
	}
	p.pos++
	if id == kLong {
		p.accept(kInt) // "long int"
	}
	if !unsigned {
		return ctype{base: ts.base}, true
	}
	if ts.unsigned == ts.base {
		p.errf("cannot apply unsigned to %v", ts.base)
	}
	return ctype{base: ts.unsigned}, true
}

// declarator parses '*'* ident ('[' n ']')?.
func (p *parser) declarator(base ctype) (name string, t ctype, array int) {
	t = base
	for p.accept('*') {
		t.ptr++
	}
	id := p.advance()
	if id.kind != tIdent {
		p.errf("expected identifier, found %q", id.String())
	}
	if p.accept('[') {
		n := p.advance()
		if n.kind != tInt || n.ival <= 0 {
			p.errf("array size must be a positive integer constant")
		}
		array = int(n.ival)
		p.expect(']')
	}
	return id.text, t, array
}

func (p *parser) parseUnit() {
	for p.peek().kind != tEOF {
		p.topDecl()
	}
}

func (p *parser) topDecl() {
	base, ok := p.typeSpec()
	if !ok {
		p.errf("expected declaration, found %q", p.peek().String())
	}
	// Function or variable?
	name, t, array := p.declarator(base)
	if p.at() == '(' {
		p.function(name, t)
		return
	}
	p.globalVar(name, t, array)
	for p.accept(',') {
		n2, t2, a2 := p.declarator(base)
		p.globalVar(n2, t2, a2)
	}
	p.expect(';')
}

// signedLiteral reads a token that may follow a minus sign, as a global
// initializer or a case label; sign is -1 after a minus and 1 otherwise.
func (p *parser) signedLiteral() (tok token, sign int64) {
	if tok = p.advance(); tok.id == '-' {
		return p.advance(), -1
	}
	return tok, 1
}

func (p *parser) globalVar(name string, t ctype, array int) {
	if t.base == ir.Void && t.ptr == 0 {
		p.errf("void variable %q", name)
	}
	if _, dup := p.globals[name]; dup {
		p.errf("redeclaration of %q", name)
	}
	size := t.size()
	if array > 0 {
		size *= array
	}
	g := ir.Global{Name: name, Type: t.irType(), Size: size}
	if p.accept('=') {
		if array > 0 {
			p.errf("array initializers are not supported")
		}
		tok, sign := p.signedLiteral()
		switch tok.kind {
		case tInt:
			g.Init, g.HasInit = sign*tok.ival, true
		case tFloat:
			g.FInit, g.HasInit = float64(sign)*tok.fval(), true
		default:
			p.errf("global initializer must be a constant")
		}
	}
	p.unit.Globals = append(p.unit.Globals, g)
	s := p.newSymbol()
	*s = symbol{name: name, kind: symGlobal, t: t, array: array}
	p.globals[name] = s
}

func (p *parser) function(name string, result ctype) {
	sym := p.globals[name]
	if sym == nil {
		sym = p.newSymbol()
		*sym = symbol{name: name, kind: symFunc, result: result}
		p.globals[name] = sym
	} else if sym.kind != symFunc {
		p.errf("redeclaration of %q", name)
	}
	p.expect('(')
	var params []symbol
	var ptypes []ctype
	if !p.accept(')') {
		if p.accept(kVoid) {
			p.expect(')')
		} else {
			for {
				base, ok := p.typeSpec()
				if !ok {
					p.errf("expected parameter type")
				}
				pname, pt, arr := p.declarator(base)
				if arr > 0 {
					pt.ptr++ // array parameters decay
				}
				if pt.base == ir.Float && pt.ptr == 0 {
					p.errf("float parameters are received as double (K&R rules); declare parameter %q double", pname)
				}
				params = append(params, symbol{name: pname, t: pt})
				ptypes = append(ptypes, pt)
				if !p.accept(',') {
					p.expect(')')
					break
				}
			}
		}
	}
	if p.accept(';') {
		// Prototype only.
		sym.result, sym.params = result, ptypes
		return
	}
	if sym.defined {
		p.errf("redefinition of %q", name)
	}
	sym.result, sym.params, sym.defined = result, ptypes, true

	p.fn = &ir.Func{Name: name}
	p.curFunc = sym
	p.pushScope()
	p.frameOff = 0
	p.nextReg = 6
	off := 4
	for _, prm := range params {
		s := p.newSymbol()
		*s = symbol{name: prm.name, kind: symParam, t: prm.t, offset: off}
		if prm.t.base == ir.Double && prm.t.ptr == 0 {
			off += 8
		} else {
			off += 4
		}
		p.declare(s)
	}
	p.expect('{')
	p.block()
	// An implicit return for functions that run off the end.
	if n := len(p.fn.Items); n == 0 || p.fn.Items[n-1].Kind != ir.ItemTree ||
		p.fn.Items[n-1].Tree.Op != ir.Ret {
		p.fn.Emit(p.newNode(ir.Ret, ir.Void))
	}
	p.fn.FrameSize = -p.frameOff
	p.unit.Funcs = append(p.unit.Funcs, p.fn)
	p.popScope()
	p.fn, p.curFunc = nil, nil
}

func (p *parser) declare(s *symbol) {
	scope := p.scopes[len(p.scopes)-1]
	if _, dup := scope[s.name]; dup {
		p.errf("redeclaration of %q", s.name)
	}
	scope[s.name] = s
}

func (p *parser) lookup(name string) *symbol {
	for i := len(p.scopes) - 1; i >= 0; i-- {
		if s, ok := p.scopes[i][name]; ok {
			return s
		}
	}
	if s, ok := p.globals[name]; ok {
		return s
	}
	return nil
}

// block parses { ... } with its own scope; the opening brace has been
// consumed.
func (p *parser) block() {
	p.pushScope()
	for !p.accept('}') {
		if p.peek().kind == tEOF {
			p.errf("unexpected end of file in block")
		}
		p.statement()
	}
	p.popScope()
}

// statement parses one statement. Blocks and the bodies of if, loops,
// switch and case labels all recurse through here, so it carries the
// nesting budget.
func (p *parser) statement() {
	p.nest()
	defer p.unnest()
	// Local declarations.
	isReg := p.accept(kRegister)
	if base, ok := p.typeSpec(); ok {
		for {
			p.localDecl(base, isReg)
			if !p.accept(',') {
				break
			}
		}
		p.expect(';')
		return
	}
	if isReg {
		p.errf("register must be followed by a type")
	}
	switch {
	case p.accept(';'):
	case p.accept('{'):
		p.block()
	case p.accept(kIf):
		p.ifStmt()
	case p.accept(kWhile):
		p.whileStmt()
	case p.accept(kDo):
		p.doStmt()
	case p.accept(kFor):
		p.forStmt()
	case p.accept(kSwitch):
		p.switchStmt()
	case p.accept(kCase):
		p.caseLabel()
	case p.accept(kDefault):
		p.defaultLabel()
	case p.accept(kReturn):
		p.returnStmt()
	case p.accept(kBreak):
		p.jumpStmt(p.breakLs, "break")
	case p.accept(kContinue):
		p.jumpStmt(p.contLs, "continue")
	default:
		e := p.expr()
		p.expect(';')
		p.emitExprStmt(e)
	}
}

// jumpStmt emits a break or continue: a jump to the innermost of targets.
func (p *parser) jumpStmt(targets []int, kw string) {
	if len(targets) == 0 {
		p.errf("%s outside loop", kw)
	}
	p.fn.Emit(p.a.Un(ir.Jump, ir.Void, p.a.NewLab(targets[len(targets)-1])))
	p.expect(';')
}

func (p *parser) localDecl(base ctype, isReg bool) {
	name, t, array := p.declarator(base)
	if t.base == ir.Void && t.ptr == 0 {
		p.errf("void variable %q", name)
	}
	var s *symbol
	if isReg {
		if array > 0 || t.isFloat() {
			p.errf("register variable %q must be an integer or pointer scalar", name)
		}
		if p.nextReg > 11 {
			p.errf("out of register variables for %q", name)
		}
		s = p.newSymbol()
		*s = symbol{name: name, kind: symRegVar, t: t, reg: p.nextReg}
		p.nextReg++
	} else {
		size := t.size()
		if array > 0 {
			size *= array
		}
		p.frameOff -= size
		if align := t.size(); align > 1 {
			if r := (-p.frameOff) % align; r != 0 {
				p.frameOff -= align - r
			}
		}
		s = p.newSymbol()
		*s = symbol{name: name, kind: symLocal, t: t, offset: p.frameOff, array: array}
	}
	p.declare(s)
	if p.accept('=') {
		if array > 0 {
			p.errf("array initializers are not supported")
		}
		val := p.assignExpr()
		lv := p.symbolExpr(s)
		p.emitExprStmt(p.buildAssign(lv, val))
	}
}

func (p *parser) ifStmt() {
	p.expect('(')
	cond := p.expr()
	p.expect(')')
	elseL := p.fn.NewLabel()
	p.branchIfFalse(cond, elseL)
	p.statement()
	if p.accept(kElse) {
		endL := p.fn.NewLabel()
		p.fn.Emit(p.a.Un(ir.Jump, ir.Void, p.a.NewLab(endL)))
		p.fn.EmitLabel(elseL)
		p.statement()
		p.fn.EmitLabel(endL)
	} else {
		p.fn.EmitLabel(elseL)
	}
}

// loopBody parses a loop body, with break jumping to brk and continue to
// cont.
func (p *parser) loopBody(brk, cont int) {
	p.breakLs = append(p.breakLs, brk)
	p.contLs = append(p.contLs, cont)
	p.statement()
	p.breakLs = p.breakLs[:len(p.breakLs)-1]
	p.contLs = p.contLs[:len(p.contLs)-1]
}

func (p *parser) whileStmt() {
	top := p.fn.NewLabel()
	end := p.fn.NewLabel()
	p.fn.EmitLabel(top)
	p.expect('(')
	cond := p.expr()
	p.expect(')')
	p.branchIfFalse(cond, end)
	p.loopBody(end, top)
	p.fn.Emit(p.a.Un(ir.Jump, ir.Void, p.a.NewLab(top)))
	p.fn.EmitLabel(end)
}

func (p *parser) doStmt() {
	top := p.fn.NewLabel()
	end := p.fn.NewLabel()
	cont := p.fn.NewLabel()
	p.fn.EmitLabel(top)
	p.loopBody(end, cont)
	p.fn.EmitLabel(cont)
	if !p.accept(kWhile) {
		p.errf("expected while after do body")
	}
	p.expect('(')
	cond := p.expr()
	p.expect(')')
	p.expect(';')
	p.branchIfTrue(cond, top)
	p.fn.EmitLabel(end)
}

func (p *parser) forStmt() {
	p.expect('(')
	if !p.accept(';') {
		p.emitExprStmt(p.expr())
		p.expect(';')
	}
	top := p.fn.NewLabel()
	end := p.fn.NewLabel()
	cont := p.fn.NewLabel()
	p.fn.EmitLabel(top)
	if !p.accept(';') {
		cond := p.expr()
		p.expect(';')
		p.branchIfFalse(cond, end)
	}
	var post *expr
	if !p.accept(')') {
		e := p.expr()
		post = &e
		p.expect(')')
	}
	p.loopBody(end, cont)
	p.fn.EmitLabel(cont)
	if post != nil {
		p.emitExprStmt(*post)
	}
	p.fn.Emit(p.a.Un(ir.Jump, ir.Void, p.a.NewLab(top)))
	p.fn.EmitLabel(end)
}

// switchStmt lowers a switch the way PCC did: the controlling value is
// saved, control jumps to a dispatch block emitted after the body, and the
// dispatch compares against each recorded case label in turn.
func (p *parser) switchStmt() {
	p.expect('(')
	e := p.expr()
	p.expect(')')
	if e.t.isFloat() {
		p.errf("switch requires an integer expression")
	}
	sw := &switchCtx{
		tempOff: p.allocSwitchTemp(),
		endL:    p.fn.NewLabel(),
	}
	lv := expr{lv: p.a.FrameRef(ir.Long, sw.tempOff), t: ctype{base: ir.Long}}
	p.emitExprStmt(p.buildAssign(lv, e))
	dispatchL := p.fn.NewLabel()
	p.fn.Emit(p.a.Un(ir.Jump, ir.Void, p.a.NewLab(dispatchL)))

	p.switches = append(p.switches, sw)
	p.breakLs = append(p.breakLs, sw.endL)
	p.statement()
	p.breakLs = p.breakLs[:len(p.breakLs)-1]
	p.switches = p.switches[:len(p.switches)-1]

	// Falling off the body leaves the switch.
	p.fn.Emit(p.a.Un(ir.Jump, ir.Void, p.a.NewLab(sw.endL)))
	p.fn.EmitLabel(dispatchL)
	read := func() *ir.Node { return p.a.FrameRef(ir.Long, sw.tempOff) }
	for _, c := range sw.cases {
		cond := p.a.Bin(ir.Eq, ir.Long, read(), p.a.SmallConst(c.value))
		p.fn.Emit(p.cbranch(cond, c.label))
	}
	if sw.defaultL != 0 {
		p.fn.Emit(p.a.Un(ir.Jump, ir.Void, p.a.NewLab(sw.defaultL)))
	}
	p.fn.EmitLabel(sw.endL)
}

// allocSwitchTemp reserves a frame slot for a switch value.
func (p *parser) allocSwitchTemp() int {
	p.frameOff -= 4
	if r := (-p.frameOff) % 4; r != 0 {
		p.frameOff -= 4 - r
	}
	return p.frameOff
}

func (p *parser) currentSwitch() *switchCtx {
	if len(p.switches) == 0 {
		p.errf("case label outside switch")
	}
	return p.switches[len(p.switches)-1]
}

func (p *parser) caseLabel() {
	sw := p.currentSwitch()
	tok, sign := p.signedLiteral()
	if tok.kind != tInt {
		p.errf("case label must be an integer constant")
	}
	v := sign * tok.ival
	p.expect(':')
	for _, c := range sw.cases {
		if c.value == v {
			p.errf("duplicate case %d", v)
		}
	}
	l := p.fn.NewLabel()
	sw.cases = append(sw.cases, switchCase{value: v, label: l})
	p.fn.EmitLabel(l)
	p.statement()
}

func (p *parser) defaultLabel() {
	sw := p.currentSwitch()
	p.expect(':')
	if sw.defaultL != 0 {
		p.errf("duplicate default label")
	}
	sw.defaultL = p.fn.NewLabel()
	p.fn.EmitLabel(sw.defaultL)
	p.statement()
}

func (p *parser) returnStmt() {
	if p.accept(';') {
		p.fn.Emit(p.newNode(ir.Ret, ir.Void))
		return
	}
	e := p.expr()
	p.expect(';')
	rt := p.curFunc.result
	if rt.base == ir.Void && rt.ptr == 0 {
		p.errf("value returned from void function")
	}
	n := p.convertValue(e, rt)
	// Integer results come back widened in r0, so the Ret is long-typed
	// and the grammar's conversion chains do the widening.
	retT := rt.irType()
	if retT.IsInteger() {
		if retT.IsUnsigned() {
			retT = ir.ULong
		} else {
			retT = ir.Long
		}
	}
	ret := p.newNode(ir.Ret, retT)
	ret.Kids = p.a.Kids(n)
	p.fn.Emit(ret)
}

// branchIfTrue emits a conditional branch taken when the expression is
// non-zero. Boolean structure (&&, ||, !) is left in the tree for the code
// generator's explicit-control-flow phase to rewrite (§5.1.1).
func (p *parser) branchIfTrue(cond expr, label int) {
	p.fn.Emit(p.cbranch(cond.n, label))
}

func (p *parser) branchIfFalse(cond expr, label int) {
	n := p.a.Un(ir.Not, ir.Long, cond.n)
	p.fn.Emit(p.cbranch(n, label))
}

// newNode returns an arena node with operator and type set.
func (p *parser) newNode(op ir.Op, t ir.Type) *ir.Node {
	n := p.a.New()
	n.Op, n.Type = op, t
	return n
}

// cbranch returns a conditional branch to label on cond.
func (p *parser) cbranch(cond *ir.Node, label int) *ir.Node {
	n := p.a.New()
	n.Op = ir.CBranch
	n.Kids = p.a.Kids(cond, p.a.NewLab(label))
	return n
}

// emitExprStmt emits an expression evaluated for its side effects.
func (p *parser) emitExprStmt(e expr) {
	p.fn.Emit(e.n)
}
