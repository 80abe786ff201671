// Package transform implements the first phase of the code generator: the
// tree transformations of §5.1 of the paper, which rewrite each expression
// tree so that instruction selection by the pattern matcher becomes
// possible and profitable.
//
// Phase 1a makes implicit control flow explicit: short-circuit operators,
// selection (?:) operators and truth values of comparisons are rewritten
// into tests, jumps and assignments; function calls are factored out of
// expressions and replaced by compiler temporaries (§5.1.1). Phase 1b
// expands operators the VAX lacks and canonicalizes commutative operands —
// left shifts by constants become multiplications, subtraction of a
// constant becomes addition, and constant children of additions are forced
// to the left (§5.1.2). Phase 1c reorders operand evaluation so the more
// complicated subtree is evaluated first, introducing reverse binary
// operators for non-commutative operators whose operands were exchanged
// (§5.1.3).
//
// Truth-value and selection temporaries are allocated in registers by a
// register manager that is disjoint from the one in the instruction
// generation phase; its assignments are communicated through special
// register-transfer trees (Assign to a Dreg, uses as RegUse leaves) that
// the machine grammar matches with dedicated productions (§5.3.3).
package transform

import (
	"fmt"
	"sync"

	"ggcg/internal/ir"
)

// Options configures the transformation phase.
type Options struct {
	// NoReverseOps disables the reverse binary operators of §5.1.3; used
	// by the E4 experiment to measure their cost and benefit.
	NoReverseOps bool
}

// Unit transforms every function of a unit, returning a new unit that
// shares the globals. Replacement nodes are heap-allocated.
func Unit(u *ir.Unit, opt Options) (*ir.Unit, error) {
	return UnitArena(u, opt, nil)
}

// UnitArena is Unit with an explicit arena for replacement nodes and the
// output function bodies. The output trees alias both the arena and the
// input unit (leaves the rewrite leaves untouched are shared), so the
// caller must keep a and the input unit's own allocation alive until the
// output is consumed. A nil arena heap-allocates.
func UnitArena(u *ir.Unit, opt Options, a *ir.Arena) (*ir.Unit, error) {
	out := &ir.Unit{Globals: u.Globals, Funcs: make([]*ir.Func, 0, len(u.Funcs))}
	p := AcquirePass()
	defer p.Release()
	for _, f := range u.Funcs {
		h, err := p.Func(f, opt, a)
		if err != nil {
			return nil, err
		}
		nf := new(ir.Func)
		*nf = *h.Func
		nf.Items = a.Items(h.Func.Items)
		out.Funcs = append(out.Funcs, nf)
	}
	return out, nil
}

// Stats counts transformation work, reported by the E4 experiment.
type Stats struct {
	Swapped  int // commutative operand exchanges performed by phase 1c
	Reversed int // reverse operators introduced by phase 1c
}

// Marks are the phase-1 registers that become busy before an item (First)
// and free after it (Last).
type Marks struct{ First, Last ir.RegSet }

// Handoff is what phase 1 hands phase 3 for one function, so that phase 3
// never walks a tree to learn it (§5.1, §5.3.3): the rewritten body, whose
// MaxLabel is the largest label it defines or jumps to; per item, the
// registers phase 1 assigned across statements — the paper's "special
// trees specifying which registers it assigned, as well as a use count";
// and the work phase 1c did.
type Handoff struct {
	Func  *ir.Func
	Marks []Marks // one per item of Func
	Stats Stats
}

// Pass is phase 1's per-function state — the rewrite context, the output
// function and its body, the register spans and the marks — reused from
// one function to the next, so transforming a function in steady state
// allocates nothing beyond the arena. A Handoff is valid until the pass
// transforms another function or is released. A Pass is single-owner.
type Pass struct {
	c     ctx
	out   ir.Func
	marks []Marks
}

// passPool recycles passes across compilations.
var passPool = sync.Pool{New: func() any { return new(Pass) }}

// maxPooledItems bounds the body a pooled pass keeps (384 KiB of items),
// so one huge function does not pin its buffers in the pool.
const maxPooledItems = 1 << 14

// AcquirePass returns an idle pass from the process-wide pool.
func AcquirePass() *Pass { return passPool.Get().(*Pass) }

// Release drops every tree the pass refers to and returns it to the pool;
// no Handoff it returned may be used afterwards.
func (p *Pass) Release() {
	items := p.out.Items
	if cap(items) > maxPooledItems {
		items, p.marks = nil, nil
	}
	clear(items[:cap(items)])
	p.out = ir.Func{Items: items[:0]}
	p.c = ctx{spans: p.c.spans[:0]}
	passPool.Put(p)
}

// Func transforms f, drawing replacement nodes from a (nil falls back to
// the heap). Output trees may alias input trees: untouched subtrees are
// shared, not copied. A tree that jumps to a label above f's labels (its
// MaxLabel and its label items) is an error.
func (p *Pass) Func(f *ir.Func, opt Options, a *ir.Arena) (Handoff, error) {
	maxLabel := f.MaxLabel()
	for _, it := range f.Items {
		if it.Kind == ir.ItemLabel && it.Label > maxLabel {
			maxLabel = it.Label
		}
	}
	p.out = ir.Func{Name: f.Name, FrameSize: f.TotalFrame(), Items: p.out.Items[:0]}
	p.out.SetLabelBase(maxLabel)
	p.c = ctx{f: &p.out, opt: opt, a: a, maxLabel: maxLabel, spans: p.c.spans[:0]}
	for _, it := range f.Items {
		if it.Kind == ir.ItemLabel {
			p.out.EmitLabel(it.Label)
			continue
		}
		if err := p.c.stmt(it.Tree); err != nil {
			return Handoff{}, fmt.Errorf("transform: %s: %v (tree %s)", f.Name, err, it.Tree)
		}
	}
	return Handoff{Func: &p.out, Marks: p.mark(), Stats: p.c.stats}, nil
}

// mark turns the recorded register spans into per-item marks, in a slice
// sized once per function. Allocatable registers that hand-built input
// names outside any recorded span get a conservative span from the first
// to the last item mentioning them.
func (p *Pass) mark() []Marks {
	n := len(p.out.Items)
	if cap(p.marks) < n {
		p.marks = make([]Marks, n)
	}
	marks := p.marks[:n]
	clear(marks)
	set := func(i int, r ir.RegSet, last bool) {
		switch {
		case i < 0 || i >= n:
		case last:
			marks[i].Last |= r
		default:
			marks[i].First |= r
		}
	}
	var recorded ir.RegSet
	for _, sp := range p.c.spans {
		r := ir.RegRange(sp.reg, 1)
		recorded |= r
		set(sp.first, r, false)
		set(sp.last, r, true)
	}
	if p.c.named&^recorded == 0 {
		return marks
	}
	// lo and hi are the first and last items mentioning an unrecorded
	// register, plus one (zero: none).
	var lo, hi [ir.NAllocatable]int
	for i, it := range p.out.Items {
		if it.Kind != ir.ItemTree {
			continue
		}
		it.Tree.Walk(func(m *ir.Node) bool {
			if (m.Op == ir.Dreg || m.Op == ir.RegUse) && m.Val >= 0 && m.Val < ir.NAllocatable && !recorded.Has(int(m.Val)) {
				r := int(m.Val)
				if lo[r] == 0 {
					lo[r] = i + 1
				}
				hi[r] = i + 1
			}
			return true
		})
	}
	for r := range lo {
		if lo[r] > 0 {
			set(lo[r]-1, ir.RegRange(r, 1), false)
			set(hi[r]-1, ir.RegRange(r, 1), true)
		}
	}
	return marks
}

type ctx struct {
	f     *ir.Func
	opt   Options
	a     *ir.Arena // replacement-node arena; nil means heap allocation
	stats Stats

	// maxLabel is the input function's largest label; named collects the
	// allocatable registers its trees mention (hand-built input only).
	maxLabel int
	named    ir.RegSet

	// Phase-1 register allocation for truth values and selections: taken
	// from the top of the allocatable bank (r5 downward) so they rarely
	// collide with the instruction generator's allocations (r0 upward).
	// Each allocation's item span is recorded in the output function so
	// the third phase's register manager can model it precisely.
	regBusy  [ir.NAllocatable]bool
	regStart [ir.NAllocatable]int
	spans    []regSpan

	// stmtHasCall is true while rewriting a statement that contains a
	// call anywhere: calls clobber the allocatable registers, so truth
	// values and selections then live in memory temporaries instead.
	stmtHasCall bool
}

// allocP1Reg grabs a phase-1 register, or -1 if none is free (the caller
// then falls back to a memory temporary). Only r4 and r5 are eligible, so
// the instruction generator always keeps most of the bank.
func (c *ctx) allocP1Reg() int {
	for r := ir.NAllocatable - 1; r >= ir.NAllocatable-2; r-- {
		if !c.regBusy[r] {
			c.regBusy[r] = true
			c.regStart[r] = len(c.f.Items)
			return r
		}
	}
	return -1
}

// regSpan is a phase-1 register's live range over item indexes
// (inclusive). Spans of the same register never overlap.
type regSpan struct{ reg, first, last int }

// freeP1Regs closes the spans of every live phase-1 register at the end of
// the statement that consumed them.
func (c *ctx) freeP1Regs() {
	for r := 0; r < ir.NAllocatable; r++ {
		if c.regBusy[r] {
			c.spans = append(c.spans, regSpan{reg: r, first: c.regStart[r], last: len(c.f.Items) - 1})
		}
	}
	c.regBusy = [ir.NAllocatable]bool{}
}

// emit appends a finished statement tree.
func (c *ctx) emit(n *ir.Node) { c.f.Emit(n) }

// newNode returns an arena node with operator and type set.
func (c *ctx) newNode(op ir.Op, t ir.Type) *ir.Node {
	n := c.a.New()
	n.Op, n.Type = op, t
	return n
}

// stmt rewrites one statement tree, emitting one or more statements.
func (c *ctx) stmt(n *ir.Node) error {
	defer c.freeP1Regs()
	c.stmtHasCall = false
	if err := c.scan(n); err != nil {
		return err
	}
	switch n.Op {
	case ir.Jump:
		c.emit(n)
		return nil

	case ir.CBranch:
		return c.branchTrue(n.Kids[0], int(n.Kids[1].Val))

	case ir.Ret:
		if len(n.Kids) == 0 || n.Type == ir.Void {
			c.emit(c.newNode(ir.Ret, ir.Void))
			return nil
		}
		k := n.Kids[0]
		if k.Op == ir.Call {
			// The call's result register is the return register; emit the
			// call and return directly (§5.1.1).
			leaf, err := c.lowerCallToLeaf(k)
			if err != nil {
				return err
			}
			ret := c.newNode(ir.Ret, n.Type)
			ret.Kids = c.a.Kids(leaf)
			c.emit(ret)
			return nil
		}
		v, err := c.value(k, 0)
		if err != nil {
			return err
		}
		ret := c.newNode(ir.Ret, n.Type)
		ret.Kids = c.a.Kids(c.order(c.canon(v)))
		c.emit(ret)
		return nil

	case ir.Arg:
		v, err := c.value(n.Kids[0], 0)
		if err != nil {
			return err
		}
		c.emit(c.a.Un(ir.Arg, n.Type, c.order(c.canon(v))))
		return nil

	case ir.Call:
		// A call whose result is discarded.
		leaf, err := c.lowerCallToLeaf(n)
		if err != nil {
			return err
		}
		c.emit(leaf)
		return nil

	case ir.Assign:
		return c.assignStmt(n)

	case ir.PostInc, ir.PostDec, ir.PreInc, ir.PreDec:
		// Value unused: plain read-modify-write.
		return c.incDecStmt(n)

	default:
		// An expression statement evaluated for side effects; after
		// rewriting, the remaining tree is dropped unless it still
		// contains stores or calls.
		v, err := c.value(n, 0)
		if err != nil {
			return err
		}
		if hasSideEffects(v) {
			c.emit(c.order(c.canon(v)))
		}
		return nil
	}
}

// scan visits every node of an input statement once, before it is
// rewritten. It notes whether the statement calls (calls clobber the
// allocatable registers) and which allocatable registers hand-built trees
// name, and rejects a jump to a label above the function's labels.
func (c *ctx) scan(n *ir.Node) error {
	switch n.Op {
	case ir.Call:
		c.stmtHasCall = true
	case ir.Lab:
		if n.Val > int64(c.maxLabel) {
			return fmt.Errorf("jump to undefined label L%d", n.Val)
		}
	case ir.Dreg, ir.RegUse:
		if n.Val >= 0 && n.Val < ir.NAllocatable {
			c.named |= ir.RegRange(int(n.Val), 1)
		}
	}
	for _, k := range n.Kids {
		if err := c.scan(k); err != nil {
			return err
		}
	}
	return nil
}

// hasSideEffects reports whether a rewritten tree still changes state.
func hasSideEffects(n *ir.Node) bool {
	found := false
	n.Walk(func(m *ir.Node) bool {
		switch m.Op {
		case ir.Assign, ir.RAssign, ir.Call, ir.PostInc, ir.PostDec, ir.PreInc, ir.PreDec:
			found = true
			return false
		}
		return true
	})
	return found
}

func (c *ctx) assignStmt(n *ir.Node) error {
	dst, src := n.Kids[0], n.Kids[1]
	// Direct assignment of a call result to a simple location keeps the
	// call in place; anything else is factored through a temporary.
	if src.Op == ir.Call && isSimpleLval(dst) {
		leaf, err := c.lowerCallToLeaf(src)
		if err != nil {
			return err
		}
		d, err := c.lvalue(dst)
		if err != nil {
			return err
		}
		c.emit(c.a.Bin(ir.Assign, n.Type, c.canon(d), leaf))
		return nil
	}
	d, err := c.lvalue(dst)
	if err != nil {
		return err
	}
	s, err := c.value(src, 0)
	if err != nil {
		return err
	}
	asg := c.a.Bin(ir.Assign, n.Type, d, s)
	c.emit(c.order(c.canon(asg)))
	return nil
}

// isSimpleLval reports whether an assignment destination needs no
// registers to address, so a call may be stored to it directly.
func isSimpleLval(n *ir.Node) bool {
	switch n.Op {
	case ir.Name, ir.Dreg:
		return true
	case ir.Indir:
		a := n.Kids[0]
		if a.Op == ir.Name {
			return true
		}
		if a.Op == ir.Plus && a.Kids[0].Op == ir.Const && a.Kids[1].Op == ir.Dreg {
			return true
		}
	}
	return false
}

// lvalue rewrites an assignment destination, hoisting side effects out of
// its address computation.
func (c *ctx) lvalue(n *ir.Node) (*ir.Node, error) {
	switch n.Op {
	case ir.Name, ir.Dreg:
		return n, nil
	case ir.Indir:
		a, err := c.value(n.Kids[0], 0)
		if err != nil {
			return nil, err
		}
		return c.a.Un(ir.Indir, n.Type, a), nil
	}
	return nil, fmt.Errorf("bad assignment destination %v", n.Op)
}

func (c *ctx) incDecStmt(n *ir.Node) error {
	lv, err := c.lvalue(n.Kids[0])
	if err != nil {
		return err
	}
	read := c.readOf(lv)
	amt := n.Kids[1]
	op := ir.Plus
	if n.Op == ir.PostDec || n.Op == ir.PreDec {
		op = ir.Minus
	}
	asg := c.a.Bin(ir.Assign, n.Type, c.a.Clone(lv), c.a.Bin(op, n.Type, read, amt))
	c.emit(c.order(c.canon(asg)))
	return nil
}

// readOf builds the rvalue that fetches from an lvalue tree.
func (c *ctx) readOf(lv *ir.Node) *ir.Node {
	switch lv.Op {
	case ir.Name:
		return c.a.Un(ir.Indir, lv.Type, c.a.Clone(lv))
	case ir.Dreg:
		return c.a.Clone(lv)
	default: // Indir
		return c.a.Clone(lv)
	}
}
