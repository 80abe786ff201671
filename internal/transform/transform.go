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
	"sync/atomic"

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

// UnitArena is Unit with an explicit arena for replacement nodes. The
// output trees alias both the arena and the input unit (leaves the rewrite
// leaves untouched are shared), so the caller must keep a and the input
// unit's own allocation alive until the output is consumed. A nil arena
// heap-allocates.
func UnitArena(u *ir.Unit, opt Options, a *ir.Arena) (*ir.Unit, error) {
	out := &ir.Unit{Globals: u.Globals}
	for _, f := range u.Funcs {
		nf, err := FuncArena(f, opt, a)
		if err != nil {
			return nil, err
		}
		out.Funcs = append(out.Funcs, nf)
	}
	return out, nil
}

// Stats counts transformation work, reported by the E4 experiment.
type Stats struct {
	Swapped  int // commutative operand exchanges performed by phase 1c
	Reversed int // reverse operators introduced by phase 1c
}

// The aggregate counters are package-level because the experiments
// aggregate across many Func calls; they are atomic because functions of
// one unit may be transformed by concurrent workers.
var (
	totalSwapped  atomic.Int64
	totalReversed atomic.Int64
)

// TakeStats returns and resets the counters accumulated since the previous
// call.
func TakeStats() Stats {
	return Stats{
		Swapped:  int(totalSwapped.Swap(0)),
		Reversed: int(totalReversed.Swap(0)),
	}
}

// Func transforms one function, heap-allocating replacement nodes.
func Func(f *ir.Func, opt Options) (*ir.Func, error) {
	return FuncArena(f, opt, nil)
}

// FuncArena transforms one function, drawing replacement nodes from a (nil
// falls back to the heap). Output trees may alias input trees: untouched
// subtrees are shared, not copied.
func FuncArena(f *ir.Func, opt Options, a *ir.Arena) (*ir.Func, error) {
	maxLabel := 0
	for _, it := range f.Items {
		if it.Kind == ir.ItemLabel && it.Label > maxLabel {
			maxLabel = it.Label
		}
		if it.Kind == ir.ItemTree {
			it.Tree.Walk(func(n *ir.Node) bool {
				if n.Op == ir.Lab && int(n.Val) > maxLabel {
					maxLabel = int(n.Val)
				}
				return true
			})
		}
	}
	// A statement rewrites to about two items on average and to more than
	// four rarely, so the body is sized once for nearly every function.
	out := &ir.Func{Name: f.Name, FrameSize: f.TotalFrame(), Items: make([]ir.Item, 0, 4*len(f.Items))}
	out.SetLabelBase(maxLabel)
	c := &ctx{f: out, opt: opt, a: a}
	for _, it := range f.Items {
		if it.Kind == ir.ItemLabel {
			out.EmitLabel(it.Label)
			continue
		}
		if err := c.stmt(it.Tree); err != nil {
			return nil, fmt.Errorf("transform: %s: %v (tree %s)", f.Name, err, it.Tree)
		}
	}
	totalSwapped.Add(int64(c.stats.Swapped))
	totalReversed.Add(int64(c.stats.Reversed))
	return out, nil
}

type ctx struct {
	f     *ir.Func
	opt   Options
	a     *ir.Arena // replacement-node arena; nil means heap allocation
	stats Stats

	// Phase-1 register allocation for truth values and selections: taken
	// from the top of the allocatable bank (r5 downward) so they rarely
	// collide with the instruction generator's allocations (r0 upward).
	// Each allocation's item span is recorded in the output function so
	// the third phase's register manager can model it precisely.
	regBusy  [ir.NAllocatable]bool
	regStart [ir.NAllocatable]int

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

// freeP1Regs closes the spans of every live phase-1 register at the end of
// the statement that consumed them.
func (c *ctx) freeP1Regs() {
	for r := 0; r < ir.NAllocatable; r++ {
		if c.regBusy[r] {
			c.f.P1Spans = append(c.f.P1Spans, ir.RegSpan{
				Reg: r, First: c.regStart[r], Last: len(c.f.Items) - 1,
			})
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
	n.Walk(func(m *ir.Node) bool {
		if m.Op == ir.Call {
			c.stmtHasCall = true
		}
		return true
	})
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
