package ir

import "sync"

// Arena is a slab allocator for expression-tree nodes and their child
// slices. The front half of the compiler — the cfront parser and the tree
// transformation phase — allocates every Node it builds from the
// compilation's arena, so building and rewriting a unit's trees costs a
// handful of slab allocations instead of one heap allocation per node
// (see DESIGN.md, "Memory ownership and arenas").
//
// An Arena is single-owner: it is not safe for concurrent use. Concurrent
// compilations each acquire their own (AcquireArena), and the parallel
// per-function path inside one compilation gives each worker its own.
// Reset keeps the slabs it grew, up to maxSlabs of each kind, and the next
// compilation advances through them again before allocating any new one;
// Release returns the arena to a process-wide pool, which drops idle
// arenas at garbage collection. After Reset or Release every node
// previously handed out is invalid — callers must guarantee nothing that
// outlives the compilation aliases arena memory. A nil *Arena is valid and falls back
// to ordinary heap allocation, node for node, so code threading an arena
// can be written once and exercised both ways.
type Arena struct {
	slabs   [][]Node  // node slabs held, in use or retained from before Reset
	kidSets [][]*Node // child-pointer slabs held, likewise
	ns, ni  int       // node slabs in use (the last one active); next free index in it
	nk, ki  int       // kid slabs in use; next free index in the active one

	// allocated counts nodes handed out since the last Reset, for tests
	// and introspection.
	allocated int
}

// Slab sizing: nodes are 64 bytes, so 1024 of them is one 64 KB slab, and
// a kid slab of 2048 pointers is 16 KB. maxSlabs caps how many slabs of
// each kind Reset retains — about 4 MiB of nodes, five times the 12 node
// slabs the front half of corpus.Large(60) fills — so a pooled arena
// holds the working set of the units it serves, not the high-water mark
// of a pathological one.
const (
	nodeSlabLen = 1024
	kidSlabLen  = 2048
	maxSlabs    = 64
)

// arenaPool recycles arenas (and with them their grown slabs) across
// compilations. Compile acquires one arena per unit; batch workers churn
// through the pool, so in steady state each worker keeps reusing the same
// warmed slabs.
var arenaPool = sync.Pool{New: func() any { return &Arena{} }}

// AcquireArena returns an empty arena from the process-wide pool.
func AcquireArena() *Arena {
	return arenaPool.Get().(*Arena)
}

// Release resets the arena and returns it to the pool. A nil receiver is
// a no-op, mirroring the nil-arena heap fallback of the allocators.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	a.Reset()
	arenaPool.Put(a)
}

// Reset invalidates every node the arena has handed out and rewinds it to
// its first slab; the slabs stay, up to maxSlabs of each kind. Only the
// used part is zeroed — every slot written since the last Reset — so
// stale child slices and symbol strings do not pin garbage across
// compilations, and every retained slab is all zeros again.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	resetSlabs(&a.slabs, a.ns, a.ni)
	resetSlabs(&a.kidSets, a.nk, a.ki)
	a.ns, a.ni, a.nk, a.ki = 0, 0, 0, 0
	a.allocated = 0
}

// resetSlabs zeroes the first used slabs of *slabs — the last of them
// only up to next — and drops the slabs past maxSlabs.
func resetSlabs[T any](slabs *[][]T, used, next int) {
	for i, s := range (*slabs)[:used] {
		if i == used-1 {
			s = s[:next]
		}
		clear(s)
	}
	if len(*slabs) > maxSlabs {
		clear((*slabs)[maxSlabs:])
		*slabs = (*slabs)[:maxSlabs]
	}
}

// Allocated returns the number of nodes handed out since the last Reset.
func (a *Arena) Allocated() int {
	if a == nil {
		return 0
	}
	return a.allocated
}

// Slabs returns the number of node slabs currently held.
func (a *Arena) Slabs() int {
	if a == nil {
		return 0
	}
	return len(a.slabs)
}

// New returns a zeroed node. With a nil receiver it heap-allocates, so
// arena-threaded code degrades gracefully when no arena is in play.
func (a *Arena) New() *Node {
	if a == nil {
		return &Node{}
	}
	if a.ns == 0 || a.ni == nodeSlabLen {
		if a.ns == len(a.slabs) {
			a.slabs = append(a.slabs, make([]Node, nodeSlabLen))
		}
		a.ns++
		a.ni = 0
	}
	n := &a.slabs[a.ns-1][a.ni]
	a.ni++
	a.allocated++
	return n
}

// kids carves a child slice of length n with exact capacity, so appends
// beyond it cannot clobber a neighbor's children.
func (a *Arena) kids(n int) []*Node {
	if a == nil {
		return make([]*Node, n)
	}
	if n > kidSlabLen {
		return make([]*Node, n) // oversized: straight to the heap
	}
	if a.nk == 0 || a.ki+n > kidSlabLen {
		if a.nk == len(a.kidSets) {
			a.kidSets = append(a.kidSets, make([]*Node, kidSlabLen))
		}
		a.nk++
		a.ki = 0
	}
	s := a.kidSets[a.nk-1][a.ki : a.ki+n : a.ki+n]
	a.ki += n
	return s
}

// Kids returns an arena-backed child slice holding the given children.
func (a *Arena) Kids(kids ...*Node) []*Node {
	s := a.kids(len(kids))
	copy(s, kids)
	return s
}

// MakeKids returns an arena-backed child slice of length n, for callers
// that fill the slots themselves.
func (a *Arena) MakeKids(n int) []*Node { return a.kids(n) }

// The constructors below mirror the package-level ones (NewConst, Bin,
// Un, ...) but draw from the arena; a nil arena makes them exactly
// equivalent to the free functions.

// NewConst returns an integer constant node.
func (a *Arena) NewConst(t Type, v int64) *Node {
	n := a.New()
	n.Op, n.Type, n.Val = Const, t, v
	return n
}

// NewFConst returns a floating constant node.
func (a *Arena) NewFConst(t Type, v float64) *Node {
	n := a.New()
	n.Op, n.Type, n.F = FConst, t, v
	return n
}

// NewName returns a global-name (address) leaf.
func (a *Arena) NewName(t Type, sym string) *Node {
	n := a.New()
	n.Op, n.Type, n.Sym = Name, t, sym
	return n
}

// NewDreg returns a dedicated-register leaf.
func (a *Arena) NewDreg(t Type, reg int) *Node {
	n := a.New()
	n.Op, n.Type, n.Val = Dreg, t, int64(reg)
	return n
}

// NewLab returns a label-reference leaf.
func (a *Arena) NewLab(id int) *Node {
	n := a.New()
	n.Op, n.Val = Lab, int64(id)
	return n
}

// Un returns a unary node.
func (a *Arena) Un(op Op, t Type, kid *Node) *Node {
	n := a.New()
	n.Op, n.Type, n.Kids = op, t, a.Kids(kid)
	return n
}

// Bin returns a binary node.
func (a *Arena) Bin(op Op, t Type, l, r *Node) *Node {
	n := a.New()
	n.Op, n.Type, n.Kids = op, t, a.Kids(l, r)
	return n
}

// NewCmp returns a compare node carrying a relation code.
func (a *Arena) NewCmp(t Type, rel Rel, l, r *Node) *Node {
	n := a.New()
	n.Op, n.Type, n.Val, n.Kids = Cmp, t, int64(rel), a.Kids(l, r)
	return n
}

// SmallConst returns a constant node of the smallest signed integer type
// that represents v (cf. the package-level SmallConst).
func (a *Arena) SmallConst(v int64) *Node {
	switch {
	case v >= -128 && v <= 127:
		return a.NewConst(Byte, v)
	case v >= -32768 && v <= 32767:
		return a.NewConst(Word, v)
	default:
		return a.NewConst(Long, v)
	}
}

// FrameAddr returns the address expression fp+off for a local or
// temporary.
func (a *Arena) FrameAddr(off int) *Node {
	return a.Bin(Plus, Long, a.SmallConst(int64(off)), a.NewDreg(Long, RegFP))
}

// FrameRef returns an Indir fetching the local or temporary of type t at
// fp offset off.
func (a *Arena) FrameRef(t Type, off int) *Node {
	return a.Un(Indir, t, a.FrameAddr(off))
}

// Clone returns a deep copy of the tree, allocated from the arena.
func (a *Arena) Clone(n *Node) *Node {
	if n == nil {
		return nil
	}
	m := a.New()
	*m = *n
	if n.Kids != nil {
		m.Kids = a.kids(len(n.Kids))
		for i, k := range n.Kids {
			m.Kids[i] = a.Clone(k)
		}
	}
	return m
}
