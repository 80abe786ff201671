package ir

import (
	"fmt"
	"math/bits"
)

// Unit is a compilation unit: the forest of expression trees, grouped by
// function and interspersed with labels, that the first pass of the
// compiler hands to the code generator (§2).
type Unit struct {
	Globals []Global
	Funcs   []*Func
}

// Global describes a global variable definition, with an optional scalar
// initializer.
type Global struct {
	Name    string
	Type    Type
	Size    int // total bytes; > Type.Size() for arrays
	HasInit bool
	Init    int64   // integer initializer
	FInit   float64 // floating initializer (used when Type is floating)
}

// Func is one function's worth of code-generation input.
type Func struct {
	Name      string
	FrameSize int // bytes of declared locals below fp
	Items     []Item

	maxLabel int // label high-water mark: the largest id allocated or defined
	tempBase int // running temporary allocation beyond FrameSize
}

// ItemKind discriminates the kinds of Item.
type ItemKind uint8

// Item kinds.
const (
	ItemTree  ItemKind = iota // an expression tree to generate code for
	ItemLabel                 // a label definition
)

// Item is one element of a function body: an expression tree or a label
// definition.
type Item struct {
	Kind  ItemKind
	Tree  *Node
	Label int
}

// TreeItem wraps a tree as an Item.
func TreeItem(n *Node) Item { return Item{Kind: ItemTree, Tree: n} }

// LabelItem wraps a label definition as an Item.
func LabelItem(id int) Item { return Item{Kind: ItemLabel, Label: id} }

// Emit appends a tree to the function body.
func (f *Func) Emit(n *Node) { f.Items = append(f.Items, TreeItem(n)) }

// EmitLabel appends a label definition to the function body, raising the
// label high-water mark to id.
func (f *Func) EmitLabel(id int) {
	f.Items = append(f.Items, LabelItem(id))
	f.SetLabelBase(id)
}

// NewLabel allocates a fresh label id within the function.
func (f *Func) NewLabel() int {
	f.maxLabel++
	return f.maxLabel
}

// SetLabelBase advances the label counter past base so later labels do not
// collide with labels already present in the body.
func (f *Func) SetLabelBase(base int) {
	if base > f.maxLabel {
		f.maxLabel = base
	}
}

// MaxLabel returns the function's label high-water mark: the largest
// label NewLabel allocated, EmitLabel defined or SetLabelBase reserved.
// Labels of a body built through those methods are all at most MaxLabel,
// so the next function's labels can be numbered after it without looking
// at a tree (§5.1). A body whose Items were assigned directly has its
// label items' ids only if SetLabelBase reserved them.
func (f *Func) MaxLabel() int { return f.maxLabel }

// AllocTemp allocates a compiler-generated temporary of type t in the
// frame and returns its (negative) fp offset. Temporaries hold factored-out
// function call results (§5.1.1) and spilled registers — the paper's
// "virtual registers" (§5.3.3).
func (f *Func) AllocTemp(t Type) int {
	size := t.Size()
	if size == 0 {
		size = 4
	}
	total := f.FrameSize + f.tempBase + size
	if r := total % size; r != 0 {
		total += size - r
	}
	f.tempBase = total - f.FrameSize
	return -total
}

// TotalFrame returns the frame size including temporaries allocated so far.
func (f *Func) TotalFrame() int { return f.FrameSize + f.tempBase }

// SmallConst returns a constant node of the smallest signed integer type
// that represents v, the convention the PCC front ends use (cf. the byte
// constant "27" in the paper's appendix).
func SmallConst(v int64) *Node {
	switch {
	case v >= -128 && v <= 127:
		return NewConst(Byte, v)
	case v >= -32768 && v <= 32767:
		return NewConst(Word, v)
	default:
		return NewConst(Long, v)
	}
}

// FrameAddr returns the address expression fp+off for a local or temporary.
func FrameAddr(off int) *Node {
	return Bin(Plus, Long, SmallConst(int64(off)), NewDreg(Long, RegFP))
}

// FrameRef returns an Indir fetching the local or temporary of type t at
// fp offset off.
func FrameRef(t Type, off int) *Node { return Un(Indir, t, FrameAddr(off)) }

// GlobalRef returns an Indir fetching the global of type t named sym.
func GlobalRef(t Type, sym string) *Node { return Un(Indir, t, NewName(t, sym)) }

// Dedicated register numbers, following the PCC conventions for the VAX:
// r0–r5 are allocatable, r6–r11 hold register variables, and r12–r15 are
// the hardware argument, frame, stack pointers and pc (§5.3.3).
const (
	RegAP = 12
	RegFP = 13
	RegSP = 14
	RegPC = 15
)

// NAllocatable is the number of allocatable registers (r0–r5).
const NAllocatable = 6

// RegSet is a set of allocatable registers, bit r standing for register
// r: the registers an operand descriptor owns, or the registers phase 1
// hands phase 3 at an item (§5.3.3), held by value.
type RegSet uint8

// RegRange returns the set of the n consecutive registers from r.
func RegRange(r, n int) RegSet { return RegSet((1<<n - 1) << r) }

// Has reports whether r is in the set.
func (s RegSet) Has(r int) bool { return r >= 0 && r < NAllocatable && s&(1<<r) != 0 }

// Len returns the number of registers in the set.
func (s RegSet) Len() int { return bits.OnesCount8(uint8(s)) }

// regNames are the assembler names of the sixteen registers.
var regNames = [...]string{"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7",
	"r8", "r9", "r10", "r11", RegAP: "ap", RegFP: "fp", RegSP: "sp", RegPC: "pc"}

// RegName returns the assembler name of register r.
func RegName(r int) string {
	if r >= 0 && r < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("r%d", r)
}
