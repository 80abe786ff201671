package ir

import "fmt"

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

	// P1Spans records, per register the tree-transformation phase
	// assigned, the item range during which it is live — the "use count"
	// the first phase communicates to the third phase's register manager
	// (§5.3.3). Spans for the same register never overlap.
	P1Spans []RegSpan

	nextLabel int
	tempBase  int // running temporary allocation beyond FrameSize
}

// RegSpan is a phase-1 register live range over item indexes (inclusive).
type RegSpan struct {
	Reg   int
	First int
	Last  int
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

// EmitLabel appends a label definition to the function body.
func (f *Func) EmitLabel(id int) { f.Items = append(f.Items, LabelItem(id)) }

// NewLabel allocates a fresh label id within the function.
func (f *Func) NewLabel() int {
	f.nextLabel++
	return f.nextLabel
}

// SetLabelBase advances the label counter past base so later labels do not
// collide with labels already present in the body.
func (f *Func) SetLabelBase(base int) {
	if base > f.nextLabel {
		f.nextLabel = base
	}
}

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
