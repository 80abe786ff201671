package vax

import (
	"fmt"
	"strings"

	"ggcg/internal/ir"
	"ggcg/internal/simcore"
	"ggcg/internal/vaxsim"
)

// instrs is the simulator's instruction table, the one declaration of the
// machine's instruction set: every mnemonic below is checked against it
// when the package loads.
var instrs = vaxsim.Instrs()

// mnem is a print template resolved for each machine type: the
// mnemonic of type t is m[t.Machine()].
type mnem [ir.Double + 1]string

// tmpl resolves a print template, '$' standing for the type suffix. It
// panics unless the instruction table has the template's form for every
// integer type; a float form the table lacks (bis, mcom, inc, ...) is
// left empty, as the description selects those operators for integer
// types only.
func tmpl(template string) *mnem {
	m := new(mnem)
	for _, t := range ir.MachineTypes {
		name := strings.Replace(template, "$", t.Suffix(), 1)
		if _, ok := instrs[name]; ok {
			m[t] = name
		} else if t.IsInteger() {
			panic(fmt.Sprintf("vax: %s, the %s form of %q, is not in the instruction table", name, t, template))
		}
	}
	return m
}

// mn returns a resolved template's mnemonic for a machine type.
func mn(m *mnem, t ir.Type) string { return m[t.Machine()] }

// The templates the semantic routines use outside instrTable.
var (
	movT  = tmpl("mov$")
	clrT  = tmpl("clr$")
	tstT  = tmpl("tst$")
	cmpT  = tmpl("cmp$")
	incT  = tmpl("inc$")
	decT  = tmpl("dec$")
	mnegT = tmpl("mneg$")
	mcomT = tmpl("mcom$")
)

// instrDesc is one line of the hand-written instruction table (the paper's
// Figure 3). Each cluster of entries distinguishes among different
// instructions that share a syntactic description: the three-address form,
// the two-address form reached through a binding idiom, and the
// single-operand form reached through a range idiom.
type instrDesc struct {
	nops    int    // operand count: 3, 2 or 1
	print   *mnem  // mnemonic per machine type
	binding bool   // a binding idiom can reduce this to the next entry
	revOK   bool   // the source operands may be swapped when binding
	rng     string // range idiom name checked on the 2-operand form
	flip3   bool   // 3-operand form takes (src2, src1, dst), like subl3
}

// instrTable maps a generic operator to its instruction cluster, ordered
// three-address first (§5.3.1: "an entry in this table is chosen based on
// the generic operator and the types of its operands").
var instrTable = map[string][]instrDesc{
	"add": {
		{nops: 3, print: tmpl("add$3"), binding: true, revOK: true},
		{nops: 2, print: tmpl("add$2"), rng: "unit"},
		{nops: 1, print: incT},
	},
	"sub": {
		{nops: 3, print: tmpl("sub$3"), binding: true, flip3: true},
		{nops: 2, print: tmpl("sub$2"), rng: "unit"},
		{nops: 1, print: decT},
	},
	"mul": {
		{nops: 3, print: tmpl("mul$3"), binding: true, revOK: true},
		{nops: 2, print: tmpl("mul$2"), rng: "one"},
		{nops: 0}, // multiplying by one emits nothing
	},
	"div": {
		{nops: 3, print: tmpl("div$3"), binding: true, flip3: true},
		{nops: 2, print: tmpl("div$2"), rng: "one"},
		{nops: 0},
	},
	"bis": {
		{nops: 3, print: tmpl("bis$3"), binding: true, revOK: true},
		{nops: 2, print: tmpl("bis$2"), rng: "zero"},
		{nops: 0}, // or with zero emits nothing
	},
	"xor": {
		{nops: 3, print: tmpl("xor$3"), binding: true, revOK: true},
		{nops: 2, print: tmpl("xor$2"), rng: "zero"},
		{nops: 0},
	},
	"bic": {
		// binary("bic", t, src, mask) computes src &^ mask.
		{nops: 3, print: tmpl("bic$3"), binding: true, flip3: true},
		{nops: 2, print: tmpl("bic$2"), rng: "zero"},
		{nops: 0},
	},
}

// signedBranch and unsignedBranch map relations to the signed and
// unsigned jump pseudo-instructions.
var (
	signedBranch   = branches("jeql", "jneq", "jlss", "jleq", "jgtr", "jgeq")
	unsignedBranch = branches("jeql", "jneq", "jlssu", "jlequ", "jgtru", "jgequ")
)

// branches returns the jumps of the relations REQ through RGE, in that
// order. It panics unless each is a conditional branch of the instruction
// table whose inverse is the jump of the negated relation.
func branches(mns ...string) (b [ir.RGE + 1]string) {
	copy(b[:], mns)
	for rel, name := range b {
		inv := b[ir.Rel(rel).Negate()]
		if in := instrs[name]; in.Class&simcore.CondBranch == 0 || in.Inverse != inv {
			panic(fmt.Sprintf("vax: %s is not a conditional branch with inverse %s in the instruction table", name, inv))
		}
	}
	return b
}

// Gen is the instruction generation phase (§5.3): the semantic routines the
// pattern matcher's reductions invoke, hand-coded for the VAX as in the
// paper's experiment.
type Gen struct {
	E  *Emitter
	RM *RegMan
	F  *ir.Func

	// LabelBase offsets this function's label numbers so labels are
	// unique across the output file, as PCC numbered them.
	LabelBase int

	// Idioms counts the binding and range idioms applied, for the F3
	// experiment and ablations.
	BindingIdioms int
	RangeIdioms   int
}

// NewGen returns a generator emitting into e for function f.
func NewGen(e *Emitter, f *ir.Func) *Gen {
	return &Gen{E: e, RM: NewRegMan(e, f), F: f}
}

// binary generates code for `a OP b` of type t using the instruction table
// cluster for key, applying the binding and range idioms (§5.3.1, §5.3.2).
// It returns the result operand (a register).
func (g *Gen) binary(key string, t ir.Type, a, b *Operand) (*Operand, error) {
	cluster, ok := instrTable[key]
	if !ok {
		return nil, fmt.Errorf("vax: no instruction cluster %q", key)
	}
	three := cluster[0]
	g.pin(a)
	g.pin(b)
	defer g.RM.Unpin()

	dst := &Operand{Mode: OReg, Type: t, Xreg: -1}
	// Reclaim a source register as the destination where the binding
	// idiom permits, which turns the three-address instruction into a
	// two-address instruction.
	var other *Operand
	if three.binding {
		if r, ok := g.reclaim(a, t, dst); ok {
			dst.Reg = r
			other = b
		} else if three.revOK {
			if r, ok := g.reclaim(b, t, dst); ok {
				dst.Reg = r
				other = a
			}
		}
	}
	if other != nil {
		g.BindingIdioms++
		g.emitTwoOp(cluster, t, other, dst)
		g.consume(a)
		g.consume(b)
		dst.Owned = ownedRegs(dst.Reg, t)
		return dst, nil
	}
	// Three-address form: the destination may still reuse either source's
	// register — operands are read before the result is written.
	if r, ok := g.reclaim(a, t, dst); ok {
		dst.Reg = r
	} else if r, ok := g.reclaim(b, t, dst); ok {
		dst.Reg = r
	} else {
		r, err := g.RM.Alloc(t, dst)
		if err != nil {
			return nil, err
		}
		dst.Reg = r
	}
	dst.Owned = ownedRegs(dst.Reg, t)
	if three.flip3 {
		g.E.EmitResult(mn(three.print, t), dst, b.Asm(), a.Asm())
	} else {
		g.E.EmitResult(mn(three.print, t), dst, a.Asm(), b.Asm())
	}
	g.consume(a)
	g.consume(b)
	return dst, nil
}

// pin, reclaim and consume are the register manager's Pin, ReclaimAsDest
// and Consume for a source operand through their register-list forms, so
// binary's sources — a dedicated-register base built on the spot, say —
// do not escape to the heap.
func (g *Gen) pin(o *Operand) { g.RM.PinRegs(o.Owned, o.ResultReg()) }

func (g *Gen) reclaim(src *Operand, t ir.Type, dst *Operand) (int, bool) {
	return g.RM.ReclaimRegs(&src.Owned, src.ResultReg(), t, dst)
}

func (g *Gen) consume(o *Operand) { g.RM.ConsumeRegs(&o.Owned) }

// binaryInto generates `a OP b` with an explicit destination — the
// three-address instruction scheme of §5.3.1 in which the destination is
// the assignment target. The binding idiom checks whether a source matches
// the destination, turning the three-address form into a two-address form,
// and the range idiom may simplify further (Figure 3's walkthrough).
func (g *Gen) binaryInto(key string, t ir.Type, a, b, dst *Operand) error {
	cluster, ok := instrTable[key]
	if !ok {
		return fmt.Errorf("vax: no instruction cluster %q", key)
	}
	three := cluster[0]
	g.RM.Pin(a)
	g.RM.Pin(b)
	g.RM.Pin(dst)
	defer g.RM.Unpin()
	switch {
	case three.binding && a.Same(dst):
		g.BindingIdioms++
		g.emitTwoOp(cluster, t, b, dst)
	case three.binding && three.revOK && b.Same(dst):
		g.BindingIdioms++
		g.emitTwoOp(cluster, t, a, dst)
	case three.flip3:
		g.E.EmitResult(mn(three.print, t), dst, b.Asm(), a.Asm())
	default:
		g.E.EmitResult(mn(three.print, t), dst, a.Asm(), b.Asm())
	}
	g.RM.Consume(a)
	g.RM.Consume(b)
	return nil
}

func ownedRegs(r int, t ir.Type) []int {
	if regsFor(t) == 2 {
		return []int{r, r + 1}
	}
	return []int{r}
}

// emitTwoOp emits the two-address form, first trying the range idiom that
// may simplify it further (§5.3.2).
func (g *Gen) emitTwoOp(cluster []instrDesc, t ir.Type, src, dst *Operand) {
	two := cluster[1]
	one := cluster[2]
	if t.IsInteger() {
		switch two.rng {
		case "unit":
			// add/sub by one become increment/decrement; by minus one the
			// opposite operation.
			if src.ImmIs(1) {
				g.RangeIdioms++
				g.E.EmitResult(mn(one.print, t), dst)
				return
			}
			if src.ImmIs(-1) {
				g.RangeIdioms++
				opposite := incT
				if one.print == incT {
					opposite = decT
				}
				g.E.EmitResult(mn(opposite, t), dst)
				return
			}
		case "one":
			if src.ImmIs(1) {
				g.RangeIdioms++
				return // multiply or divide by one: no code
			}
		case "zero":
			if src.ImmIs(0) {
				g.RangeIdioms++
				return
			}
		}
	}
	g.E.EmitResult(mn(two.print, t), dst, src.Asm())
}

// move generates an assignment of src into the location dst of type t,
// applying the clear idiom for zero stores and suppressing moves of an
// operand onto itself.
func (g *Gen) move(t ir.Type, src, dst *Operand) {
	if src.Same(dst) {
		return
	}
	if t.IsInteger() && src.ImmIs(0) || t.IsFloat() && (src.ImmIs(0) || src.Mode == OFImm && src.FVal == 0) {
		g.RangeIdioms++
		g.E.EmitResult(mn(clrT, t), dst)
		return
	}
	g.E.EmitResult(mn(movT, t), dst, src.Asm())
}

// materialize loads an operand into a fresh register of type t (used when
// an addressing mode cannot be consumed in place, e.g. narrowing from an
// autoincrement operand).
func (g *Gen) materialize(t ir.Type, o *Operand) (*Operand, error) {
	g.RM.Pin(o)
	defer g.RM.Unpin()
	dst := &Operand{Mode: OReg, Type: t, Xreg: -1}
	if r, ok := g.RM.ReclaimAsDest(o, t, dst); ok {
		dst.Reg = r
		dst.Owned = ownedRegs(r, t)
		return dst, nil
	}
	r, err := g.RM.Alloc(t, dst)
	if err != nil {
		return nil, err
	}
	dst.Reg = r
	dst.Owned = ownedRegs(r, t)
	g.E.EmitResult(mn(movT, o.Type), dst, o.Asm())
	g.RM.Consume(o)
	return dst, nil
}

// convert widens src to type to, choosing between the signed convert and
// unsigned move-zero-extended instructions using the semantic unsigned
// attribute (the grammar types operands by size only; cf. §6.5).
func (g *Gen) convert(to ir.Type, src *Operand) (*Operand, error) {
	from := src.Type
	if src.Mode == OImm {
		// Immediate constants need no conversion instructions; the
		// immediate operand is typed by the instruction that uses it.
		out := *src
		out.Type = to
		return &out, nil
	}
	if src.Mode == OFImm {
		out := *src
		out.Type = to
		if to.IsInteger() {
			out.Mode, out.Val = OImm, int64(src.FVal)
		}
		return &out, nil
	}
	g.RM.Pin(src)
	defer g.RM.Unpin()
	dst := &Operand{Mode: OReg, Type: to, Xreg: -1}
	if regsFor(from.Machine()) == regsFor(to) {
		if r, ok := g.RM.ReclaimAsDest(src, to, dst); ok {
			dst.Reg = r
			dst.Owned = ownedRegs(r, to)
			g.emitConvert(from, to, src, dst)
			return dst, nil
		}
	}
	r, err := g.RM.Alloc(to, dst)
	if err != nil {
		return nil, err
	}
	dst.Reg = r
	dst.Owned = ownedRegs(r, to)
	g.emitConvert(from, to, src, dst)
	g.RM.Consume(src)
	return dst, nil
}

func (g *Gen) emitConvert(from, to ir.Type, src, dst *Operand) {
	fs, ts := from.Machine().Suffix(), to.Machine().Suffix()
	if fs == ts {
		g.E.EmitResult("mov"+ts, dst, src.Asm())
		return
	}
	if from.IsUnsigned() && to.IsInteger() {
		g.E.EmitResult("movz"+fs+ts, dst, src.Asm())
		return
	}
	if from.IsUnsigned() && to.IsFloat() {
		// Zero-extend, then convert. (Unsigned longs convert through the
		// signed instruction — the same rough edge §8 of the paper
		// reports for signed/unsigned conversions.)
		if from.Machine() != ir.Long {
			g.E.Emit("movz"+fs+"l", src.Asm(), dst.Asm())
			g.E.EmitResult("cvtl"+ts, dst, dst.Asm())
			return
		}
		g.E.EmitResult("cvtl"+ts, dst, src.Asm())
		return
	}
	g.E.EmitResult("cvt"+fs+ts, dst, src.Asm())
}
