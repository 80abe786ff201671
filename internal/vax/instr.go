package vax

import (
	"fmt"
	"strings"
	"sync"

	"ggcg/internal/ir"
	"ggcg/internal/simcore"
	"ggcg/internal/target"
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

// The templates the semantic routines use outside the clusters.
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

// cluster is the instruction table's entries for one generic operator,
// three-address form first.
type cluster [3]instrDesc

// The instruction table, one cluster per generic operator (§5.3.1: "an
// entry in this table is chosen based on the generic operator and the
// types of its operands"). Each routine binds its cluster when the
// package loads.
var (
	addOps = &cluster{
		{nops: 3, print: tmpl("add$3"), binding: true, revOK: true},
		{nops: 2, print: tmpl("add$2"), rng: "unit"},
		{nops: 1, print: incT},
	}
	subOps = &cluster{
		{nops: 3, print: tmpl("sub$3"), binding: true, flip3: true},
		{nops: 2, print: tmpl("sub$2"), rng: "unit"},
		{nops: 1, print: decT},
	}
	mulOps = &cluster{
		{nops: 3, print: tmpl("mul$3"), binding: true, revOK: true},
		{nops: 2, print: tmpl("mul$2"), rng: "one"},
		{nops: 0}, // multiplying by one emits nothing
	}
	divOps = &cluster{
		{nops: 3, print: tmpl("div$3"), binding: true, flip3: true},
		{nops: 2, print: tmpl("div$2"), rng: "one"},
		{nops: 0},
	}
	bisOps = &cluster{
		{nops: 3, print: tmpl("bis$3"), binding: true, revOK: true},
		{nops: 2, print: tmpl("bis$2"), rng: "zero"},
		{nops: 0}, // or with zero emits nothing
	}
	xorOps = &cluster{
		{nops: 3, print: tmpl("xor$3"), binding: true, revOK: true},
		{nops: 2, print: tmpl("xor$2"), rng: "zero"},
		{nops: 0},
	}
	// binary(bicOps, t, src, mask) computes src &^ mask.
	bicOps = &cluster{
		{nops: 3, print: tmpl("bic$3"), binding: true, flip3: true},
		{nops: 2, print: tmpl("bic$2"), rng: "zero"},
		{nops: 0},
	}
)

// cvtMns holds the conversion instructions per source type (unsignedness
// included) and destination machine type: a move where the sizes agree,
// a zero-extension widening an unsigned integer, the convert instruction
// otherwise, and for an unsigned byte or word to a floating type the
// zero-extension to a long (zext) before the convert from it.
var cvtMns = func() (m [ir.ULong + 1][ir.Double + 1]struct{ zext, cvt string }) {
	for from := ir.Byte; from <= ir.ULong; from++ {
		for _, to := range ir.MachineTypes {
			fs, ts := from.Machine().Suffix(), to.Suffix()
			c := &m[from][to]
			switch {
			case fs == ts:
				c.cvt = mn(movT, to)
			case from.IsUnsigned() && to.IsInteger() && to.Size() > from.Size():
				c.cvt = "movz" + fs + ts
			case from.IsUnsigned() && to.IsFloat():
				// Unsigned longs convert through the signed instruction —
				// the same rough edge §8 of the paper reports for
				// signed/unsigned conversions.
				if from.Machine() != ir.Long {
					c.zext = "movz" + fs + "l"
				}
				c.cvt = "cvtl" + ts
			default:
				c.cvt = "cvt" + fs + ts
			}
			for _, name := range [...]string{c.zext, c.cvt} {
				if _, ok := instrs[name]; name != "" && !ok {
					panic(fmt.Sprintf("vax: %s, the %s to %s conversion, is not in the instruction table", name, from, to))
				}
			}
		}
	}
	return m
}()

// movaBySize holds the move-address instruction whose operand size is n
// bytes, the one that scales an index register by n.
var movaBySize = func() (m [9]string) {
	for n, name := range map[int]string{1: "movab", 2: "movaw", 4: "moval", 8: "movaq"} {
		if _, ok := instrs[name]; !ok {
			panic(fmt.Sprintf("vax: %s is not in the instruction table", name))
		}
		m[n] = name
	}
	return m
}()

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
	target.GenBase[Operand, *Operand]

	// Idioms counts the binding and range idioms applied, for the F3
	// experiment and ablations.
	BindingIdioms int
	RangeIdioms   int
}

// operands recycles the chunks of every generator's operand slab.
var operands target.SlabPool[Operand]

// NewGen returns a pooled generator emitting into e for function f;
// Release returns it.
func NewGen(e *Emitter, f *ir.Func) *Gen {
	g := gens.Get().(*Gen)
	g.Reset(&regHooks, &operands, e, f)
	return g
}

// gens recycles generators, each with its register manager and slab.
var gens = sync.Pool{New: func() any { return new(Gen) }}

// Release returns the generator, its register manager and its operand
// descriptors to their pools; neither it nor any attribute it produced
// may be used afterwards.
func (g *Gen) Release() {
	g.GenBase.Release()
	*g = Gen{GenBase: g.GenBase} // zero the counters, keep the storage
	gens.Put(g)
}

// binary generates code for `a OP b` of type t using the instruction table
// cluster c, applying the binding and range idioms (§5.3.1, §5.3.2). It
// returns the result operand (a register).
func (g *Gen) binary(c *cluster, t ir.Type, a, b *Operand) (*Operand, error) {
	three := c[0]
	g.RM.Pin(a)
	g.RM.Pin(b)
	defer g.RM.Unpin()

	dst := g.regOp(t, 0)
	// Reclaim a source register as the destination where the binding
	// idiom permits, which turns the three-address instruction into a
	// two-address instruction.
	var other *Operand
	if three.binding {
		if r, ok := g.RM.ReclaimAsDest(a, t, dst); ok {
			dst.Reg = r
			other = b
		} else if three.revOK {
			if r, ok := g.RM.ReclaimAsDest(b, t, dst); ok {
				dst.Reg = r
				other = a
			}
		}
	}
	if other != nil {
		g.BindingIdioms++
		g.emitTwoOp(c, t, other, dst)
		g.RM.Consume(a)
		g.RM.Consume(b)
		dst.Owned = ownedRegs(dst.Reg, t)
		return dst, nil
	}
	// Three-address form: the destination may still reuse either source's
	// register — operands are read before the result is written.
	if r, ok := g.RM.ReclaimAsDest(a, t, dst); ok {
		dst.Reg = r
	} else if r, ok := g.RM.ReclaimAsDest(b, t, dst); ok {
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
		g.E.EmitResult(mn(three.print, t), dst, b, a)
	} else {
		g.E.EmitResult(mn(three.print, t), dst, a, b)
	}
	g.RM.Consume(a)
	g.RM.Consume(b)
	return dst, nil
}

// binaryInto generates `a OP b` with an explicit destination — the
// three-address instruction scheme of §5.3.1 in which the destination is
// the assignment target. The binding idiom checks whether a source matches
// the destination, turning the three-address form into a two-address form,
// and the range idiom may simplify further (Figure 3's walkthrough).
func (g *Gen) binaryInto(c *cluster, t ir.Type, a, b, dst *Operand) {
	three := c[0]
	g.RM.Pin(a)
	g.RM.Pin(b)
	g.RM.Pin(dst)
	defer g.RM.Unpin()
	switch {
	case three.binding && a.Same(dst):
		g.BindingIdioms++
		g.emitTwoOp(c, t, b, dst)
	case three.binding && three.revOK && b.Same(dst):
		g.BindingIdioms++
		g.emitTwoOp(c, t, a, dst)
	case three.flip3:
		g.E.EmitResult(mn(three.print, t), dst, b, a)
	default:
		g.E.EmitResult(mn(three.print, t), dst, a, b)
	}
	g.RM.Consume(a)
	g.RM.Consume(b)
}

func ownedRegs(r int, t ir.Type) target.RegSet { return target.RegRange(r, regsFor(t)) }

// emitTwoOp emits the two-address form, first trying the range idiom that
// may simplify it further (§5.3.2).
func (g *Gen) emitTwoOp(c *cluster, t ir.Type, src, dst *Operand) {
	two, one := c[1], c[2]
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
	g.E.EmitResult(mn(two.print, t), dst, src)
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
	g.E.EmitResult(mn(movT, t), dst, src)
}

// materialize loads an operand into a fresh register of type t (used when
// an addressing mode cannot be consumed in place, e.g. narrowing from an
// autoincrement operand).
func (g *Gen) materialize(t ir.Type, o *Operand) (*Operand, error) {
	g.RM.Pin(o)
	defer g.RM.Unpin()
	dst := g.regOp(t, 0)
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
	g.E.EmitResult(mn(movT, o.Type), dst, o)
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
		out := g.Op(*src)
		out.Type = to
		return out, nil
	}
	if src.Mode == OFImm {
		out := g.Op(*src)
		out.Type = to
		if to.IsInteger() {
			out.Mode, out.Val = OImm, int64(src.FVal)
		}
		return out, nil
	}
	g.RM.Pin(src)
	defer g.RM.Unpin()
	dst := g.regOp(to, 0)
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
	c := cvtMns[from][to]
	if c.zext != "" {
		g.E.EmitOps(c.zext, src, dst)
		g.E.EmitResult(c.cvt, dst, dst)
		return
	}
	g.E.EmitResult(c.cvt, dst, src)
}
