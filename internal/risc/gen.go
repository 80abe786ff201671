package risc

import (
	"fmt"
	"math"

	"ggcg/internal/ir"
	"ggcg/internal/riscsim"
	"ggcg/internal/simcore"
	"ggcg/internal/target"
)

// Gen is the instruction-generation phase for the RISC target: the
// semantic actions of the machine description, sharing the matcher, the
// tree-transformation phase and the emitter with the VAX backend through
// the target seam.
type Gen struct {
	target.GenBase[Operand, *Operand]

	// ImmFolds counts address/operand computations folded into an addi
	// immediate instead of materializing the constant — the RISC
	// counterpart of the VAX's addressing-mode range idioms.
	ImmFolds int
}

// operands recycles the chunks of every generator's operand slab.
var operands target.SlabPool[Operand]

// NewGen returns a generator writing f's body through e.
func NewGen(e *Emitter, f *ir.Func) *Gen {
	return &Gen{GenBase: target.GenBase[Operand, *Operand]{
		E: e, RM: NewRegMan(e, f), F: f, Ops: target.NewSlab(&operands),
	}}
}

// instrs is the simulator's instruction table, the one declaration of the
// machine's instruction set: every mnemonic the generator emits is
// resolved against it when the package loads.
var instrs = riscsim.Instrs()

// checked returns name, panicking unless the instruction table has it.
func checked(name string) string {
	if _, ok := instrs[name]; !ok {
		panic(fmt.Sprintf("risc: %s is not in the instruction table", name))
	}
	return name
}

// suffix is the sized-instruction suffix for values of type t.
func suffix(t ir.Type) string { return t.Machine().Suffix() }

// sized resolves an instruction stem's sized form for each machine type.
func sized(stem string) (m [ir.Double + 1]string) {
	for _, t := range ir.MachineTypes {
		m[t] = checked(stem + suffix(t))
	}
	return m
}

// ldMns and stMns are the sized loads and stores.
var ldMns, stMns = sized("ld"), sized("st")

// cvtMns holds the conversion instruction per source type (unsignedness
// included) and destination machine type where the sizes differ: the
// unsigned source forms (cvtu..) where zero-extension matters.
var cvtMns = func() (m [ir.ULong + 1][ir.Double + 1]string) {
	for from := ir.Byte; from <= ir.ULong; from++ {
		for _, to := range ir.MachineTypes {
			fs, ts := suffix(from), suffix(to)
			if fs == ts {
				continue
			}
			stem := "cvt"
			if from.IsUnsigned() && (to.IsFloat() || to.Size() > from.Size()) {
				stem = "cvtu"
			}
			m[from][to] = checked(stem + fs + ts)
		}
	}
	return m
}()

// floatVal rounds v the way a value of type t holds it: Float values
// live rounded through float32, exactly as the IR interpreter keeps them.
func floatVal(t ir.Type, v float64) float64 {
	if t == ir.Float {
		return float64(float32(v))
	}
	return v
}

// allocReg allocates a fresh register for a value of type t.
func (g *Gen) allocReg(t ir.Type) (*Operand, error) {
	dst := g.regOp(t, 0)
	r, err := g.RM.Alloc(t, dst)
	if err != nil {
		return nil, err
	}
	dst.Reg, dst.Owned = r, target.RegRange(r, 1)
	return dst, nil
}

// reclaimOrAlloc produces a destination register of type t, reusing src's
// register when the manager allows it.
func (g *Gen) reclaimOrAlloc(src *Operand, t ir.Type) (*Operand, error) {
	dst := g.regOp(t, 0)
	if r, ok := g.RM.ReclaimAsDest(src, t, dst); ok {
		dst.Reg, dst.Owned = r, target.RegRange(r, 1)
		return dst, nil
	}
	r, err := g.RM.Alloc(t, dst)
	if err != nil {
		return nil, err
	}
	dst.Reg, dst.Owned = r, target.RegRange(r, 1)
	return dst, nil
}

// emitAddi adds the constant k to register r in place.
func emitAddi(e *Emitter, r int, k int64) {
	e.Begin("addi")
	e.ArgString(ir.RegName(r))
	e.ArgString(ir.RegName(r))
	e.ArgImm(k)
	e.End()
}

// preAccess and postAccess emit the explicit pointer adjustment of the
// autostep location forms. The machine has no autostep addressing, so
// *--p becomes addi before the access and *p++ becomes addi after it,
// with the already-stepped location re-read at -Step(base).
func (g *Gen) preAccess(o *Operand) {
	if o.Mode == OLoc && o.Auto < 0 && !o.stepped {
		emitAddi(g.E, o.Base, -o.Step)
		o.stepped = true
	}
}

func (g *Gen) postAccess(o *Operand) {
	if o.Mode == OLoc && o.Auto > 0 && !o.stepped {
		emitAddi(g.E, o.Base, o.Step)
		o.stepped = true
		o.Off = -o.Step
	}
}

// loadLoc reads location o into register dst with the sized load of o's
// type.
func (g *Gen) loadLoc(dst, o *Operand) {
	ld := ldMns[o.Type.Machine()]
	if o.Deferred {
		// The frame slot holds the address: reload it, then load through
		// it (the simulator resolves operands before writing the
		// destination, so dst can serve as its own base).
		g.E.EmitResultFirst(ldMns[ir.Long], dst, o)
		g.E.EmitResultFirst(ld, dst, g.locOp(o.Type, 0, dst.Reg))
		return
	}
	g.preAccess(o)
	g.E.EmitResultFirst(ld, dst, o)
	g.postAccess(o)
}

// valueReg forces an attribute into a register holding its value,
// consuming the attribute. Immediates are materialized with li/lfi;
// locations are loaded with the sized load of their type. An integer
// immediate with a floating type is a typed constant in a floating
// context (the imm.f/imm.d productions) and must be materialized as
// float bits, rounded per type.
func (g *Gen) valueReg(o *Operand) (*Operand, error) {
	switch o.Mode {
	case OReg:
		return o, nil

	case OImm:
		if o.Type.IsFloat() {
			return g.valueReg(g.fimmOp(o.Type, floatVal(o.Type, float64(o.Val))))
		}
		dst, err := g.allocReg(o.Type)
		if err != nil {
			return nil, err
		}
		g.E.EmitResultFirst("li", dst, o)
		return dst, nil

	case OFImm:
		dst, err := g.allocReg(o.Type)
		if err != nil {
			return nil, err
		}
		g.E.EmitResultFirst("lfi", dst, o)
		return dst, nil

	case OLoc:
		g.RM.Pin(o)
		dst, err := g.allocReg(o.Type)
		if err != nil {
			return nil, err
		}
		g.loadLoc(dst, o)
		g.RM.Unpin()
		g.RM.Consume(o)
		return dst, nil
	}
	return nil, fmt.Errorf("risc: cannot load operand mode %d", o.Mode)
}

// imm32 reports an integer immediate addi can absorb.
func imm32(o *Operand) bool {
	return o.Mode == OImm && o.Val >= math.MinInt32 && o.Val <= math.MaxInt32
}

// operator is a register operator: its mnemonic for values of each type,
// resolved when the package loads.
type operator [ir.ULong + 1]string

// newOperator resolves an operator from its instruction stems for signed
// and for unsigned values, before the type suffix. It panics unless the
// instruction table has every integer form; a floating form the table
// lacks (and, rem, the shifts, not) is left empty, as the description
// selects those operators for integer types only.
func newOperator(signed, unsigned string) *operator {
	op := new(operator)
	for t := ir.Byte; t <= ir.ULong; t++ {
		name := signed + suffix(t)
		if t.IsUnsigned() {
			name = unsigned + suffix(t)
		}
		if _, ok := instrs[name]; ok {
			op[t] = name
		} else if t.IsInteger() {
			panic(fmt.Sprintf("risc: %s, the %s form of %s, is not in the instruction table", name, t, signed))
		}
	}
	return op
}

var (
	addOp = newOperator("add", "add")
	subOp = newOperator("sub", "sub")
	mulOp = newOperator("mul", "mul")
	divOp = newOperator("div", "divu")
	modOp = newOperator("rem", "remu")
	andOp = newOperator("and", "and")
	orOp  = newOperator("or", "or")
	xorOp = newOperator("xor", "xor")
	lshOp = newOperator("sll", "sllu")
	rshOp = newOperator("sra", "srl")
	negOp = newOperator("neg", "neg")
	notOp = newOperator("not", "not")
)

// op3 generates a three-register operator, folding small integer
// constants of add/sub into addi.
func (g *Gen) op3(op *operator, t ir.Type, a, b *Operand) (*Operand, error) {
	if t.IsInteger() {
		switch {
		case op == addOp && imm32(b):
			return g.foldAddi(t, a, b.Val)
		case op == addOp && imm32(a):
			return g.foldAddi(t, b, a.Val)
		case op == subOp && imm32(b) && b.Val != math.MinInt32:
			return g.foldAddi(t, a, -b.Val)
		}
	}
	g.RM.Pin(a)
	g.RM.Pin(b)
	av, err := g.valueReg(a)
	if err != nil {
		return nil, err
	}
	g.RM.Pin(av)
	g.RM.Pin(b)
	bv, err := g.valueReg(b)
	if err != nil {
		return nil, err
	}
	g.RM.Pin(av)
	g.RM.Pin(bv)
	dst := g.regOp(t, 0)
	if r, ok := g.RM.ReclaimAsDest(av, t, dst); ok {
		dst.Reg = r
	} else if r, ok := g.RM.ReclaimAsDest(bv, t, dst); ok {
		dst.Reg = r
	} else {
		r, err := g.RM.Alloc(t, dst)
		if err != nil {
			return nil, err
		}
		dst.Reg = r
	}
	dst.Owned = target.RegRange(dst.Reg, 1)
	g.E.EmitResultFirst(op[t], dst, av, bv)
	g.RM.Unpin()
	g.RM.Consume(av)
	g.RM.Consume(bv)
	return dst, nil
}

// foldAddi adds a constant to a value with the immediate form.
func (g *Gen) foldAddi(t ir.Type, a *Operand, k int64) (*Operand, error) {
	g.RM.Pin(a)
	av, err := g.valueReg(a)
	if err != nil {
		return nil, err
	}
	g.RM.Pin(av)
	dst, err := g.reclaimOrAlloc(av, t)
	if err != nil {
		return nil, err
	}
	g.E.EmitResultFirst("addi", dst, av, g.intOp(ir.Long, k))
	g.RM.Unpin()
	g.RM.Consume(av)
	g.ImmFolds++
	return dst, nil
}

// op2 generates a one-source operator (neg, not).
func (g *Gen) op2(op *operator, t ir.Type, a *Operand) (*Operand, error) {
	g.RM.Pin(a)
	av, err := g.valueReg(a)
	if err != nil {
		return nil, err
	}
	g.RM.Pin(av)
	dst, err := g.reclaimOrAlloc(av, t)
	if err != nil {
		return nil, err
	}
	g.E.EmitResultFirst(op[t], dst, av)
	g.RM.Unpin()
	g.RM.Consume(av)
	return dst, nil
}

// move puts src's value into the register operand dst (the Dreg and
// return-value paths; memory destinations go through store).
func (g *Gen) move(t ir.Type, src, dst *Operand) error {
	switch src.Mode {
	case OImm:
		if t.IsFloat() {
			g.E.EmitResultFirst("lfi", dst, g.fimmOp(t, floatVal(t, float64(src.Val))))
		} else {
			g.E.EmitResultFirst("li", dst, src)
		}
	case OFImm:
		g.E.EmitResultFirst("lfi", dst, src)
	case OReg:
		if src.Reg != dst.Reg {
			g.E.EmitResultFirst("mv", dst, src)
		}
	case OLoc:
		g.loadLoc(dst, src)
	default:
		return fmt.Errorf("risc: cannot move operand mode %d", src.Mode)
	}
	return nil
}

// store writes register src into location dst with the sized store of
// the assignment type t (which truncates for the narrowing assignments).
func (g *Gen) store(t ir.Type, src, dst *Operand) error {
	st := stMns[t.Machine()]
	if dst.Deferred {
		addr, err := g.allocReg(ir.Long)
		if err != nil {
			return err
		}
		g.E.EmitResultFirst(ldMns[ir.Long], addr, dst)
		g.E.EmitOps(st, src, g.locOp(t, 0, addr.Reg))
		g.RM.Consume(addr)
		return nil
	}
	g.preAccess(dst)
	g.E.EmitOps(st, src, dst)
	g.postAccess(dst)
	return nil
}

// assign stores src into dst: the only place (besides argument pushes)
// where values reach memory on a load/store machine.
func (g *Gen) assign(t ir.Type, src, dst *Operand) error {
	if dst.Mode == OReg {
		if err := g.move(t, src, dst); err != nil {
			return err
		}
		g.RM.Consume(src)
		g.RM.Consume(dst)
		return nil
	}
	g.RM.Pin(dst)
	sv, err := g.valueReg(src)
	if err != nil {
		return err
	}
	g.RM.Pin(dst)
	g.RM.Pin(sv)
	if err := g.store(t, sv, dst); err != nil {
		return err
	}
	g.RM.Unpin()
	g.RM.Consume(sv)
	g.RM.Consume(dst)
	return nil
}

// assignValue performs an assignment used as a value. Unlike the VAX,
// which re-reads the destination operand, the load/store machine hands
// the *source* on, retyped at the assignment's width: for immediates the
// truncation or rounding happens in the constant, and for registers the
// low bits are already exactly the stored value.
func (g *Gen) assignValue(t ir.Type, src, dst *Operand) (*Operand, error) {
	if dst.Mode == OReg {
		if err := g.move(t, src, dst); err != nil {
			return nil, err
		}
		g.RM.Consume(dst)
		return g.retypeSource(t, src)
	}
	g.RM.Pin(dst)
	sv, err := g.valueReg(src)
	if err != nil {
		return nil, err
	}
	g.RM.Pin(dst)
	g.RM.Pin(sv)
	if err := g.store(t, sv, dst); err != nil {
		return nil, err
	}
	g.RM.Unpin()
	g.RM.Consume(dst)
	if sv != src && (src.Mode == OImm || src.Mode == OFImm) {
		// The materialized copy served the store; the constant itself is
		// the cleaner value to pass on.
		g.RM.Consume(sv)
		return g.retypeSource(t, src)
	}
	return g.retypeSource(t, sv)
}

// retypeSource retypes an assignment source at the destination width.
func (g *Gen) retypeSource(t ir.Type, src *Operand) (*Operand, error) {
	switch src.Mode {
	case OImm:
		if t.IsFloat() {
			return g.fimmOp(t, floatVal(t, float64(src.Val))), nil
		}
		return g.intOp(t, target.TruncImm(src.Val, t)), nil
	case OFImm:
		if t.IsFloat() {
			return g.fimmOp(t, floatVal(t, src.FVal)), nil
		}
		return g.intOp(t, int64(src.FVal)), nil
	case OReg:
		return g.retyped(src, t), nil
	}
	return nil, fmt.Errorf("risc: cannot retype assignment source mode %d", src.Mode)
}

// convert produces src's value as type `to`. Immediates convert at
// table-interpretation time; register values use the cvt family, with
// the unsigned source forms (cvtu..) where zero-extension matters.
func (g *Gen) convert(to ir.Type, src *Operand) (*Operand, error) {
	switch src.Mode {
	case OImm:
		if to.IsFloat() {
			v := float64(src.Val)
			if src.Type.IsFloat() {
				v = floatVal(src.Type, v)
			}
			return g.fimmOp(to, floatVal(to, v)), nil
		}
		return g.intOp(to, src.Val), nil

	case OFImm:
		if to.IsFloat() {
			return g.fimmOp(to, floatVal(to, src.FVal)), nil
		}
		return g.intOp(to, int64(src.FVal)), nil

	case OLoc:
		r, err := g.valueReg(src)
		if err != nil {
			return nil, err
		}
		return g.convert(to, r)
	}

	if suffix(src.Type) == suffix(to) {
		return g.retyped(src, to), nil
	}
	cvt := cvtMns[src.Type][to]
	g.RM.Pin(src)
	dst, err := g.reclaimOrAlloc(src, to)
	if err != nil {
		return nil, err
	}
	g.E.EmitResultFirst(cvt, dst, src)
	g.RM.Unpin()
	g.RM.Consume(src)
	return dst, nil
}

// branchMns holds the compare-and-branch mnemonic for each relation over
// values of each type, resolved when the package loads. It panics unless
// each is a conditional branch of the simulator's instruction table whose
// inverse is the branch of the negated relation.
var branchMns = func() (b [ir.RGE + 1][ir.ULong + 1]string) {
	stems := [...]string{ir.REQ: "beq", ir.RNE: "bne", ir.RLT: "blt", ir.RLE: "ble", ir.RGT: "bgt", ir.RGE: "bge"}
	name := func(rel ir.Rel, t ir.Type) string {
		mn := stems[rel]
		if t.IsUnsigned() && rel != ir.REQ && rel != ir.RNE {
			mn += "u"
		}
		return mn + suffix(t)
	}
	for rel := range b {
		for _, t := range append([]ir.Type{ir.UByte, ir.UWord, ir.ULong}, ir.MachineTypes...) {
			mn, inv := name(ir.Rel(rel), t), name(ir.Rel(rel).Negate(), t)
			if in := instrs[mn]; in.Class&simcore.CondBranch == 0 || in.Inverse != inv {
				panic(fmt.Sprintf("risc: %s is not a conditional branch with inverse %s in the instruction table", mn, inv))
			}
			b[rel][t] = mn
		}
	}
	return b
}()

// emitCall emits the call pseudo-instruction (same frame protocol as the
// VAX calls).
func (g *Gen) emitCall(n *ir.Node) {
	g.E.EmitOps("call", g.intOp(ir.Long, n.Val), g.symOp(n.Sym))
}

// callResult claims the r0 result of a call.
func (g *Gen) callResult(t ir.Type) (*Operand, error) {
	res := g.regOp(t, 0)
	if err := g.RM.AllocSpecific(0, t, res); err != nil {
		return nil, err
	}
	res.Owned = target.RegRange(0, 1)
	return res, nil
}
