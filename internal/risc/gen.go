package risc

import (
	"fmt"
	"math"
	"strconv"

	"ggcg/internal/ir"
	"ggcg/internal/riscsim"
	"ggcg/internal/simcore"
)

// Gen is the instruction-generation phase for the RISC target: the
// semantic actions of the machine description, sharing the matcher, the
// tree-transformation phase and the emitter with the VAX backend through
// the target seam.
type Gen struct {
	E         *Emitter
	RM        *RegMan
	F         *ir.Func
	LabelBase int

	// ImmFolds counts address/operand computations folded into an addi
	// immediate instead of materializing the constant — the RISC
	// counterpart of the VAX's addressing-mode range idioms.
	ImmFolds int
}

// NewGen returns a generator writing f's body through e.
func NewGen(e *Emitter, f *ir.Func) *Gen {
	return &Gen{E: e, RM: NewRegMan(e, f), F: f}
}

// suffix is the sized-instruction suffix for values of type t.
func suffix(t ir.Type) string { return t.Machine().Suffix() }

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
	dst := regOp(t, 0)
	r, err := g.RM.Alloc(t, dst)
	if err != nil {
		return nil, err
	}
	dst.Reg, dst.Owned = r, []int{r}
	return dst, nil
}

// reclaimOrAlloc produces a destination register of type t, reusing src's
// register when the manager allows it.
func (g *Gen) reclaimOrAlloc(src *Operand, t ir.Type) (*Operand, error) {
	dst := regOp(t, 0)
	if r, ok := g.RM.ReclaimAsDest(src, t, dst); ok {
		dst.Reg, dst.Owned = r, []int{r}
		return dst, nil
	}
	r, err := g.RM.Alloc(t, dst)
	if err != nil {
		return nil, err
	}
	dst.Reg, dst.Owned = r, []int{r}
	return dst, nil
}

// preAccess and postAccess emit the explicit pointer adjustment of the
// autostep location forms. The machine has no autostep addressing, so
// *--p becomes addi before the access and *p++ becomes addi after it,
// with the already-stepped location re-read at -Step(base).
func (g *Gen) preAccess(o *Operand) {
	if o.Mode == OLoc && o.Auto < 0 && !o.stepped {
		g.E.Emit("addi", ir.RegName(o.Base), ir.RegName(o.Base),
			"$"+strconv.FormatInt(-o.Step, 10))
		o.stepped = true
	}
}

func (g *Gen) postAccess(o *Operand) {
	if o.Mode == OLoc && o.Auto > 0 && !o.stepped {
		g.E.Emit("addi", ir.RegName(o.Base), ir.RegName(o.Base),
			"$"+strconv.FormatInt(o.Step, 10))
		o.stepped = true
		o.Off = -o.Step
	}
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
			return g.valueReg(fimmOp(o.Type, floatVal(o.Type, float64(o.Val))))
		}
		dst, err := g.allocReg(o.Type)
		if err != nil {
			return nil, err
		}
		g.E.EmitResultFirst("li", dst, o.Asm())
		return dst, nil

	case OFImm:
		dst, err := g.allocReg(o.Type)
		if err != nil {
			return nil, err
		}
		g.E.EmitResultFirst("lfi", dst, o.Asm())
		return dst, nil

	case OLoc:
		g.RM.Pin(o)
		dst, err := g.allocReg(o.Type)
		if err != nil {
			return nil, err
		}
		s := suffix(o.Type)
		if o.Deferred {
			// The frame slot holds the address: reload it, then load
			// through it (the simulator resolves operands before writing
			// the destination, so dst can serve as its own base).
			g.E.EmitResultFirst("ldl", dst, fmt.Sprintf("%d(fp)", o.Off))
			g.E.EmitResultFirst("ld"+s, dst, "("+ir.RegName(dst.Reg)+")")
		} else {
			g.preAccess(o)
			g.E.EmitResultFirst("ld"+s, dst, o.Asm())
			g.postAccess(o)
		}
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

// mnFor maps an operator key and type to the instruction mnemonic,
// choosing the unsigned forms where the machine distinguishes them.
func mnFor(key string, t ir.Type) string {
	switch key {
	case "div":
		if t.IsUnsigned() {
			key = "divu"
		}
	case "mod":
		key = "rem"
		if t.IsUnsigned() {
			key = "remu"
		}
	case "lsh":
		key = "sll"
		if t.IsUnsigned() {
			key = "sllu"
		}
	case "rsh":
		key = "sra"
		if t.IsUnsigned() {
			key = "srl"
		}
	}
	return key + suffix(t)
}

// op3 generates a three-register operator, folding small integer
// constants of add/sub into addi.
func (g *Gen) op3(key string, t ir.Type, a, b *Operand) (*Operand, error) {
	if t.IsInteger() {
		switch {
		case key == "add" && imm32(b):
			return g.foldAddi(t, a, b.Val)
		case key == "add" && imm32(a):
			return g.foldAddi(t, b, a.Val)
		case key == "sub" && imm32(b) && b.Val != math.MinInt32:
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
	dst := regOp(t, 0)
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
	dst.Owned = []int{dst.Reg}
	g.E.EmitResultFirst(mnFor(key, t), dst, av.Asm(), bv.Asm())
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
	g.E.EmitResultFirst("addi", dst, av.Asm(), "$"+strconv.FormatInt(k, 10))
	g.RM.Unpin()
	g.RM.Consume(av)
	g.ImmFolds++
	return dst, nil
}

// op2 generates a one-source operator (neg, not).
func (g *Gen) op2(key string, t ir.Type, a *Operand) (*Operand, error) {
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
	g.E.EmitResultFirst(key+suffix(t), dst, av.Asm())
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
			g.E.EmitResultFirst("lfi", dst, fimmOp(t, floatVal(t, float64(src.Val))).Asm())
		} else {
			g.E.EmitResultFirst("li", dst, src.Asm())
		}
	case OFImm:
		g.E.EmitResultFirst("lfi", dst, src.Asm())
	case OReg:
		if src.Reg != dst.Reg {
			g.E.EmitResultFirst("mv", dst, ir.RegName(src.Reg))
		}
	case OLoc:
		s := suffix(src.Type)
		if src.Deferred {
			g.E.EmitResultFirst("ldl", dst, fmt.Sprintf("%d(fp)", src.Off))
			g.E.EmitResultFirst("ld"+s, dst, "("+ir.RegName(dst.Reg)+")")
		} else {
			g.preAccess(src)
			g.E.EmitResultFirst("ld"+s, dst, src.Asm())
			g.postAccess(src)
		}
	default:
		return fmt.Errorf("risc: cannot move operand mode %d", src.Mode)
	}
	return nil
}

// store writes register src into location dst with the sized store of
// the assignment type t (which truncates for the narrowing assignments).
func (g *Gen) store(t ir.Type, src, dst *Operand) error {
	s := suffix(t)
	if dst.Deferred {
		addr, err := g.allocReg(ir.Long)
		if err != nil {
			return err
		}
		g.E.EmitResultFirst("ldl", addr, fmt.Sprintf("%d(fp)", dst.Off))
		g.E.Emit("st"+s, ir.RegName(src.Reg), "("+ir.RegName(addr.Reg)+")")
		g.RM.Consume(addr)
		return nil
	}
	g.preAccess(dst)
	g.E.Emit("st"+s, ir.RegName(src.Reg), dst.Asm())
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
			return fimmOp(t, floatVal(t, float64(src.Val))), nil
		}
		return intOp(t, truncImm(src.Val, t)), nil
	case OFImm:
		if t.IsFloat() {
			return fimmOp(t, floatVal(t, src.FVal)), nil
		}
		return intOp(t, int64(src.FVal)), nil
	case OReg:
		out := &Operand{}
		*out = *src
		out.Type = t
		out.Owned = nil
		out.Owned = g.RM.Transfer(src, out)
		return out, nil
	}
	return nil, fmt.Errorf("risc: cannot retype assignment source mode %d", src.Mode)
}

// truncImm truncates an integer immediate to the assignment type.
func truncImm(v int64, t ir.Type) int64 {
	switch t.Size() {
	case 1:
		return int64(int8(v))
	case 2:
		return int64(int16(v))
	}
	return v
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
			return fimmOp(to, floatVal(to, v)), nil
		}
		return intOp(to, src.Val), nil

	case OFImm:
		if to.IsFloat() {
			return fimmOp(to, floatVal(to, src.FVal)), nil
		}
		return intOp(to, int64(src.FVal)), nil

	case OLoc:
		r, err := g.valueReg(src)
		if err != nil {
			return nil, err
		}
		return g.convert(to, r)
	}

	fs, ts := suffix(src.Type), suffix(to)
	if fs == ts {
		out := &Operand{}
		*out = *src
		out.Type = to
		out.Owned = nil
		out.Owned = g.RM.Transfer(src, out)
		return out, nil
	}
	mn := "cvt"
	if src.Type.IsUnsigned() && (to.IsFloat() || to.Size() > src.Type.Size()) {
		mn = "cvtu"
	}
	g.RM.Pin(src)
	dst, err := g.reclaimOrAlloc(src, to)
	if err != nil {
		return nil, err
	}
	g.E.EmitResultFirst(mn+fs+ts, dst, ir.RegName(src.Reg))
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
	instrs := riscsim.Instrs()
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

// branchMn returns the compare-and-branch mnemonic for a relation over
// values of type t.
func branchMn(rel ir.Rel, t ir.Type) string { return branchMns[rel][t] }

// cmpbr generates the compare-and-branch statement.
func (g *Gen) cmpbr(cmp *ir.Node, a, b *Operand, target string) error {
	g.RM.Pin(a)
	g.RM.Pin(b)
	av, err := g.valueReg(a)
	if err != nil {
		return err
	}
	g.RM.Pin(av)
	g.RM.Pin(b)
	bv, err := g.valueReg(b)
	if err != nil {
		return err
	}
	g.RM.Unpin()
	g.E.Emit(branchMn(ir.Rel(cmp.Val), cmp.Type),
		ir.RegName(av.Reg), ir.RegName(bv.Reg), target)
	g.RM.Consume(av)
	g.RM.Consume(bv)
	return nil
}

// emitCall emits the call pseudo-instruction (same frame protocol as the
// VAX calls).
func (g *Gen) emitCall(n *ir.Node) {
	g.E.Emit("call", fmt.Sprintf("$%d", n.Val), "_"+n.Sym)
}

// callResult claims the r0 result of a call.
func (g *Gen) callResult(t ir.Type) (*Operand, error) {
	res := regOp(t, 0)
	if err := g.RM.AllocSpecific(0, t, res); err != nil {
		return nil, err
	}
	res.Owned = []int{0}
	return res, nil
}
