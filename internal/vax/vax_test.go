package vax

import (
	"strings"
	"testing"

	"ggcg/internal/ir"
	"ggcg/internal/matcher"
	"ggcg/internal/tablegen"
	"ggcg/internal/target"
)

func TestOperandAsm(t *testing.T) {
	cases := []struct {
		o    Operand
		want string
	}{
		{Operand{Mode: OReg, Reg: 3, Xreg: -1}, "r3"},
		{Operand{Mode: OReg, Reg: ir.RegFP, Xreg: -1}, "fp"},
		{Operand{Mode: OImm, Val: 42, Xreg: -1}, "$42"},
		{Operand{Mode: OImm, Val: -1, Xreg: -1}, "$-1"},
		{Operand{Mode: OFImm, FVal: 2.5, Xreg: -1}, "$2.5"},
		{Operand{Mode: OFImm, FVal: 3, Xreg: -1}, "$3.0"},
		{Operand{Mode: OAbs, Sym: "x", Xreg: -1}, "_x"},
		{Operand{Mode: OAbs, Sym: "x", Off: 8, Xreg: -1}, "_x+8"},
		{Operand{Mode: OAbs, Sym: "a", Xreg: 2}, "_a[r2]"},
		{Operand{Mode: ODisp, Off: -4, Reg: ir.RegFP, Xreg: -1}, "-4(fp)"},
		{Operand{Mode: ODisp, Off: 8, Reg: 1, Xreg: 2}, "8(r1)[r2]"},
		{Operand{Mode: ORegDef, Reg: 5, Xreg: -1}, "(r5)"},
	}
	for _, c := range cases {
		if got := c.o.Asm(); got != c.want {
			t.Errorf("Asm() = %q, want %q", got, c.want)
		}
	}
}

func TestAutoIncFormatsOnce(t *testing.T) {
	o := Operand{Mode: OAutoInc, Type: ir.Long, Reg: 6, Xreg: -1}
	if got := o.Asm(); got != "(r6)+" {
		t.Errorf("first use = %q", got)
	}
	// The descriptor may be reused once (a = b = c); the second reference
	// must refer to the same location, not re-apply the side effect (§6.1).
	if got := o.Asm(); got != "-4(r6)" {
		t.Errorf("second use = %q, want -4(r6)", got)
	}
	d := Operand{Mode: OAutoDec, Type: ir.Word, Reg: 7, Xreg: -1}
	if got := d.Asm(); got != "-(r7)" {
		t.Errorf("first use = %q", got)
	}
	if got := d.Asm(); got != "(r7)" {
		t.Errorf("second use = %q, want (r7)", got)
	}
}

func TestOperandSame(t *testing.T) {
	r0 := Operand{Mode: OReg, Reg: 0, Xreg: -1}
	r1 := Operand{Mode: OReg, Reg: 1, Xreg: -1}
	if !r0.Same(&Operand{Mode: OReg, Reg: 0, Xreg: -1}) || r0.Same(&r1) {
		t.Error("register Same wrong")
	}
	m := Operand{Mode: ODisp, Off: -4, Reg: ir.RegFP, Xreg: -1}
	if !m.Same(&Operand{Mode: ODisp, Off: -4, Reg: ir.RegFP, Xreg: -1}) {
		t.Error("disp Same wrong")
	}
	if m.Same(&Operand{Mode: ODisp, Off: -8, Reg: ir.RegFP, Xreg: -1}) {
		t.Error("different disp reported Same")
	}
	ai := Operand{Mode: OAutoInc, Reg: 6, Xreg: -1}
	if ai.Same(&ai) {
		// Side-effecting modes never bind (two formattings are two
		// different locations).
		t.Error("autoincrement operands must never be Same")
	}
}

func TestRegManDoublePairs(t *testing.T) {
	e := NewEmitter()
	f := &ir.Func{Name: "t"}
	rm := NewRegMan(e, f)
	o := &Operand{Mode: OReg, Type: ir.Double, Xreg: -1}
	r, err := rm.Alloc(ir.Double, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Reg, o.Owned = r, []int{r, r + 1}
	o2 := &Operand{Mode: OReg, Type: ir.Long, Xreg: -1}
	r2, err := rm.Alloc(ir.Long, o2)
	if err != nil {
		t.Fatal(err)
	}
	if r2 == r || r2 == r+1 {
		t.Errorf("single allocation %d overlaps double pair %d,%d", r2, r, r+1)
	}
	rm.Consume(o)
	o2.Reg, o2.Owned = r2, []int{r2}
	rm.Consume(o2)
	if err := rm.CheckStatementEnd(); err != nil {
		t.Errorf("%v", err)
	}
}

// gen returns a generator with a fresh emitter for idiom tests.
func testGen() *Gen {
	return NewGen(NewEmitter(), &ir.Func{Name: "t"})
}

// TestF3_InstructionTable reproduces the paper's Figure 3 walkthrough:
// generating a = 17 + a selects addl3, then the binding idiom turns it
// into addl2, and adding one selects incl.
func TestF3_InstructionTable(t *testing.T) {
	cluster := addOps
	if len(cluster) != 3 || cluster[0].nops != 3 || cluster[1].nops != 2 || cluster[2].nops != 1 {
		t.Fatalf("add cluster malformed: %+v", cluster)
	}
	if !cluster[0].binding || !cluster[0].revOK {
		t.Error("three-address add must allow binding with swappable sources")
	}
	if mn(cluster[0].print, ir.Long) != "addl3" || mn(cluster[2].print, ir.Byte) != "incb" {
		t.Error("print templates wrong")
	}
}

func TestF3_BindingIdiom(t *testing.T) {
	g := testGen()
	// r0 holds a computed value; adding an immediate binds to addl2.
	a := &Operand{Mode: OReg, Type: ir.Long, Reg: 0, Xreg: -1}
	r, _ := g.RM.Alloc(ir.Long, a)
	a.Reg, a.Owned = r, []int{r}
	res, err := g.binary(addOps, ir.Long, a, intOp(ir.Long, 17))
	if err != nil {
		t.Fatal(err)
	}
	out := g.E.String()
	if !strings.Contains(out, "addl2\t$17,r0") {
		t.Errorf("binding idiom missed:\n%s", out)
	}
	if g.BindingIdioms != 1 {
		t.Errorf("binding idioms = %d", g.BindingIdioms)
	}
	g.RM.Consume(res)
}

func TestF3_RangeIdiomIncDec(t *testing.T) {
	g := testGen()
	a := &Operand{Mode: OReg, Type: ir.Long, Xreg: -1}
	r, _ := g.RM.Alloc(ir.Long, a)
	a.Reg, a.Owned = r, []int{r}
	res, err := g.binary(addOps, ir.Long, a, intOp(ir.Long, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g.E.String(), "incl\tr0") {
		t.Errorf("add of one did not become incl:\n%s", g.E.String())
	}
	if g.RangeIdioms != 1 {
		t.Errorf("range idioms = %d", g.RangeIdioms)
	}
	g.RM.Consume(res)

	g2 := testGen()
	b := &Operand{Mode: OReg, Type: ir.Long, Xreg: -1}
	r2, _ := g2.RM.Alloc(ir.Long, b)
	b.Reg, b.Owned = r2, []int{r2}
	res2, err := g2.binary(subOps, ir.Long, b, intOp(ir.Long, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g2.E.String(), "decl\tr0") {
		t.Errorf("sub of one did not become decl:\n%s", g2.E.String())
	}
	g2.RM.Consume(res2)
}

func TestF3_AddMinusOneBecomesDec(t *testing.T) {
	g := testGen()
	a := &Operand{Mode: OReg, Type: ir.Long, Xreg: -1}
	r, _ := g.RM.Alloc(ir.Long, a)
	a.Reg, a.Owned = r, []int{r}
	res, _ := g.binary(addOps, ir.Long, a, intOp(ir.Long, -1))
	if !strings.Contains(g.E.String(), "decl\tr0") {
		t.Errorf("add of minus one did not become decl:\n%s", g.E.String())
	}
	g.RM.Consume(res)
}

func TestF3_NoBindingEmitsThreeAddress(t *testing.T) {
	g := testGen()
	// Neither source is an owned register: the three-address form is used.
	res, err := g.binary(addOps, ir.Long, intOp(ir.Long, 5),
		&Operand{Mode: OAbs, Type: ir.Long, Sym: "x", Xreg: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g.E.String(), "addl3\t$5,_x,r0") {
		t.Errorf("three-address form expected:\n%s", g.E.String())
	}
	g.RM.Consume(res)
}

func TestMoveClearIdiom(t *testing.T) {
	g := testGen()
	g.move(ir.Long, intOp(ir.Long, 0), &Operand{Mode: OAbs, Type: ir.Long, Sym: "x", Xreg: -1})
	if !strings.Contains(g.E.String(), "clrl\t_x") {
		t.Errorf("store of zero did not become clrl:\n%s", g.E.String())
	}
	g2 := testGen()
	o := &Operand{Mode: OAbs, Type: ir.Long, Sym: "x", Xreg: -1}
	g2.move(ir.Long, o, &Operand{Mode: OAbs, Type: ir.Long, Sym: "x", Xreg: -1})
	if g2.E.Lines() != 0 {
		t.Errorf("self move not suppressed:\n%s", g2.E.String())
	}
}

func TestSubUsesVAXOperandOrder(t *testing.T) {
	g := testGen()
	res, err := g.binary(subOps, ir.Long,
		&Operand{Mode: OAbs, Type: ir.Long, Sym: "a", Xreg: -1},
		&Operand{Mode: OAbs, Type: ir.Long, Sym: "b", Xreg: -1})
	if err != nil {
		t.Fatal(err)
	}
	// a - b must emit subl3 b,a,dst (sub, minuend, dst).
	if !strings.Contains(g.E.String(), "subl3\t_b,_a,r0") {
		t.Errorf("sub operand order wrong:\n%s", g.E.String())
	}
	g.RM.Consume(res)
}

func TestConvertChoosesMovzForUnsigned(t *testing.T) {
	g := testGen()
	src := &Operand{Mode: OAbs, Type: ir.UByte, Sym: "u", Xreg: -1}
	res, err := g.convert(ir.Long, src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g.E.String(), "movzbl\t_u,r0") {
		t.Errorf("unsigned widen should movzbl:\n%s", g.E.String())
	}
	g.RM.Consume(res)

	g2 := testGen()
	src2 := &Operand{Mode: OAbs, Type: ir.Byte, Sym: "c", Xreg: -1}
	res2, err := g2.convert(ir.Long, src2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g2.E.String(), "cvtbl\t_c,r0") {
		t.Errorf("signed widen should cvtbl:\n%s", g2.E.String())
	}
	g2.RM.Consume(res2)
}

func TestConvertConstantIsFree(t *testing.T) {
	g := testGen()
	res, err := g.convert(ir.Long, intOp(ir.Byte, 27))
	if err != nil {
		t.Fatal(err)
	}
	if g.E.Lines() != 0 {
		t.Errorf("constant conversion emitted code:\n%s", g.E.String())
	}
	if res.Mode != OImm || res.Val != 27 || res.Type != ir.Long {
		t.Errorf("converted constant = %+v", res)
	}
}

func TestGrammarBuildsAndValidates(t *testing.T) {
	g, err := Grammar()
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Productions < 200 {
		t.Errorf("replicated grammar has only %d productions", st.Productions)
	}
	if st.ChainRules == 0 {
		t.Error("no chain rules; the conversion sub-grammar is missing")
	}
	tb, err := tablegen.Build(g, tablegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Stats.States < 300 {
		t.Errorf("only %d states", tb.Stats.States)
	}
	if len(tb.SemBlocks) != 0 {
		t.Errorf("semantic blocks present: %v", tb.SemBlocks)
	}
}

func TestEmitterLinesAndLabels(t *testing.T) {
	e := NewEmitter()
	e.Emit("movl", "$1", "r0")
	e.Label(3)
	e.Emit("ret")
	if e.Lines() != 2 {
		t.Errorf("lines = %d, want 2 (labels are not instructions)", e.Lines())
	}
	if !strings.Contains(e.String(), "L3:") {
		t.Error("label missing")
	}
}

func TestEmitterLastSet(t *testing.T) {
	e := NewEmitter()
	dst := &Operand{Mode: OReg, Reg: 2, Xreg: -1}
	e.EmitResult("addl2", dst, "$1")
	if !e.LastSet(2) || e.LastSet(1) {
		t.Error("LastSet wrong after register result")
	}
	e.Emit("jbr", "L1")
	if e.LastSet(2) {
		t.Error("LastSet survives a non-result instruction")
	}
}

func TestEmitGlobals(t *testing.T) {
	e := NewEmitter()
	target.EmitGlobals(e, []ir.Global{
		{Name: "x", Type: ir.Long, Size: 4},
		{Name: "arr", Type: ir.Long, Size: 40},
		{Name: "init", Type: ir.Long, Size: 4, HasInit: true, Init: -7},
		{Name: "c", Type: ir.Byte, Size: 1, HasInit: true, Init: 9},
		{Name: "d", Type: ir.Double, Size: 8, HasInit: true, FInit: 1.5},
	})
	out := e.String()
	for _, want := range []string{".comm _x,4", ".comm _arr,40", "_init:", ".long -7", "_c:", ".byte 9", "_d:"} {
		if !strings.Contains(out, want) {
			t.Errorf("globals output missing %q:\n%s", want, out)
		}
	}
}

func TestAddressRegisterSpillsToDeferred(t *testing.T) {
	e := NewEmitter()
	f := &ir.Func{Name: "t"}
	rm := NewRegMan(e, f)
	// An addressing-mode operand owning its base register.
	mem := &Operand{Mode: ODisp, Type: ir.Long, Off: 8, Xreg: -1}
	r, err := rm.Alloc(ir.Long, mem)
	if err != nil {
		t.Fatal(err)
	}
	mem.Reg, mem.Owned = r, []int{r}
	// Exhaust the bank; the address register must spill by deferring.
	var ops []*Operand
	for i := 0; i < ir.NAllocatable; i++ {
		o := &Operand{Mode: OReg, Type: ir.Long, Xreg: -1}
		rr, err := rm.Alloc(ir.Long, o)
		if err != nil {
			t.Fatal(err)
		}
		o.Reg, o.Owned = rr, []int{rr}
		ops = append(ops, o)
	}
	if !mem.Deferred || mem.Reg != ir.RegFP {
		t.Fatalf("address operand not deferred: %+v", mem)
	}
	if !strings.Contains(e.String(), "addl3\t$8,r0,") {
		t.Errorf("no address computation emitted:\n%s", e.String())
	}
	if !strings.HasPrefix(mem.Asm(), "*") {
		t.Errorf("deferred operand renders as %q", mem.Asm())
	}
	for _, o := range ops {
		rm.Consume(o)
	}
	rm.Consume(mem)
	if err := rm.CheckStatementEnd(); err != nil {
		t.Error(err)
	}
}

func TestTransferMovesOwnership(t *testing.T) {
	e := NewEmitter()
	f := &ir.Func{Name: "t"}
	rm := NewRegMan(e, f)
	sub := &Operand{Mode: OReg, Type: ir.Long, Xreg: -1}
	r, _ := rm.Alloc(ir.Long, sub)
	sub.Reg, sub.Owned = r, []int{r}
	outer := &Operand{Mode: ORegDef, Type: ir.Long, Reg: r, Xreg: -1}
	outer.Owned = rm.Transfer(sub, outer)
	if len(sub.Owned) != 0 || len(outer.Owned) != 1 {
		t.Fatalf("ownership lists wrong: sub %v outer %v", sub.Owned, outer.Owned)
	}
	// Spilling must now mutate the outer operand, not the stale sub.
	var ops []*Operand
	for i := 0; i < ir.NAllocatable; i++ {
		o := &Operand{Mode: OReg, Type: ir.Long, Xreg: -1}
		rr, err := rm.Alloc(ir.Long, o)
		if err != nil {
			t.Fatal(err)
		}
		o.Reg, o.Owned = rr, []int{rr}
		ops = append(ops, o)
	}
	if !outer.Deferred {
		t.Errorf("outer operand not redirected: %+v", outer)
	}
	if sub.Mode != OReg || sub.Reg != r {
		t.Errorf("stale sub-operand mutated: %+v", sub)
	}
	for _, o := range ops {
		rm.Consume(o)
	}
	rm.Consume(outer)
	if err := rm.CheckStatementEnd(); err != nil {
		t.Error(err)
	}
}

// TestAllocSpecificRelocatesIndexRegister covers the store-destination
// hazard the differential fuzzer found: when r0 is the index register of a
// pending indexed operand (arr[r0] on the left of an assignment whose right
// side calls _urem), claiming r0 for the call result must relocate the
// index register — materializing the operand's value would read the store
// destination before the store, and leave the descriptor pointing at the
// clobbered register.
func TestAllocSpecificRelocatesIndexRegister(t *testing.T) {
	e := NewEmitter()
	rm := NewRegMan(e, &ir.Func{Name: "t"})

	idx := &Operand{Mode: OReg, Type: ir.Long, Xreg: -1}
	r, err := rm.Alloc(ir.Long, idx)
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 {
		t.Fatalf("first allocation got r%d, want r0", r)
	}
	idx.Reg, idx.Owned = r, []int{r}

	// The addressing mode absorbs r0 as its index register.
	dst := &Operand{Mode: OAbs, Type: ir.Long, Sym: "arr", Xreg: r}
	dst.Owned = rm.Transfer(idx, dst)

	res := &Operand{Mode: OReg, Type: ir.Long, Reg: 0, Xreg: -1}
	if err := rm.AllocSpecific(0, ir.Long, res); err != nil {
		t.Fatal(err)
	}
	if dst.Xreg == 0 {
		t.Errorf("destination still indexes with the claimed register: %s", dst.Asm())
	}
	want := "\tmovl\tr0," + ir.RegName(dst.Xreg) + "\n"
	if e.String() != want {
		t.Errorf("evacuation emitted %q, want %q", e.String(), want)
	}
	if dst.Asm() != "_arr["+ir.RegName(dst.Xreg)+"]" {
		t.Errorf("relocated operand renders as %q", dst.Asm())
	}
}

// TestAllocSpecificRelocatesBaseRegister: the same hazard with r0 as the
// base register of a deferred-style memory operand ((r0) as a store
// target).
func TestAllocSpecificRelocatesBaseRegister(t *testing.T) {
	e := NewEmitter()
	rm := NewRegMan(e, &ir.Func{Name: "t"})

	ptr := &Operand{Mode: OReg, Type: ir.Long, Xreg: -1}
	r, err := rm.Alloc(ir.Long, ptr)
	if err != nil {
		t.Fatal(err)
	}
	ptr.Reg, ptr.Owned = r, []int{r}
	dst := &Operand{Mode: ORegDef, Type: ir.Long, Reg: r, Xreg: -1}
	dst.Owned = rm.Transfer(ptr, dst)

	res := &Operand{Mode: OReg, Type: ir.Long, Reg: 0, Xreg: -1}
	if err := rm.AllocSpecific(0, ir.Long, res); err != nil {
		t.Fatal(err)
	}
	if dst.Reg == 0 {
		t.Errorf("destination still based on the claimed register: %s", dst.Asm())
	}
	if got, want := dst.Asm(), "("+ir.RegName(dst.Reg)+")"; got != want {
		t.Errorf("relocated operand renders as %q, want %q", got, want)
	}
}

// TestSpillIndexedOperand covers the register-exhaustion case the
// differential fuzzer found: when every allocatable register is the index
// of a pending indexed operand, a further allocation must spill one by
// materializing its effective address (movaX, which scales the index by
// the operand size) and turning the descriptor into the deferred form.
func TestSpillIndexedOperand(t *testing.T) {
	e := NewEmitter()
	f := &ir.Func{Name: "t"}
	rm := NewRegMan(e, f)

	var ops []*Operand
	for i := 0; i < ir.NAllocatable; i++ {
		idx := &Operand{Mode: OReg, Type: ir.Long, Xreg: -1}
		r, err := rm.Alloc(ir.Long, idx)
		if err != nil {
			t.Fatal(err)
		}
		idx.Reg, idx.Owned = r, []int{r}
		o := &Operand{Mode: OAbs, Type: ir.Word, Sym: "sbuf", Xreg: r}
		o.Owned = rm.Transfer(idx, o)
		ops = append(ops, o)
	}

	v := &Operand{Mode: OReg, Type: ir.Long, Xreg: -1}
	r, err := rm.Alloc(ir.Long, v)
	if err != nil {
		t.Fatalf("allocation with all registers indexing failed: %v", err)
	}
	v.Reg, v.Owned = r, []int{r}

	spilled := ops[0]
	if spilled.Mode != ODisp || !spilled.Deferred || spilled.Reg != ir.RegFP || spilled.Xreg != -1 {
		t.Errorf("oldest operand not spilled to a deferred slot: %s", spilled.Asm())
	}
	want := "\tmovaw\t_sbuf[r0]," + spilled.Asm()[1:] + "\n"
	if e.String() != want {
		t.Errorf("spill emitted %q, want %q", e.String(), want)
	}
	if rm.Spills != 1 {
		t.Errorf("spills = %d, want 1", rm.Spills)
	}
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestBridgeDedicatedBaseAllocs pins the bridge productions whose base is
// a dedicated register (mbrdxd, mbrrxd, mbraddrd): the base's descriptor
// is built on the spot and must not escape through the register manager.
// Each allocates exactly as much as its twin whose base arrives as an
// operand attribute (mbrdx, mbrrx, mbraddr), and both emit the same code
// but for the base register's name.
func TestBridgeDedicatedBaseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under the race detector")
	}
	tok := func(n *ir.Node) matcher.Value { return matcher.Value{Tok: &ir.Token{N: n}} }
	var (
		indir = tok(&ir.Node{Op: ir.Indir, Type: ir.Long})
		fp    = tok(ir.NewDreg(ir.Long, ir.RegFP))
		ap    = matcher.Value{Sem: regOp(ir.Long, ir.RegAP)}
		con   = matcher.Value{Sem: int64(-32)}
		rv    = matcher.Value{Sem: intOp(ir.Long, 4)}
		glue  matcher.Value
	)
	for _, c := range []struct {
		dedicated, twin string
		args            func(base matcher.Value) []matcher.Value
	}{
		{"mbrdxd", "mbrdx", func(b matcher.Value) []matcher.Value { return []matcher.Value{indir, glue, glue, con, b, glue, rv, rv} }},
		{"mbrrxd", "mbrrx", func(b matcher.Value) []matcher.Value { return []matcher.Value{indir, glue, b, glue, rv, rv} }},
		{"mbraddrd", "mbraddr", func(b matcher.Value) []matcher.Value { return []matcher.Value{indir, glue, glue, con, b, rv} }},
	} {
		run := func(action string, base matcher.Value) (float64, string) {
			args := c.args(base)
			var asm string
			allocs := testing.AllocsPerRun(20, func() {
				g := testGen()
				if _, err := routineTable[action](g, ir.Long, args); err != nil {
					t.Fatalf("%s: %v", action, err)
				}
				asm = g.E.String()
			})
			return allocs, asm
		}
		da, dasm := run(c.dedicated, fp)
		ta, tasm := run(c.twin, ap)
		if da != ta {
			t.Errorf("%s: %.0f allocs, its twin %s %.0f", c.dedicated, da, c.twin, ta)
		}
		if strings.ReplaceAll(tasm, "ap", "fp") != dasm {
			t.Errorf("%s emitted\n%s\n%s emitted\n%s", c.dedicated, dasm, c.twin, tasm)
		}
	}
}
