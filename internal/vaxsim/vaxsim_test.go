package vaxsim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ggcg/internal/simcore"
)

func assemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func run(t *testing.T, src string, fn string, args ...int64) (*Machine, int64) {
	t.Helper()
	m := New(assemble(t, src))
	r, err := m.Call(fn, args...)
	if err != nil {
		t.Fatal(err)
	}
	return m, r
}

const header = ".text\n"

func TestMoveAndReturn(t *testing.T) {
	_, r := run(t, header+`
_f:	.word 0
	movl $42,r0
	ret
`, "_f")
	if r != 42 {
		t.Errorf("r0 = %d, want 42", r)
	}
}

func TestArgumentsViaAP(t *testing.T) {
	_, r := run(t, header+`
_add:	.word 0
	addl3 4(ap),8(ap),r0
	ret
`, "_add", 30, 12)
	if r != 42 {
		t.Errorf("30+12 = %d", r)
	}
}

func TestSub3OperandOrder(t *testing.T) {
	// subl3 a,b,dst computes b-a, the VAX operand order.
	_, r := run(t, header+`
_f:	.word 0
	subl3 $12,$30,r0
	ret
`, "_f")
	if r != 18 {
		t.Errorf("30-12 = %d, want 18", r)
	}
}

func TestDiv3OperandOrder(t *testing.T) {
	_, r := run(t, header+`
_f:	.word 0
	divl3 $5,$30,r0
	ret
`, "_f")
	if r != 6 {
		t.Errorf("30/5 = %d, want 6", r)
	}
}

func TestNegativeDivisionTruncates(t *testing.T) {
	_, r := run(t, header+`
_f:	.word 0
	divl3 $4,$-7,r0
	ret
`, "_f")
	if r != -1 {
		t.Errorf("-7/4 = %d, want -1", r)
	}
}

func TestGlobalsAndDisplacement(t *testing.T) {
	m, _ := run(t, `
.data
.comm _x,4
.comm _arr,40
.text
_f:	.word 0
	movl $7,_x
	movl $99,_arr+8
	ret
`, "_f")
	if v, _ := m.ReadGlobal("_x", 4); v != 7 {
		t.Errorf("_x = %d", v)
	}
	a, _ := m.Global("_arr")
	if got := simcore.Extend(m.Mem.Load(a+8, 4), 4, false); got != 99 {
		t.Errorf("_arr[2] = %d", got)
	}
}

func TestIndexedAddressingScales(t *testing.T) {
	m, _ := run(t, `
.data
.comm _arr,40
.text
_f:	.word 0
	movl $3,r1
	movl $55,_arr[r1]
	movw $7,_arr+20[r1]
	ret
`, "_f")
	a, _ := m.Global("_arr")
	if got := simcore.Extend(m.Mem.Load(a+12, 4), 4, false); got != 55 {
		t.Errorf("long index store: got %d at +12", got)
	}
	if got := simcore.Extend(m.Mem.Load(a+26, 2), 2, false); got != 7 {
		t.Errorf("word index store: got %d at +26", got)
	}
}

func TestLocalsAndFrame(t *testing.T) {
	_, r := run(t, header+`
_f:	.word 0
	subl2 $8,sp
	movl $5,-4(fp)
	movl $6,-8(fp)
	addl3 -4(fp),-8(fp),r0
	ret
`, "_f")
	if r != 11 {
		t.Errorf("locals sum = %d", r)
	}
}

func TestLoopWithBranches(t *testing.T) {
	// sum 1..10
	_, r := run(t, header+`
_f:	.word 0
	clrl r0
	movl $1,r1
L1:	cmpl r1,$10
	jgtr L2
	addl2 r1,r0
	incl r1
	jbr L1
L2:	ret
`, "_f")
	if r != 55 {
		t.Errorf("sum = %d, want 55", r)
	}
}

func TestUnsignedBranches(t *testing.T) {
	// -1 compared to 1: signed less, unsigned greater.
	_, r := run(t, header+`
_f:	.word 0
	clrl r0
	cmpl $-1,$1
	jlss L1
	jbr L2
L1:	addl2 $1,r0
L2:	cmpl $-1,$1
	jgtru L3
	jbr L4
L3:	addl2 $2,r0
L4:	ret
`, "_f")
	if r != 3 {
		t.Errorf("flags = %d, want 3 (signed-less and unsigned-greater)", r)
	}
}

func TestByteWordSubregisterWrites(t *testing.T) {
	_, r := run(t, header+`
_f:	.word 0
	movl $0x11223344,r0
	movb $0x55,r0
	ret
`, "_f")
	if uint32(r) != 0x11223355 {
		t.Errorf("r0 = %#x, want 0x11223355", uint32(r))
	}
}

func TestMovzAndCvt(t *testing.T) {
	_, r := run(t, header+`
_f:	.word 0
	movl $-1,r1
	movzbl r1,r0
	ret
`, "_f")
	if r != 255 {
		t.Errorf("movzbl(-1) = %d, want 255", r)
	}
	_, r2 := run(t, header+`
_f:	.word 0
	movl $-1,r1
	cvtbl r1,r0
	ret
`, "_f")
	if r2 != -1 {
		t.Errorf("cvtbl(-1) = %d, want -1", r2)
	}
}

func TestFloatArithmetic(t *testing.T) {
	m, _ := run(t, `
.data
.comm _g,8
.text
_f:	.word 0
	movd $1.5,r0
	addd2 $2.25,r0
	movd r0,_g
	ret
`, "_f")
	if v, _ := m.ReadGlobalFloat("_g", 8); v != 3.75 {
		t.Errorf("_g = %g, want 3.75", v)
	}
}

func TestFloatCvtTruncates(t *testing.T) {
	_, r := run(t, header+`
_f:	.word 0
	movf $3.9,r1
	cvtfl r1,r0
	ret
`, "_f")
	if r != 3 {
		t.Errorf("cvtfl(3.9) = %d, want 3", r)
	}
}

func TestCallsAndRecursion(t *testing.T) {
	// fact(n) = n<=1 ? 1 : n*fact(n-1), keeping n in r6 across the call
	// to exercise the entry-mask register save.
	_, r := run(t, header+`
_fact:	.word 0
	movl 4(ap),r6
	cmpl r6,$1
	jgtr L1
	movl $1,r0
	ret
L1:	subl3 $1,r6,r1
	pushl r1
	calls $1,_fact
	mull3 r6,r0,r0
	ret
`, "_fact", 6)
	if r != 720 {
		t.Errorf("fact(6) = %d, want 720", r)
	}
}

func TestUnsignedDivisionBuiltins(t *testing.T) {
	_, r := run(t, header+`
_f:	.word 0
	pushl $10
	pushl $-2
	calls $2,_udiv
	ret
`, "_f")
	// (2^32-2)/10
	if uint32(r) != (1<<32-2)/10 {
		t.Errorf("udiv = %d, want %d", uint32(r), uint32((1<<32-2)/10))
	}
	_, r2 := run(t, header+`
_f:	.word 0
	pushl $7
	pushl $-1
	calls $2,_urem
	ret
`, "_f")
	if uint32(r2) != (1<<32-1)%7 {
		t.Errorf("urem = %d, want %d", uint32(r2), uint32((1<<32-1)%7))
	}
}

func TestAutoIncrementDecrement(t *testing.T) {
	m, _ := run(t, `
.data
.comm _a,12
.text
_f:	.word 0
	moval _a,r1
	movl $5,(r1)+
	movl $6,(r1)+
	movl $7,(r1)
	moval _a+12,r2
	movl -(r2),r0
	ret
`, "_f")
	a, _ := m.Global("_a")
	want := []int64{5, 6, 7}
	for i, w := range want {
		if got := simcore.Extend(m.Mem.Load(a+uint32(4*i), 4), 4, false); got != w {
			t.Errorf("_a[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestAshl(t *testing.T) {
	cases := []struct {
		cnt, src, want int64
	}{
		{3, 5, 40}, {-2, 40, 10}, {-3, -16, -2}, {0, 9, 9}, {35, 1, 0},
	}
	for _, c := range cases {
		_, r := run(t, header+`
_f:	.word 0
	ashl 4(ap),8(ap),r0
	ret
`, "_f", c.cnt, c.src)
		if r != c.want {
			t.Errorf("ashl %d,%d = %d, want %d", c.cnt, c.src, r, c.want)
		}
	}
}

func TestMnegMcom(t *testing.T) {
	_, r := run(t, header+`
_f:	.word 0
	mnegl $17,r1
	mcoml r1,r0
	ret
`, "_f")
	if r != 16 {
		t.Errorf("^(-17) = %d, want 16", r)
	}
}

func TestBicBisXor(t *testing.T) {
	_, r := run(t, header+`
_f:	.word 0
	movl $0xff,r0
	bicl2 $0x0f,r0
	bisl2 $0x100,r0
	xorl2 $0x1f0,r0
	ret
`, "_f")
	// 0xff &^ 0x0f = 0xf0; | 0x100 = 0x1f0; ^ 0x1f0 = 0
	if r != 0 {
		t.Errorf("bit ops = %#x, want 0", r)
	}
}

func TestDataInitialization(t *testing.T) {
	m, _ := run(t, `
.data
_tab:	.long 10,20,30
_b:	.byte 7
.text
_f:	.word 0
	movl _tab+4,r0
	ret
`, "_f")
	if v, _ := m.ReadGlobal("_b", 1); v != 7 {
		t.Errorf("_b = %d", v)
	}
	if r0 := int64(int32(m.R[0])); r0 != 20 {
		t.Errorf("_tab[1] = %d", r0)
	}
}

func TestErrors(t *testing.T) {
	badAsm := []string{
		"frobnicate r0,r1\n",
		"movl $1\n",    // missing operand count checked at run time
		"movl $$,r0\n", // bad immediate
		"movl 4(zz),r0\n",
		".bogus 3\n",
		".comm _x\n",
	}
	for _, src := range badAsm {
		if _, err := Assemble(header + "_f:\n" + src); err == nil {
			// Operand-count errors surface at execution; others must fail
			// at assembly. movl $1 is the run-time case.
			if !strings.Contains(src, "movl $1") {
				t.Errorf("Assemble(%q) succeeded", src)
			}
		}
	}
	// Operand-count errors are runtime errors.
	mc := New(assemble(t, header+"_f:\t.word 0\n\tmovl $1\n\tret\n"))
	if _, err := mc.Call("_f"); err == nil || !strings.Contains(err.Error(), "operands") {
		t.Errorf("operand count: %v", err)
	}
	// Runtime errors.
	m := New(assemble(t, header+"_f:\t.word 0\n\tdivl3 $0,$5,r0\n\tret\n"))
	if _, err := m.Call("_f"); err == nil || !strings.Contains(err.Error(), "divide by zero") {
		t.Errorf("div by zero: %v", err)
	}
	m2 := New(assemble(t, header+"_f:\t.word 0\nL1:\tjbr L1\n"))
	m2.MaxSteps = 1000
	if _, err := m2.Call("_f"); err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("infinite loop: %v", err)
	}
	if _, err := m2.Call("_nope"); err == nil {
		t.Error("calling undefined function succeeded")
	}
}

func TestUndefinedBranchTargetRejected(t *testing.T) {
	if _, err := Assemble(header + "_f:\tjbr L99\n"); err == nil {
		t.Error("undefined label accepted")
	}
}

func TestStepCounts(t *testing.T) {
	m, _ := run(t, header+`
_f:	.word 0
	movl $1,r0
	addl2 $1,r0
	addl2 $1,r0
	ret
`, "_f")
	if m.Steps != 4 {
		t.Errorf("steps = %d, want 4", m.Steps)
	}
	if m.Counts["addl2"] != 2 {
		t.Errorf("addl2 count = %d", m.Counts["addl2"])
	}
}

func TestCallPreservingState(t *testing.T) {
	m := New(assemble(t, `
.data
.comm _n,4
.text
_inc:	.word 0
	incl _n
	movl _n,r0
	ret
`))
	if _, err := m.Call("_inc"); err != nil {
		t.Fatal(err)
	}
	r, err := m.CallPreservingState("_inc")
	if err != nil {
		t.Fatal(err)
	}
	if r != 2 {
		t.Errorf("second call = %d, want 2", r)
	}
}

func TestOperandStringRoundTrip(t *testing.T) {
	ops := []string{"r3", "(r4)", "-8(fp)", "4(ap)", "$100", "_x", "_x+4", "(r2)+", "-(r2)", "-4(fp)[r1]"}
	for _, s := range ops {
		o, err := parseOperand(s)
		if err != nil {
			t.Fatalf("parseOperand(%q): %v", s, err)
		}
		if got := o.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestAoblssLoop(t *testing.T) {
	// Sum 0..7 with the loop bottom the peephole optimizer emits.
	_, r := run(t, header+`
_f:	.word 0
	clrl r0
	clrl r1
L1:	addl2 r1,r0
	aoblss $8,r1,L1
	ret
`, "_f")
	if r != 28 {
		t.Errorf("sum 0..7 = %d, want 28", r)
	}
}

func TestAobleqLoop(t *testing.T) {
	_, r := run(t, header+`
_f:	.word 0
	clrl r0
	clrl r1
L1:	addl2 r1,r0
	aobleq $7,r1,L1
	ret
`, "_f")
	if r != 28 {
		t.Errorf("sum 0..7 = %d, want 28", r)
	}
}

func TestAobIndexAtLimitRunsOnce(t *testing.T) {
	// The aob sits at the loop bottom: the body always runs once, and with
	// the index starting at the limit the increment fails the test at once.
	_, r := run(t, header+`
_f:	.word 0
	clrl r0
	movl $8,r1
L1:	incl r0
	aoblss $8,r1,L1
	ret
`, "_f")
	if r != 1 {
		t.Errorf("iterations = %d, want 1", r)
	}
}

func TestAobNegativeRange(t *testing.T) {
	_, r := run(t, header+`
_f:	.word 0
	clrl r0
	movl $-3,r1
L1:	incl r0
	aoblss $0,r1,L1
	ret
`, "_f")
	if r != 3 {
		t.Errorf("iterations = %d, want 3", r)
	}
}

func TestAobMemoryIndexAndLimit(t *testing.T) {
	m, r := run(t, header+`
.data
.comm _i,4
.comm _n,4
.text
_f:	.word 0
	movl $5,_n
	clrl r0
L1:	incl r0
	aoblss _n,_i,L1
	ret
`, "_f")
	if r != 5 {
		t.Errorf("iterations = %d, want 5", r)
	}
	if v, _ := m.ReadGlobal("_i", 4); v != 5 {
		t.Errorf("_i = %d, want 5", v)
	}
}

func TestMovaScalesIndexBySize(t *testing.T) {
	// movab/movaw/moval/movaq scale an index register by their own data
	// size; the computed addresses differ by the element width.
	m, _ := run(t, header+`
.data
.comm _arr,64
.comm _ab,4
.comm _aw,4
.comm _al,4
.comm _aq,4
.text
_f:	.word 0
	movl $3,r1
	movab _arr[r1],_ab
	movaw _arr[r1],_aw
	moval _arr[r1],_al
	movaq _arr[r1],_aq
	ret
`, "_f")
	base, _ := m.Global("_arr")
	for _, tc := range []struct {
		sym  string
		want int64
	}{
		{"_ab", int64(base) + 3},
		{"_aw", int64(base) + 6},
		{"_al", int64(base) + 12},
		{"_aq", int64(base) + 24},
	} {
		if v, _ := m.ReadGlobal(tc.sym, 4); v != tc.want {
			t.Errorf("%s = %d, want %d", tc.sym, v, tc.want)
		}
	}
}

func TestMovaDeferredRoundTrip(t *testing.T) {
	// The spill path materializes an indexed operand's address with movaw
	// and later uses it through the deferred mode.
	_, r := run(t, header+`
.data
.comm _sbuf,16
.text
_f:	.word 0
	movl $6,r1
	movw $1234,_sbuf[r1]
	movaw _sbuf[r1],-4(fp)
	movzwl *-4(fp),r0
	ret
`, "_f")
	if r != 1234 {
		t.Errorf("reload through spilled address = %d, want 1234", r)
	}
}

// TestExecErrorFormat asserts the structured fault report: every runtime
// fault carries the program counter, the assembly source line and the
// disassembled instruction, in a fixed message shape.
func TestExecErrorFormat(t *testing.T) {
	src := header + `
_f:	.word 0
	movl $5,r1
	divl3 $0,r1,r0
	ret
`
	mm := New(assemble(t, src))
	_, err := mm.Call("_f")
	if err == nil {
		t.Fatal("division by zero did not fail")
	}
	var ee *ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("error is %T, want *ExecError", err)
	}
	if ee.PC != 1 {
		t.Errorf("PC = %d, want 1", ee.PC)
	}
	if !strings.Contains(ee.Instr, "divl3") {
		t.Errorf("Instr = %q, want the disassembled divl3", ee.Instr)
	}
	want := fmt.Sprintf("vaxsim: pc %d, line %d (%s): integer divide by zero",
		ee.PC, ee.Line, ee.Instr)
	if err.Error() != want {
		t.Errorf("message = %q, want %q", err.Error(), want)
	}
}

func TestExecErrorUnknownInstruction(t *testing.T) {
	// The assembler rejects unknown mnemonics, so a hand-built program is
	// the only way to reach the execution-time check.
	p := &Program{
		Instrs: []Instr{{Mn: "frob", Line: 7}},
		Labels: map[string]int{"_f": 0},
	}
	_, err := New(p).Call("_f")
	var ee *ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("error is %T, want *ExecError", err)
	}
	if ee.PC != 0 || ee.Line != 7 {
		t.Errorf("PC, Line = %d, %d, want 0, 7", ee.PC, ee.Line)
	}
	if !strings.Contains(err.Error(), `unknown instruction "frob"`) {
		t.Errorf("message = %q", err.Error())
	}
}

func TestExecErrorUnwrap(t *testing.T) {
	src := header + `
_f:	.word 0
	divl3 $0,$1,r0
	ret
`
	_, err := New(assemble(t, src)).Call("_f")
	var ee *ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("error is %T, want *ExecError", err)
	}
	if ee.Unwrap() == nil || ee.Unwrap().Error() != "integer divide by zero" {
		t.Errorf("Unwrap() = %v", ee.Unwrap())
	}
}

func TestHandlerPanicBecomesExecError(t *testing.T) {
	// A hand-built instruction naming an out-of-range register makes the
	// handler index past the register file; the step loop must convert the
	// panic into a structured fault, not unwind.
	p := &Program{
		Instrs: []Instr{{
			Mn:   "movl",
			Ops:  []Operand{{Mode: MImm, Imm: 1, Index: -1}, {Mode: MReg, Reg: 99, Index: -1}},
			Line: 3,
		}},
		Labels: map[string]int{"_f": 0},
	}
	_, err := New(p).Call("_f")
	if err == nil {
		t.Fatal("out-of-range register did not fail")
	}
	var ee *ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("error is %T, want *ExecError", err)
	}
	if !strings.Contains(err.Error(), "panic:") {
		t.Errorf("message = %q, want a recovered panic", err.Error())
	}
	if ee.PC != 0 || ee.Line != 3 {
		t.Errorf("PC, Line = %d, %d, want 0, 3", ee.PC, ee.Line)
	}
}

func TestCallResetsConditionCodes(t *testing.T) {
	// _g leaves Z set; the next Call must start from clear condition codes.
	m := New(assemble(t, header+`
_g:	.word 0
	clrl r0
	ret
_f:	.word 0
	jeql L1
	movl $1,r0
	ret
L1:	movl $2,r0
	ret
`))
	if _, err := m.Call("_g"); err != nil {
		t.Fatal(err)
	}
	if !m.Z {
		t.Fatal("clrl did not set Z")
	}
	if r, err := m.Call("_f"); err != nil || r != 1 {
		t.Errorf("f() = %d, %v; want 1 (Z clear)", r, err)
	}
}
