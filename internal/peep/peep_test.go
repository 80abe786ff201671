package peep

import (
	"fmt"
	"strings"
	"testing"

	"ggcg/internal/vaxsim"
)

func optimize(t *testing.T, src string) (string, Stats) {
	t.Helper()
	out, st := Optimize(src)
	return out, st
}

func TestRedundantSelfMove(t *testing.T) {
	out, st := optimize(t, "\tmovl\tr0,r0\n\tret\n")
	if strings.Contains(out, "movl") {
		t.Errorf("self move survived:\n%s", out)
	}
	if st.RedundantMoves != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStoreReloadPair(t *testing.T) {
	out, st := optimize(t, "\tmovl\tr0,-4(fp)\n\tmovl\t-4(fp),r0\n\tret\n")
	if strings.Count(out, "movl") != 1 {
		t.Errorf("reload survived:\n%s", out)
	}
	if st.RedundantMoves != 1 {
		t.Errorf("stats = %+v", st)
	}
	// A label between the pair blocks the rule.
	out2, _ := optimize(t, "\tmovl\tr0,-4(fp)\nL1:\tmovl\t-4(fp),r0\n\ttstl\tr0\n\tjeql\tL1\n\tret\n")
	if strings.Count(out2, "movl") != 2 {
		t.Errorf("reload across a label was removed:\n%s", out2)
	}
}

func TestRedundantTstAfterResult(t *testing.T) {
	out, st := optimize(t, "\tmovl\t_x,r0\n\ttstl\tr0\n\tjeql\tL1\nL1:\tret\n")
	if strings.Contains(out, "tstl") {
		t.Errorf("tst after mov survived:\n%s", out)
	}
	if st.RedundantTst != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Different sizes must not match.
	out2, _ := optimize(t, "\tmovl\t_x,r0\n\ttstb\tr0\n\tjeql\tL1\nL1:\tret\n")
	if !strings.Contains(out2, "tstb") {
		t.Errorf("size-mismatched tst removed:\n%s", out2)
	}
	// A label between blocks the rule.
	out3, _ := optimize(t, "\tmovl\t_x,r0\nL2:\ttstl\tr0\n\tjeql\tL2\n\tret\n")
	if !strings.Contains(out3, "tstl") {
		t.Errorf("tst across a label removed:\n%s", out3)
	}
}

func TestJumpToNext(t *testing.T) {
	out, st := optimize(t, "\tjbr\tL1\nL1:\ttstl\tr0\n\tjeql\tL1\n\tret\n")
	if strings.Contains(out, "jbr") {
		t.Errorf("jump to next survived:\n%s", out)
	}
	if st.JumpsToNext != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestJumpChainCollapse(t *testing.T) {
	src := "\tjbr\tL1\n\tret\nL1:\tjbr\tL2\n\tret\nL2:\tret\n"
	out, st := optimize(t, src)
	if st.JumpChains == 0 {
		t.Errorf("chain not collapsed:\n%s", out)
	}
	if !strings.Contains(out, "jbr\tL2") {
		t.Errorf("first jump does not go to L2:\n%s", out)
	}
}

func TestBranchOverJumpInversion(t *testing.T) {
	src := "\tcmpl\tr0,$1\n\tjeql\tL1\n\tjbr\tL2\nL1:\tincl\tr0\n\tjbr\tL1\nL2:\tret\n"
	out, st := optimize(t, src)
	if st.InvertedOver != 1 {
		t.Errorf("stats = %+v\n%s", st, out)
	}
	if !strings.Contains(out, "jneq\tL2") {
		t.Errorf("branch not inverted:\n%s", out)
	}
}

func TestAutoIncrementIntroduction(t *testing.T) {
	src := "\tmovl\t(r6),r0\n\taddl2\t$4,r6\n\ttstl\tr6\n\tjeql\tL1\nL1:\tret\n"
	out, st := optimize(t, src)
	if st.AutoInc != 1 {
		t.Errorf("stats = %+v\n%s", st, out)
	}
	if !strings.Contains(out, "movl\t(r6)+,r0") {
		t.Errorf("no autoincrement:\n%s", out)
	}
	if strings.Contains(out, "addl2\t$4,r6") {
		t.Errorf("step instruction survived:\n%s", out)
	}
}

func TestAutoIncrementSizeMustMatch(t *testing.T) {
	// A byte move stepping by 4 is not the autoincrement mode.
	src := "\tmovb\t(r6),r0\n\taddl2\t$4,r6\n\ttstl\tr6\n\tjeql\tL1\nL1:\tret\n"
	out, st := optimize(t, src)
	if st.AutoInc != 0 || strings.Contains(out, ")+") {
		t.Errorf("wrong-size autoincrement introduced:\n%s", out)
	}
}

func TestAutoIncrementRegReuseBlocked(t *testing.T) {
	// The stepped register appears twice: not rewritable.
	src := "\taddl3\t(r6),(r6),r0\n\taddl2\t$4,r6\n\ttstl\tr6\n\tjeql\tL1\nL1:\tret\n"
	out, st := optimize(t, src)
	if st.AutoInc != 0 || strings.Contains(out, ")+") {
		t.Errorf("unsafe autoincrement introduced:\n%s", out)
	}
}

func TestAutoDecrementIntroduction(t *testing.T) {
	src := "\tsubl2\t$4,r7\n\tmovl\t(r7),r0\n\ttstl\tr7\n\tjeql\tL1\nL1:\tret\n"
	out, st := optimize(t, src)
	if st.AutoDec != 1 {
		t.Errorf("stats = %+v\n%s", st, out)
	}
	if !strings.Contains(out, "movl\t-(r7),r0") {
		t.Errorf("no autodecrement:\n%s", out)
	}
}

func TestFramePointerNeverStepped(t *testing.T) {
	src := "\tmovl\t(fp),r0\n\taddl2\t$4,fp\n\ttstl\tr0\n\tjeql\tL1\nL1:\tret\n"
	out, st := optimize(t, src)
	if st.AutoInc != 0 || strings.Contains(out, "(fp)+") {
		t.Errorf("frame pointer stepped:\n%s", out)
	}
}

func TestDeadLabelRemoval(t *testing.T) {
	src := "L1:\tret\nL2:\tret\n\tjbr\tL1\n"
	out, st := optimize(t, src)
	if strings.Contains(out, "L2:") {
		t.Errorf("dead label survived:\n%s", out)
	}
	if !strings.Contains(out, "L1:") {
		t.Errorf("live label removed:\n%s", out)
	}
	if st.DeadLabels == 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestLabelUses: a label stays while an operand names it, whole or as the
// base of a name+offset operand, and goes in the round its last user does.
func TestLabelUses(t *testing.T) {
	out, st := optimize(t, "\tmovl\tL1+4,r0\n\tret\nL1:\t.long 0\nL2:\t.long 0\n")
	if !strings.Contains(out, "L1:") || strings.Contains(out, "L2:") || st.DeadLabels != 1 {
		t.Errorf("stats = %+v\n%s", st, out)
	}
	out, st = optimize(t, "\tjbr\tL1\nL1:\tret\n")
	if out != "\tret\n" || st.JumpsToNext != 1 || st.DeadLabels != 1 {
		t.Errorf("stats = %+v\n%s", st, out)
	}
}

func TestFunctionLabelsKept(t *testing.T) {
	src := ".globl _f\n_f:\t.word 0\n\tret\n"
	out, _ := optimize(t, src)
	if !strings.Contains(out, "_f:") || !strings.Contains(out, ".word 0") {
		t.Errorf("function header damaged:\n%s", out)
	}
}

func TestDirectivesPreserved(t *testing.T) {
	src := ".data\n.comm _x,4\n.text\n_f:\t.word 0\n\tmovl\t$1,_x\n\tret\n"
	out, _ := optimize(t, src)
	for _, want := range []string{".data", ".comm _x,4", ".text"} {
		if !strings.Contains(out, want) {
			t.Errorf("directive %q lost:\n%s", want, out)
		}
	}
}

func TestSideEffectOperandsUntouched(t *testing.T) {
	// Autoincrement operands must not be deduplicated.
	src := "\tmovl\t(r6)+,(r6)+\n\tret\n"
	out, st := optimize(t, src)
	if st.RedundantMoves != 0 || !strings.Contains(out, "movl") {
		t.Errorf("side-effecting move removed:\n%s", out)
	}
	// Pushes through sp must stay.
	src2 := "\tmovl\tr0,-(sp)\n\tmovl\t-(sp),r0\n\tret\n"
	out2, _ := optimize(t, src2)
	if strings.Count(out2, "movl") != 2 {
		t.Errorf("stack moves removed:\n%s", out2)
	}
}

// TestRangeIdiomBoundaries drives the constant-operand rewrites through the
// boundary constants of each width: only exactly $1/$-1 become inc/dec and
// only exactly $0 becomes clr; the width-limit constants and everything in
// between must survive untouched.
func TestRangeIdiomBoundaries(t *testing.T) {
	tests := []struct {
		name   string
		in     string // single instruction, without trailing ret
		want   string // rewritten instruction, "" = must not change
		incdec int
		clr    int
	}{
		// Must fire: ±1 in every integer width.
		{"addl2-one", "\taddl2\t$1,r0", "\tincl\tr0", 1, 0},
		{"addw2-one", "\taddw2\t$1,r0", "\tincw\tr0", 1, 0},
		{"addb2-one", "\taddb2\t$1,r0", "\tincb\tr0", 1, 0},
		{"subl2-one", "\tsubl2\t$1,r0", "\tdecl\tr0", 1, 0},
		{"subw2-one", "\tsubw2\t$1,r0", "\tdecw\tr0", 1, 0},
		{"subb2-one", "\tsubb2\t$1,r0", "\tdecb\tr0", 1, 0},
		{"addl2-minus-one", "\taddl2\t$-1,r0", "\tdecl\tr0", 1, 0},
		{"subl2-minus-one", "\tsubl2\t$-1,r0", "\tincl\tr0", 1, 0},
		{"addl2-one-mem", "\taddl2\t$1,_x", "\tincl\t_x", 1, 0},
		{"addl2-one-disp", "\taddl2\t$1,-4(fp)", "\tincl\t-4(fp)", 1, 0},
		// Must fire: zero moves in every integer width.
		{"movl-zero", "\tmovl\t$0,r0", "\tclrl\tr0", 0, 1},
		{"movw-zero", "\tmovw\t$0,r0", "\tclrw\tr0", 0, 1},
		{"movb-zero", "\tmovb\t$0,r0", "\tclrb\tr0", 0, 1},
		{"movl-zero-mem", "\tmovl\t$0,_x", "\tclrl\t_x", 0, 1},
		// Must NOT fire: zero add, two, and the width-limit constants.
		{"addl2-zero", "\taddl2\t$0,r0", "", 0, 0},
		{"addl2-two", "\taddl2\t$2,r0", "", 0, 0},
		{"subl2-two", "\tsubl2\t$-2,r0", "", 0, 0},
		{"addb2-byte-max", "\taddb2\t$127,r0", "", 0, 0},
		{"addb2-byte-min", "\taddb2\t$-128,r0", "", 0, 0},
		{"addw2-word-max", "\taddw2\t$32767,r0", "", 0, 0},
		{"addw2-word-min", "\taddw2\t$-32768,r0", "", 0, 0},
		{"addl2-long-max", "\taddl2\t$2147483647,r0", "", 0, 0},
		{"addl2-long-min", "\taddl2\t$-2147483648,r0", "", 0, 0},
		// Must NOT fire: non-zero moves, three-operand adds, other families.
		{"movl-one", "\tmovl\t$1,r0", "", 0, 0},
		{"movl-minus-one", "\tmovl\t$-1,r0", "", 0, 0},
		{"addl3-one", "\taddl3\t$1,r0,r1", "", 0, 0},
		{"movzbl-zero", "\tmovzbl\t$0,r0", "", 0, 0},
		{"mull2-one", "\tmull2\t$1,r0", "", 0, 0},
		{"addf2-one", "\taddf2\t$1,r0", "", 0, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.in + "\n\tret\n"
			out, st := Optimize(src)
			want := tc.want
			if want == "" {
				want = tc.in
			}
			if !strings.Contains(out, want+"\n") {
				t.Errorf("got:\n%s\nwant line %q", out, want)
			}
			if st.IncDec != tc.incdec || st.ClrZero != tc.clr {
				t.Errorf("stats = %+v, want incdec %d clr %d", st, tc.incdec, tc.clr)
			}
		})
	}
}

func TestAutoIncWinsOverRangeIdiom(t *testing.T) {
	// A byte operation through (r6) followed by a $1 step is the
	// autoincrement mode, not incl: the step is the operand size.
	src := "\tmovb\t(r6),r0\n\taddl2\t$1,r6\n\tret\n"
	out, st := optimize(t, src)
	if st.AutoInc != 1 || st.IncDec != 0 {
		t.Errorf("stats = %+v\n%s", st, out)
	}
	if !strings.Contains(out, "movb\t(r6)+,r0") {
		t.Errorf("no autoincrement:\n%s", out)
	}
}

// TestAOBIntroduction drives the increment-compare-branch collapse,
// including every guard that must block it.
func TestAOBIntroduction(t *testing.T) {
	loop := func(body string) string {
		return "\tclrl\tr7\nL1:\ttstl\tr0\n" + body + "\tret\n"
	}
	tests := []struct {
		name string
		in   string
		want string // instruction that must appear; "" = aob must not fire
	}{
		{"aoblss-imm", loop("\tincl\tr7\n\tcmpl\tr7,$8\n\tjlss\tL1\n"), "\taoblss\t$8,r7,L1"},
		{"aobleq-imm", loop("\tincl\tr7\n\tcmpl\tr7,$7\n\tjleq\tL1\n"), "\taobleq\t$7,r7,L1"},
		{"aoblss-mem-limit", loop("\tincl\tr7\n\tcmpl\tr7,_n\n\tjlss\tL1\n"), "\taoblss\t_n,r7,L1"},
		{"aoblss-reg-limit", loop("\tincl\tr7\n\tcmpl\tr7,r3\n\tjlss\tL1\n"), "\taoblss\tr3,r7,L1"},
		{"from-addl2", loop("\taddl2\t$1,r7\n\tcmpl\tr7,$8\n\tjlss\tL1\n"), "\taoblss\t$8,r7,L1"},
		// Guards: wrong relation, reversed compare, limit mentioning the
		// index, side-effecting limit, a label splitting the block, and a
		// fall-through conditional branch needing the compare's codes.
		{"wrong-relation", loop("\tincl\tr7\n\tcmpl\tr7,$8\n\tjgtr\tL1\n"), ""},
		{"unsigned-relation", loop("\tincl\tr7\n\tcmpl\tr7,$8\n\tjlssu\tL1\n"), ""},
		{"reversed-compare", loop("\tincl\tr7\n\tcmpl\t$8,r7\n\tjlss\tL1\n"), ""},
		{"limit-uses-index", loop("\tincl\tr7\n\tcmpl\tr7,(r7)\n\tjlss\tL1\n"), ""},
		{"limit-side-effect", loop("\tincl\tr7\n\tcmpl\tr7,(r6)+\n\tjlss\tL1\n"), ""},
		{"label-between", "\tclrl\tr7\n\tincl\tr7\nL2:\tcmpl\tr7,$8\n\tjlss\tL2\n\tret\n", ""},
		{"codes-consumed-after", loop("\tincl\tr7\n\tcmpl\tr7,$8\n\tjlss\tL1\n\tjeql\tL1\n"), ""},
		{"frame-reg-index", loop("\tincl\tfp\n\tcmpl\tfp,$8\n\tjlss\tL1\n"), ""},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			out, st := Optimize(tc.in)
			if tc.want == "" {
				if st.AOBLoops != 0 || strings.Contains(out, "aob") {
					t.Errorf("aob introduced:\n%s", out)
				}
				return
			}
			if st.AOBLoops != 1 {
				t.Errorf("stats = %+v\n%s", st, out)
			}
			if !strings.Contains(out, tc.want+"\n") {
				t.Errorf("got:\n%s\nwant line %q", out, tc.want)
			}
			if strings.Contains(out, "\tcmpl\t") {
				t.Errorf("compare survived:\n%s", out)
			}
		})
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{RedundantMoves: 1, AutoInc: 2, IncDec: 3, AOBLoops: 4}
	for _, want := range []string{"autoinc 2", "incdec 3", "aob 4"} {
		if !strings.Contains(s.String(), want) {
			t.Errorf("String() = %q, want %q", s.String(), want)
		}
	}
}

func TestFixpointTerminates(t *testing.T) {
	// A loop of jumps must not send the optimizer into a cycle.
	src := "L1:\tjbr\tL2\nL2:\tjbr\tL1\n"
	out, _ := optimize(t, src)
	if out == "" {
		t.Error("optimizer deleted a live loop")
	}
}

// runVAX assembles src on vaxsim and returns what _main returns.
func runVAX(t *testing.T, src string) int64 {
	t.Helper()
	p, err := vaxsim.Assemble(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	r, err := vaxsim.New(p).Call("_main")
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	return r
}

// TestRewritesKeepVAXResults runs rewrite windows on vaxsim before and
// after Optimize: each must return the same. The first three are windows
// the rules rewrite; the others are windows they must leave alone, an
// autoincrement whose step is the instruction's size but not the size of
// the operand it would replace, and a tst whose type reads the codes the
// previous result set differently from how it set them.
func TestRewritesKeepVAXResults(t *testing.T) {
	const (
		step = ".data\n.comm _buf,16\n.text\n_main:\t.word 0\n\tmoval\t_buf,r6\n\tmoval\t_buf,r1\n%s\taddl2\t$%d,r6\n\tsubl3\tr1,r6,r0\n\tret\n"
		tst  = ".data\n_x:\t.long 0x80000000\n.text\n_main:\t.word 0\n\tmovl\t_x,r0\n%s\tjeql\tL1\n\tmovl\t$1,r0\n\tret\nL1:\tmovl\t$2,r0\n\tret\n"
	)
	for _, c := range []struct {
		src     string
		rewrite bool
	}{
		{fmt.Sprintf(step, "\tmovl\t(r6),r0\n", 4), true},
		{fmt.Sprintf(step, "\tcvtbl\tr0,(r6)\n", 4), true},
		{fmt.Sprintf(tst, "\ttstl\tr0\n"), true},
		{fmt.Sprintf(step, "\tcvtbl\t(r6),r0\n", 4), false},
		{fmt.Sprintf(step, "\tcvtlb\t(r6),r0\n", 1), false},
		{fmt.Sprintf(step, "\tmovzbl\t(r6),r0\n", 4), false},
		{fmt.Sprintf(step, "\tashl\t(r6),$1,r0\n", 4), false},
		{fmt.Sprintf(step, "\tmovab\t_buf,(r6)\n", 1), false},
		{fmt.Sprintf(tst, "\ttstf\tr0\n"), false},
	} {
		out, st := Optimize(c.src)
		if rewritten := st.AutoInc+st.RedundantTst > 0; rewritten != c.rewrite {
			t.Errorf("rewritten %v, want %v:\n%s=>\n%s", rewritten, c.rewrite, c.src, out)
		}
		if before, after := runVAX(t, c.src), runVAX(t, out); before != after {
			t.Errorf("main() = %d before the peephole, %d after:\n%s=>\n%s", before, after, c.src, out)
		}
	}
}
