package vaxsim

import (
	"strings"
	"testing"
)

func TestDeferredDisplacement(t *testing.T) {
	m, r := run(t, `
.data
.comm _x,4
.comm _p,4
.text
_f:	.word 0
	movl $99,_x
	moval _x,_p
	movl *_p,r0
	movl $7,*_p
	ret
`, "_f")
	if r != 99 {
		t.Errorf("read through *_p = %d, want 99", r)
	}
	if v, _ := m.ReadGlobal("_x", 4); v != 7 {
		t.Errorf("write through *_p: x = %d, want 7", v)
	}
}

func TestDeferredFrameLocal(t *testing.T) {
	_, r := run(t, `
.data
.comm _x,4
.text
_f:	.word 0
	subl2 $4,sp
	movl $123,_x
	moval _x,-4(fp)
	movl *-4(fp),r0
	ret
`, "_f")
	if r != 123 {
		t.Errorf("*-4(fp) = %d, want 123", r)
	}
}

func TestDeferredAutoIncrementStepsByFour(t *testing.T) {
	// A table of pointers: *(r1)+ dereferences each and steps 4.
	m, r := run(t, `
.data
.comm _a,4
.comm _b,4
.comm _tab,8
.text
_f:	.word 0
	movl $11,_a
	movl $31,_b
	moval _a,_tab
	moval _b,_tab+4
	moval _tab,r1
	movl *(r1)+,r0
	addl2 *(r1)+,r0
	ret
`, "_f")
	if r != 42 {
		t.Errorf("sum through pointer table = %d, want 42", r)
	}
	tab, _ := m.Global("_tab")
	if m.R[1] != tab+8 {
		t.Errorf("r1 = %#x, want stepped by 8 to %#x", m.R[1], tab+8)
	}
}

func TestDeferredRoundTripSyntax(t *testing.T) {
	for _, s := range []string{"*-4(fp)", "*_p", "*(r2)", "*(r2)+", "*-(r2)"} {
		o, err := parseOperand(s)
		if err != nil {
			t.Fatalf("parseOperand(%q): %v", s, err)
		}
		if !o.Deferred {
			t.Errorf("%q not marked deferred", s)
		}
		if got := o.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
	if _, err := parseOperand("*$5"); err == nil {
		t.Error("deferred immediate accepted")
	}
	if _, err := parseOperand("*r3"); err == nil {
		t.Error("deferred register accepted")
	}
}

func TestDeferredInGeneratedStyleListing(t *testing.T) {
	// The whole-program shape the code generator emits assembles cleanly.
	src := `
.data
.comm _g,4
.comm _gp,4
.text
.globl _main
_main:	.word 0
	subl2	$4,sp
	movl	$5,_g
	moval	_g,-4(fp)
	moval	_g,_gp
	addl3	*-4(fp),$10,*_gp
	movl	*_gp,r0
	ret
`
	_, r := run(t, src, "_main")
	if r != 15 {
		t.Errorf("deferred arithmetic = %d, want 15", r)
	}
	if !strings.Contains(src, "*_gp") {
		t.Fatal("test is self-inconsistent")
	}
}
