package ir

import (
	"testing"
	"testing/quick"
)

func TestTypeSizes(t *testing.T) {
	cases := []struct {
		t    Type
		size int
		suf  string
	}{
		{Byte, 1, "b"}, {Word, 2, "w"}, {Long, 4, "l"},
		{Float, 4, "f"}, {Double, 8, "d"},
		{UByte, 1, "b"}, {UWord, 2, "w"}, {ULong, 4, "l"},
	}
	for _, c := range cases {
		if got := c.t.Size(); got != c.size {
			t.Errorf("%v.Size() = %d, want %d", c.t, got, c.size)
		}
		if got := c.t.Suffix(); got != c.suf {
			t.Errorf("%v.Suffix() = %q, want %q", c.t, got, c.suf)
		}
	}
}

func TestTypeMachine(t *testing.T) {
	if ULong.Machine() != Long || UByte.Machine() != Byte || UWord.Machine() != Word {
		t.Error("unsigned types must map to their signed machine type")
	}
	if Float.Machine() != Float || Long.Machine() != Long {
		t.Error("signed and float types must map to themselves")
	}
}

func TestTypeBySuffixRoundTrip(t *testing.T) {
	for _, mt := range MachineTypes {
		got, ok := TypeBySuffix(mt.Suffix())
		if !ok || got != mt {
			t.Errorf("TypeBySuffix(%q) = %v,%v", mt.Suffix(), got, ok)
		}
	}
	if _, ok := TypeBySuffix("x"); ok {
		t.Error("TypeBySuffix accepted bad suffix")
	}
}

func TestTypePredicates(t *testing.T) {
	if !Float.IsFloat() || !Double.IsFloat() || Long.IsFloat() {
		t.Error("IsFloat wrong")
	}
	if !UByte.IsUnsigned() || Long.IsUnsigned() {
		t.Error("IsUnsigned wrong")
	}
	if !Byte.IsInteger() || !ULong.IsInteger() || Float.IsInteger() || Void.IsInteger() {
		t.Error("IsInteger wrong")
	}
}

func TestOpArity(t *testing.T) {
	if Const.Arity() != 0 || Indir.Arity() != 1 || Plus.Arity() != 2 || Select.Arity() != 3 {
		t.Error("arity table wrong")
	}
	if Ret.Arity() != -1 {
		t.Error("Ret arity must be variable")
	}
	if !Const.IsLeaf() || Indir.IsLeaf() || Ret.IsLeaf() {
		t.Error("IsLeaf wrong")
	}
}

func TestOpCommutativity(t *testing.T) {
	for _, op := range []Op{Plus, Mul, And, Or, Xor, Eq, Ne} {
		if !op.IsCommutative() {
			t.Errorf("%v should be commutative", op)
		}
	}
	for _, op := range []Op{Minus, Div, Mod, Lsh, Rsh, Assign, Lt} {
		if op.IsCommutative() {
			t.Errorf("%v should not be commutative", op)
		}
	}
}

func TestOpReverseRoundTrip(t *testing.T) {
	for _, op := range []Op{Minus, Div, Mod, Lsh, Rsh, Assign} {
		rev, ok := op.Reverse()
		if !ok {
			t.Fatalf("%v has no reverse", op)
		}
		fwd, ok := rev.Forward()
		if !ok || fwd != op {
			t.Errorf("Forward(Reverse(%v)) = %v,%v", op, fwd, ok)
		}
	}
	if _, ok := Plus.Reverse(); ok {
		t.Error("commutative Plus must not have a reverse form")
	}
}

func TestRelNegateSwap(t *testing.T) {
	for _, c := range []struct{ r, neg, swap Rel }{
		{REQ, RNE, REQ}, {RNE, REQ, RNE},
		{RLT, RGE, RGT}, {RLE, RGT, RGE},
		{RGT, RLE, RLT}, {RGE, RLT, RLE},
	} {
		if c.r.Negate() != c.neg {
			t.Errorf("%v.Negate() = %v, want %v", c.r, c.r.Negate(), c.neg)
		}
		if c.r.Swap() != c.swap {
			t.Errorf("%v.Swap() = %v, want %v", c.r, c.r.Swap(), c.swap)
		}
	}
}

func TestRelNegateIsInvolution(t *testing.T) {
	f := func(x uint8) bool {
		r := Rel(x % 6)
		return r.Negate().Negate() == r && r.Swap().Swap() == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// appendixTree is the example expression a := 27 + b from the paper's
// appendix: a is a long global, b a byte local in the frame.
const appendixSrc = `(Assign.l (Name.l a) (Plus.l (Const.b 27) (Indir.b (Plus.l (Const.b -4) (Dreg.l fp)))))`

func TestParsePrintRoundTrip(t *testing.T) {
	srcs := []string{
		appendixSrc,
		`(CBranch (Cmp.l:lt (Indir.l (Name.l x)) (Const.b 10)) (Lab L3))`,
		`(Jump (Lab L7))`,
		`(Assign.l (Name.l t) (Call.l f 8))`,
		`(Arg.l (Indir.l (Name.l x)))`,
		`(Ret.l (Const.b 0))`,
		`(Ret.v)`,
		`(Assign.d (Name.d g) (FConst.d 2.5))`,
		`(Assign.l (Indir.l (Plus.l (Const.b 4) (Dreg.l fp))) (RMinus.l (Indir.l (Name.l y)) (Indir.l (Name.l x))))`,
	}
	for _, src := range srcs {
		n, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if err := n.Validate(); err != nil {
			t.Errorf("Validate(%q): %v", src, err)
		}
		out := n.String()
		n2, err := Parse(out)
		if err != nil {
			t.Fatalf("reparse of %q: %v", out, err)
		}
		if !n.Equal(n2) {
			t.Errorf("round trip changed tree:\n in: %s\nout: %s", src, out)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"(Bogus.l)",
		"(Plus.l (Const.b 1))",                // arity
		"(Const.q 1)",                         // bad type
		"(Plus.l (Const.b 1) (Const.b 2)) x",  // trailing
		"(Cmp.l:weird (Const.b 1) (Zero))",    // bad relation
		"(Plus.l (Const.b 1) (Const.b 2)",     // unterminated
		"(Const.b notanumber)",                // bad const
		"(Dreg.l r99)",                        // bad register
		"(Plus.l extra (Const.b 1) (Zero.l))", // stray atom on non-leaf
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestLinearizeAppendix(t *testing.T) {
	n := MustParse(appendixSrc)
	toks := Linearize(n)
	want := "Assign.l Name.l Plus.l Const.b Indir.b Plus.l Const.b Dreg.l"
	if got := TermString(toks); got != want {
		t.Errorf("linearization = %q, want %q", got, want)
	}
	if toks[1].N.Sym != "a" {
		t.Errorf("token 1 node symbol = %q, want a", toks[1].N.Sym)
	}
}

func TestLinearizeSpecialConstants(t *testing.T) {
	for _, c := range []struct {
		v    int64
		want string
	}{
		{0, "Zero"}, {1, "One"}, {2, "Two"}, {4, "Four"}, {8, "Eight"},
		{3, "Const.b"}, {27, "Const.b"}, {-1, "Const.b"}, {300, "Const.w"}, {100000, "Const.l"},
	} {
		n := SmallConst(c.v)
		if got := TermOf(n); got != c.want {
			t.Errorf("TermOf(Const %d) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestSpecialConstValue(t *testing.T) {
	for _, term := range SpecialConstTerms {
		v, ok := SpecialConstValue(term)
		if !ok {
			t.Fatalf("SpecialConstValue(%q) not found", term)
		}
		if got := TermOf(NewConst(Byte, v)); got != term {
			t.Errorf("TermOf(Const %d) = %q, want %q", v, got, term)
		}
	}
	if _, ok := SpecialConstValue("Const.b"); ok {
		t.Error("SpecialConstValue accepted a non-special terminal")
	}
}

func TestTermOfCvt(t *testing.T) {
	n := Un(Conv, Long, GlobalRef(Byte, "c"))
	if got := TermOf(n); got != "Cvt.bl" {
		t.Errorf("TermOf(Conv b->l) = %q, want Cvt.bl", got)
	}
}

func TestCountCloneEqual(t *testing.T) {
	n := MustParse(appendixSrc)
	if got := n.Count(); got != 8 {
		t.Errorf("Count = %d, want 8", got)
	}
	c := n.Clone()
	if !n.Equal(c) {
		t.Error("clone not equal to original")
	}
	c.Kids[1].Kids[0].Val = 99
	if n.Equal(c) {
		t.Error("mutating clone affected original equality")
	}
	if n.Kids[1].Kids[0].Val != 27 {
		t.Error("mutating clone mutated original")
	}
}

func TestWalkPrefixOrder(t *testing.T) {
	n := MustParse(appendixSrc)
	var ops []Op
	n.Walk(func(m *Node) bool { ops = append(ops, m.Op); return true })
	want := []Op{Assign, Name, Plus, Const, Indir, Plus, Const, Dreg}
	if len(ops) != len(want) {
		t.Fatalf("Walk visited %d nodes, want %d", len(ops), len(want))
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("Walk order[%d] = %v, want %v", i, ops[i], want[i])
		}
	}
	// Pruning: stop below Indir.
	var count int
	n.Walk(func(m *Node) bool { count++; return m.Op != Indir })
	if count != 5 {
		t.Errorf("pruned walk visited %d nodes, want 5", count)
	}
}

func TestValidateRejectsBadTrees(t *testing.T) {
	bad := []*Node{
		{Op: Plus, Type: Long, Kids: []*Node{NewConst(Byte, 1)}},
		{Op: Const, Type: Float},
		{Op: FConst, Type: Long},
		{Op: Name, Type: Long},
		{Op: CBranch, Kids: []*Node{NewCmp(Long, REQ, NewConst(Byte, 0), NewConst(Byte, 0)), NewConst(Byte, 0)}},
		{Op: Jump, Kids: []*Node{NewConst(Byte, 0)}},
		{Op: Cmp, Type: Long, Val: 99, Kids: []*Node{NewConst(Byte, 0), NewConst(Byte, 0)}},
	}
	for i, n := range bad {
		if err := n.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted bad tree %v", i, n)
		}
	}
}

func TestSmallConst(t *testing.T) {
	for _, c := range []struct {
		v int64
		t Type
	}{
		{0, Byte}, {127, Byte}, {-128, Byte},
		{128, Word}, {-129, Word}, {32767, Word},
		{32768, Long}, {-40000, Long}, {1 << 30, Long},
	} {
		if n := SmallConst(c.v); n.Type != c.t {
			t.Errorf("SmallConst(%d).Type = %v, want %v", c.v, n.Type, c.t)
		}
	}
}

func TestFuncTempsAndLabels(t *testing.T) {
	f := &Func{Name: "foo", FrameSize: 12}
	o1 := f.AllocTemp(Long)
	o2 := f.AllocTemp(Byte)
	o3 := f.AllocTemp(Double)
	if o1 != -16 {
		t.Errorf("first long temp at %d, want -16", o1)
	}
	if o2 != -17 {
		t.Errorf("byte temp at %d, want -17", o2)
	}
	if o3%8 != 0 {
		t.Errorf("double temp at %d, not 8-aligned", o3)
	}
	if f.TotalFrame() <= f.FrameSize {
		t.Error("TotalFrame must include temporaries")
	}
	l1, l2 := f.NewLabel(), f.NewLabel()
	if l1 == l2 || l1 == 0 {
		t.Errorf("labels not unique: %d %d", l1, l2)
	}
	f.SetLabelBase(100)
	if l := f.NewLabel(); l != 101 {
		t.Errorf("label after SetLabelBase(100) = %d, want 101", l)
	}
}

func TestFrameAndGlobalRefs(t *testing.T) {
	r := FrameRef(Byte, -4)
	want := MustParse(`(Indir.b (Plus.l (Const.b -4) (Dreg.l fp)))`)
	if !r.Equal(want) {
		t.Errorf("FrameRef = %s, want %s", r, want)
	}
	g := GlobalRef(Long, "a")
	if g.Op != Indir || g.Kids[0].Op != Name || g.Kids[0].Sym != "a" {
		t.Errorf("GlobalRef = %s", g)
	}
}

func TestRegName(t *testing.T) {
	for _, c := range []struct {
		r    int
		want string
	}{{0, "r0"}, {5, "r5"}, {11, "r11"}, {RegAP, "ap"}, {RegFP, "fp"}, {RegSP, "sp"}, {RegPC, "pc"},
		{16, "r16"}, {-1, "r-1"}} {
		if got := RegName(c.r); got != c.want {
			t.Errorf("RegName(%d) = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestUnitItems(t *testing.T) {
	f := &Func{Name: "main"}
	f.Emit(MustParse(`(Ret.v)`))
	f.EmitLabel(3)
	if len(f.Items) != 2 {
		t.Fatalf("len(Items) = %d", len(f.Items))
	}
	if f.Items[0].Kind != ItemTree || f.Items[1].Kind != ItemLabel || f.Items[1].Label != 3 {
		t.Error("item kinds wrong")
	}
}

// Property: linearization length equals node count for random well-formed
// trees, and every token's node is non-nil.
func TestLinearizeCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := randomTree(seed, 0)
		toks := Linearize(n)
		if len(toks) != n.Count() {
			return false
		}
		for _, tok := range toks {
			if tok.N == nil || tok.Term == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// randomTree builds a small deterministic pseudo-random integer tree.
func randomTree(seed int64, depth int) *Node {
	next := func() int64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return (seed >> 33) & 0x7fffffff
	}
	var build func(d int) *Node
	build = func(d int) *Node {
		if d > 3 || next()%3 == 0 {
			switch next() % 3 {
			case 0:
				return SmallConst(next() % 300)
			case 1:
				return GlobalRef(Long, "g")
			default:
				return FrameRef(Long, int(-4*(1+next()%4)))
			}
		}
		ops := []Op{Plus, Minus, Mul, And, Or, Xor}
		op := ops[next()%int64(len(ops))]
		return Bin(op, Long, build(d+1), build(d+1))
	}
	return build(depth)
}
