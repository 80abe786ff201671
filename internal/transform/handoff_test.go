package transform_test

import (
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ggcg/internal/cfront"
	"ggcg/internal/codegen"
	"ggcg/internal/corpus"
	"ggcg/internal/ir"
	"ggcg/internal/progen"
	"ggcg/internal/risc"
	"ggcg/internal/target"
	"ggcg/internal/transform"
	"ggcg/internal/vax"
)

// walkMaxLabel is how the code generator used to find a function's
// largest label before phase 1 handed it over: a walk of every tree for
// label leaves, beside the label items.
func walkMaxLabel(f *ir.Func) int {
	maxLabel := 0
	for _, it := range f.Items {
		if it.Kind == ir.ItemLabel {
			maxLabel = max(maxLabel, it.Label)
			continue
		}
		it.Tree.Walk(func(n *ir.Node) bool {
			if n.Op == ir.Lab {
				maxLabel = max(maxLabel, int(n.Val))
			}
			return true
		})
	}
	return maxLabel
}

// walkPhase1Marks is how the code generator used to derive the phase-1
// register marks: the spans phase 1 recorded, plus a walk of every tree
// for allocatable registers no span covers (hand-built input), which get
// a span from their first to their last mention.
func walkPhase1Marks(items []ir.Item, spans [][3]int) []transform.Marks {
	marks := make([]transform.Marks, len(items))
	mark := func(i int, r ir.RegSet, last bool) {
		switch {
		case i < 0 || i >= len(marks):
		case last:
			marks[i].Last |= r
		default:
			marks[i].First |= r
		}
	}
	var recorded ir.RegSet
	for _, sp := range spans {
		r := ir.RegRange(sp[0], 1)
		recorded |= r
		mark(sp[1], r, false)
		mark(sp[2], r, true)
	}
	var lo, hi [ir.NAllocatable]int
	for i, it := range items {
		if it.Kind != ir.ItemTree {
			continue
		}
		it.Tree.Walk(func(n *ir.Node) bool {
			if (n.Op == ir.Dreg || n.Op == ir.RegUse) && n.Val >= 0 && n.Val < ir.NAllocatable && !recorded.Has(int(n.Val)) {
				r := int(n.Val)
				if lo[r] == 0 {
					lo[r] = i + 1
				}
				hi[r] = i + 1
			}
			return true
		})
	}
	for r := range lo {
		if lo[r] > 0 {
			mark(lo[r]-1, ir.RegRange(r, 1), false)
			mark(hi[r]-1, ir.RegRange(r, 1), true)
		}
	}
	return marks
}

// checkHandoff transforms every function of u and compares what phase 1
// hands over with what the walks derive. It returns the label base of
// every function as the walks number them.
func checkHandoff(t *testing.T, name string, u *ir.Unit) []int {
	t.Helper()
	p := transform.AcquirePass()
	defer p.Release()
	bases := make([]int, len(u.Funcs))
	for i, f := range u.Funcs {
		if got, want := f.MaxLabel(), walkMaxLabel(f); got != want {
			t.Errorf("%s: %s: input MaxLabel %d, walk %d", name, f.Name, got, want)
		}
		h, err := p.Func(f, transform.Options{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := h.Func.MaxLabel(), walkMaxLabel(h.Func); got != want {
			t.Errorf("%s: %s: output MaxLabel %d, walk %d", name, f.Name, got, want)
		}
		if want := walkPhase1Marks(h.Func.Items, transform.RecordedSpans(p)); !slices.Equal(h.Marks, want) {
			t.Errorf("%s: %s: marks\n got %v\nwant %v", name, f.Name, h.Marks, want)
		}
		if i+1 < len(bases) {
			bases[i+1] = bases[i] + walkMaxLabel(h.Func) + 1
		}
	}
	return bases
}

var labelDef = regexp.MustCompile(`(?m)^L(\d+):$`)

// TestHandoffMatchesWalks: over every function of the corpus,
// corpus.Large(40) and progen seeds 1-400, the label high-water marks of
// the input and of the transformed output equal the largest label a walk
// finds, and the handed-off register marks equal the walk-derived ones.
// On both targets, the code generator then defines exactly the labels the
// walk-derived label bases predict.
func TestHandoffMatchesWalks(t *testing.T) {
	type unit struct{ name, src string }
	units := []unit{{"large40", corpus.Large(40)}}
	for _, p := range corpus.Programs() {
		units = append(units, unit{"corpus/" + p.Name, p.Src})
	}
	for s := int64(1); s <= 400; s++ {
		units = append(units, unit{"progen/" + strconv.FormatInt(s, 10), progen.Generate(s).Render()})
	}
	for _, un := range units {
		u, err := cfront.Compile(un.src)
		if err != nil {
			t.Fatalf("%s: %v", un.name, err)
		}
		bases := checkHandoff(t, un.name, u)
		tu, err := transform.Unit(u, transform.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for i, f := range tu.Funcs {
			for _, it := range f.Items {
				if it.Kind == ir.ItemLabel {
					want = append(want, strconv.Itoa(bases[i]+it.Label))
				}
			}
		}
		for _, mach := range []target.Machine{vax.Target, risc.Target} {
			res, err := codegen.Compile(u, codegen.Options{Target: mach})
			if err != nil {
				t.Fatalf("%s/%s: %v", un.name, mach.Name(), err)
			}
			var got []string
			for _, m := range labelDef.FindAllStringSubmatch(res.Asm, -1) {
				got = append(got, m[1])
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s/%s: labels defined\n got %v\nwant %v", un.name, mach.Name(), got, want)
			}
		}
	}
}

// TestHandoffHandBuiltRegisters: allocatable registers that hand-built
// trees name outside any phase-1 span get the walk's conservative marks,
// while a truth value's phase-1 register keeps its recorded span.
func TestHandoffHandBuiltRegisters(t *testing.T) {
	f := &ir.Func{Name: "main", FrameSize: 8}
	f.Emit(ir.MustParse(`(Assign.l (Dreg.l r1) (Const.b 7))`))
	f.Emit(ir.MustParse(`(Assign.l (Indir.l (Name.l g)) (Lt.l (Indir.l (Name.l g)) (Const.b 3)))`))
	f.Emit(ir.MustParse(`(Assign.l (Indir.l (Name.l g)) (Plus.l (Indir.l (Name.l g)) (Dreg.l r1)))`))
	f.Emit(ir.MustParse(`(Ret.l (RegUse.l r5))`))
	p := transform.AcquirePass()
	defer p.Release()
	h, err := p.Func(f, transform.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(transform.RecordedSpans(p)) == 0 {
		t.Fatal("the truth value took no phase-1 register; the case needs one")
	}
	want := walkPhase1Marks(h.Func.Items, transform.RecordedSpans(p))
	if !slices.Equal(h.Marks, want) {
		t.Errorf("marks\n got %v\nwant %v", h.Marks, want)
	}
	if h.Marks[0].First != ir.RegRange(1, 1) {
		t.Errorf("r1 is named first by item 0, whose marks are %v", h.Marks[0])
	}
}

// TestJumpToUndefinedLabel: a hand-built tree that jumps past the
// function's labels is rejected by phase 1 with the function and the
// tree, rather than numbered into the next function's labels.
func TestJumpToUndefinedLabel(t *testing.T) {
	f := &ir.Func{Name: "main"}
	f.EmitLabel(1)
	f.Emit(ir.MustParse(`(Jump (Lab L1))`))
	f.Emit(ir.MustParse(`(Jump (Lab L3))`))
	u := &ir.Unit{Funcs: []*ir.Func{f}}
	for _, mach := range []target.Machine{vax.Target, risc.Target} {
		_, err := codegen.Compile(u, codegen.Options{Target: mach})
		if err == nil || !strings.Contains(err.Error(), "transform: main: jump to undefined label L3 (tree (Jump (Lab L3)))") {
			t.Errorf("%s: err = %v, want the undefined label named", mach.Name(), err)
		}
	}
	f.SetLabelBase(3) // reserved, so defined as far as phase 1 can tell
	if _, err := transform.Unit(u, transform.Options{}); err != nil {
		t.Errorf("a jump at the high-water mark: %v", err)
	}
}
