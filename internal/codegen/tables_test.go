package codegen

import (
	"testing"

	"ggcg/internal/ir"
	"ggcg/internal/tablegen"
)

// TestBlockSearchOnVAXDescription runs the bounded syntactic-block search
// of §3.2 over the real description. The input model over-approximates
// (every arity-valid tree, not only front-end trees), so findings are
// notifications, not failures — but inputs the front end can actually
// produce must never be among them, which the differential suites already
// guarantee. This records the diagnostic behaviour.
func TestBlockSearchOnVAXDescription(t *testing.T) {
	tb, err := builtVAX()
	if err != nil {
		t.Fatal(err)
	}
	blocks, complete := tablegen.CheckBlocks(tb, ir.TermArity, 4, 200000)
	t.Logf("bounded block search (depth 4, complete=%v): %d potential blocks over the arity-valid over-approximation",
		complete, len(blocks))
	// A statement-shaped prefix the front end generates must never block:
	// check a few known-good linearizations parse.
	good := []string{
		`(Assign.l (Name.l g) (Plus.l (Const.b 1) (Indir.l (Name.l g))))`,
		`(CBranch (Cmp.l:lt (Indir.l (Name.l g)) (Const.w 500)) (Lab L1))`,
		`(Ret.l (Indir.b (Name.b c)))`,
	}
	u := &ir.Unit{Globals: []ir.Global{
		{Name: "g", Type: ir.Long}, {Name: "c", Type: ir.Byte},
	}}
	f := &ir.Func{Name: "main"}
	for _, s := range good {
		f.Emit(ir.MustParse(s))
	}
	f.EmitLabel(1)
	f.Emit(&ir.Node{Op: ir.Ret, Type: ir.Void})
	u.Funcs = []*ir.Func{f}
	if _, err := Compile(u, Options{}); err != nil {
		t.Errorf("front-end-shaped trees blocked: %v", err)
	}
}
