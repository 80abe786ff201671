package codegen

import (
	"strings"
	"testing"

	"ggcg/internal/cfront"
	"ggcg/internal/ir"
	"ggcg/internal/irinterp"
	"ggcg/internal/risc"
	"ggcg/internal/target"
	"ggcg/internal/vax"
)

// balancedTree builds a perfectly balanced Plus tree of the given depth
// whose leaves are memory references — each level of a balanced tree holds
// one more register live, so depth beyond the six allocatable registers
// forces the spill/unspill path of §5.3.3 ("the demands of certain Fortran
// programs required us to implement this simple form of register spill").
func balancedTree(t ir.Type, depth int, leaf func(i int) *ir.Node) *ir.Node {
	counter := 0
	var build func(d int) *ir.Node
	build = func(d int) *ir.Node {
		if d == 0 {
			counter++
			return leaf(counter)
		}
		return ir.Bin(ir.Plus, t, build(d-1), build(d-1))
	}
	return build(depth)
}

// runUnit compiles u for mach and runs its main on the machine's
// simulator.
func runUnit(t *testing.T, mach target.Machine, u *ir.Unit) (int64, *Result) {
	t.Helper()
	res, err := Compile(u, Options{Target: mach})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := mach.NewSim(res.Asm)
	if err != nil {
		t.Fatalf("%v\n%s", err, res.Asm)
	}
	got, err := sim.Call("_main")
	if err != nil {
		t.Fatalf("%v\n%s", err, res.Asm)
	}
	return got, res
}

// spillTargets are the machines the spill tests run on.
var spillTargets = []target.Machine{vax.Target, risc.Target}

func TestSpillDeepIntegerTree(t *testing.T) {
	for _, mach := range spillTargets {
		t.Run(mach.Name(), func(t *testing.T) {
			globals := []ir.Global{
				{Name: "g", Type: ir.Long, HasInit: true, Init: 3},
				{Name: "out", Type: ir.Long},
			}
			f := &ir.Func{Name: "main"}
			tree := balancedTree(ir.Long, 8, func(i int) *ir.Node { return ir.GlobalRef(ir.Long, "g") })
			f.Emit(ir.Bin(ir.Assign, ir.Long, ir.NewName(ir.Long, "out"), tree))
			f.Emit(&ir.Node{Op: ir.Ret, Type: ir.Long, Kids: []*ir.Node{ir.GlobalRef(ir.Long, "out")}})
			u := &ir.Unit{Globals: globals, Funcs: []*ir.Func{f}}

			oracle, err := irinterp.New(u).Call("main")
			if err != nil {
				t.Fatal(err)
			}
			got, res := runUnit(t, mach, u)
			if got != oracle || got != 3*256 {
				t.Errorf("got %d, oracle %d, want %d", got, oracle, 3*256)
			}
			if res.Stats.Spills == 0 {
				t.Errorf("a depth-8 balanced tree must spill; stats: %+v\n%s", res.Stats, res.Asm)
			}
			// Spilled values go to virtual registers in the frame and are
			// used from there.
			if !strings.Contains(res.Asm, "(fp)") {
				t.Errorf("no frame traffic despite spills:\n%s", res.Asm)
			}
			t.Logf("depth-8 tree: %d spills", res.Stats.Spills)
		})
	}
}

func TestSpillDoubleRegisterPairs(t *testing.T) {
	// On the VAX doubles occupy register pairs, so pressure arrives early
	// ("we changed the simple register manager to allocate double
	// registers and to spill and unspill registers", §7): a depth-5 tree
	// spills. A RISC register holds a whole double, so it takes depth 6.
	for _, c := range []struct {
		mach  target.Machine
		depth int
	}{{vax.Target, 5}, {risc.Target, 6}} {
		t.Run(c.mach.Name(), func(t *testing.T) {
			globals := []ir.Global{
				{Name: "d", Type: ir.Double, HasInit: true, FInit: 1.5},
				{Name: "out", Type: ir.Double},
			}
			f := &ir.Func{Name: "main"}
			tree := balancedTree(ir.Double, c.depth, func(i int) *ir.Node { return ir.GlobalRef(ir.Double, "d") })
			f.Emit(ir.Bin(ir.Assign, ir.Double, ir.NewName(ir.Double, "out"), tree))
			f.Emit(&ir.Node{Op: ir.Ret, Type: ir.Long, Kids: []*ir.Node{
				ir.Un(ir.Conv, ir.Long, ir.GlobalRef(ir.Double, "out"))}})
			u := &ir.Unit{Globals: globals, Funcs: []*ir.Func{f}}

			oracle, err := irinterp.New(u).Call("main")
			if err != nil {
				t.Fatal(err)
			}
			got, res := runUnit(t, c.mach, u)
			want := int64(3) << (c.depth - 1) // 1.5 * 2^depth
			if got != oracle || got != want {
				t.Errorf("got %d, oracle %d, want %d", got, oracle, want)
			}
			if res.Stats.Spills == 0 {
				t.Errorf("double register pressure must spill; stats: %+v\n%s", res.Stats, res.Asm)
			}
			t.Logf("depth-%d double tree: %d spills", c.depth, res.Stats.Spills)
		})
	}
}

func TestSpillFromCSource(t *testing.T) {
	// Build a deep parenthesized expression in C whose every operand is a
	// computed subexpression.
	var b strings.Builder
	b.WriteString("int a, b, c, d, e, f, g, h;\nint main() {\n")
	b.WriteString("a=1; b=2; c=3; d=4; e=5; f=6; g=7; h=8;\n")
	b.WriteString("return ((((a+b)*(c+d)) + ((e+f)*(g+h))) * (((a+c)*(b+d)) + ((e+g)*(f+h))))\n")
	b.WriteString("     + ((((a+d)*(b+c)) + ((e+h)*(f+g))) * (((a+e)*(b+f)) + ((c+g)*(d+h))));\n}\n")
	for _, mach := range spillTargets {
		t.Run(mach.Name(), func(t *testing.T) {
			u, err := cfront.Compile(b.String())
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := irinterp.New(u).Call("main")
			if err != nil {
				t.Fatal(err)
			}
			got, res := runUnit(t, mach, u)
			if got != oracle {
				t.Errorf("got %d, oracle %d\n%s", got, oracle, res.Asm)
			}
			t.Logf("deep C expression: %d spills, result %d", res.Stats.Spills, got)
		})
	}
}

// TestSpilledValueReloaded checks the §5.3.3 contract textually: a spill
// stores to a frame temporary and later code reads that same temporary.
func TestSpilledValueReloaded(t *testing.T) {
	globals := []ir.Global{
		{Name: "g", Type: ir.Long, HasInit: true, Init: 2},
		{Name: "out", Type: ir.Long},
	}
	f := &ir.Func{Name: "main"}
	tree := balancedTree(ir.Long, 7, func(i int) *ir.Node { return ir.GlobalRef(ir.Long, "g") })
	f.Emit(ir.Bin(ir.Assign, ir.Long, ir.NewName(ir.Long, "out"), tree))
	f.Emit(&ir.Node{Op: ir.Ret, Type: ir.Long, Kids: []*ir.Node{ir.GlobalRef(ir.Long, "out")}})
	u := &ir.Unit{Globals: globals, Funcs: []*ir.Func{f}}
	_, res := runUnit(t, vax.Target, u)
	if res.Stats.Spills == 0 {
		t.Skip("no spill at this depth")
	}
	// Find a "movl rX,off(fp)" spill store and check off(fp) is read later.
	lines := strings.Split(res.Asm, "\n")
	for i, line := range lines {
		if !strings.HasPrefix(strings.TrimSpace(line), "movl\tr") || !strings.HasSuffix(line, "(fp)") {
			continue
		}
		parts := strings.Split(strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "movl\t")), ",")
		if len(parts) != 2 {
			continue
		}
		slot := parts[1]
		for _, later := range lines[i+1:] {
			if strings.Contains(later, slot) {
				return // reloaded or used from the virtual register
			}
		}
		t.Errorf("spilled slot %s never read back:\n%s", slot, res.Asm)
		return
	}
}
