package risc_test

import (
	"sync"
	"testing"

	"ggcg/internal/cfront"
	"ggcg/internal/codegen"
	"ggcg/internal/corpus"
	"ggcg/internal/ir"
	"ggcg/internal/risc"
	"ggcg/internal/riscsim"
	"ggcg/internal/tablegen"
	"ggcg/internal/vax"
)

// builtRISC constructs the RISC tables from the description once per test
// binary: the dense matrices and diagnostics only a build has, and the
// reference the shipped tables are held to.
var builtRISC = sync.OnceValues(func() (*tablegen.Tables, error) {
	g, err := risc.Target.Grammar()
	if err != nil {
		return nil, err
	}
	return tablegen.Build(g, tablegen.Options{})
})

// TestTablesBuild constructs the RISC instruction-selection tables and
// checks the shape the paper's §8 statistics table reports per machine:
// the generic description replicates out to more productions, the
// constructor resolves every conflict, and the packed encoding is
// smaller than the dense one.
func TestTablesBuild(t *testing.T) {
	g, err := risc.Target.Grammar()
	if err != nil {
		t.Fatal(err)
	}
	gen, err := risc.Target.GenericStats()
	if err != nil {
		t.Fatal(err)
	}
	fs := g.Stats()
	if fs.Productions <= gen.Productions {
		t.Errorf("replication did not grow the grammar: generic %d, replicated %d",
			gen.Productions, fs.Productions)
	}
	if fs.ChainRules == 0 {
		t.Error("no chain rules in the replicated grammar")
	}
	tb, err := builtRISC()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Stats.States == 0 {
		t.Error("no states constructed")
	}
	if tb.Packed() == nil {
		t.Fatal("RISC tables have no packed form")
	}
	sz := tb.Size()
	if sz.PackedBytes <= 0 || sz.PackedBytes >= sz.Bytes {
		t.Errorf("packed form (%d bytes) is no smaller than dense (%d bytes)",
			sz.PackedBytes, sz.Bytes)
	}
	if len(tb.SemBlocks) != 0 {
		t.Errorf("RISC description has semantic blocks: %v", tb.SemBlocks)
	}
}

// TestTableIDDistinctFromVAX: the cache fingerprints of the two targets
// must differ at the table-identity layer too, not only by name.
func TestTableIDDistinctFromVAX(t *testing.T) {
	rid, err := risc.Target.TableID()
	if err != nil {
		t.Fatal(err)
	}
	vid, err := vax.Target.TableID()
	if err != nil {
		t.Fatal(err)
	}
	if rid == "" || rid == vid {
		t.Errorf("RISC table ID %q not distinct from VAX %q", rid, vid)
	}
}

// TestCorpusExecutes generates RISC code for the whole validation corpus
// and executes it on riscsim, with and without the peephole optimizer:
// every program must return its Want value either way.
func TestCorpusExecutes(t *testing.T) {
	for _, p := range corpus.Programs() {
		for _, peep := range []bool{false, true} {
			u, err := cfront.Compile(p.Src)
			if err != nil {
				t.Fatalf("%s: front end: %v", p.Name, err)
			}
			res, err := codegen.Compile(u, codegen.Options{Target: risc.Target, Peephole: peep})
			if err != nil {
				t.Fatalf("%s (peep=%v): codegen: %v", p.Name, peep, err)
			}
			prog, err := riscsim.Assemble(res.Asm)
			if err != nil {
				t.Fatalf("%s (peep=%v): assemble: %v\n%s", p.Name, peep, err, res.Asm)
			}
			m := riscsim.New(prog)
			r, err := m.Call("_main", p.Args...)
			if err != nil {
				t.Fatalf("%s (peep=%v): execute: %v", p.Name, peep, err)
			}
			if r != p.Want {
				t.Errorf("%s (peep=%v): main(%v) = %d, want %d", p.Name, peep, p.Args, r, p.Want)
			}
		}
	}
}

// TestShippedBuiltGoldenCorpus is the RISC counterpart of codegen's VAX
// golden guard: the shipped tables and tables constructed afresh from the
// description must emit byte-identical assembly with identical matcher
// statistics over the corpus and a large synthetic unit.
func TestShippedBuiltGoldenCorpus(t *testing.T) {
	built, err := builtRISC()
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]string, 0, len(corpus.Programs())+1)
	for _, p := range corpus.Programs() {
		srcs = append(srcs, p.Src)
	}
	srcs = append(srcs, corpus.Large(12))
	for i, src := range srcs {
		u, err := cfront.Compile(src)
		if err != nil {
			t.Fatalf("program %d: front end: %v", i, err)
		}
		shipped, err := codegen.Compile(u, codegen.Options{Target: risc.Target})
		if err != nil {
			t.Fatalf("program %d: compile with shipped tables: %v", i, err)
		}
		u2, err := cfront.Compile(src)
		if err != nil {
			t.Fatalf("program %d: front end: %v", i, err)
		}
		fresh, err := codegen.Compile(u2, codegen.Options{Target: risc.Target, Tables: built})
		if err != nil {
			t.Fatalf("program %d: compile with built tables: %v", i, err)
		}
		if shipped.Asm != fresh.Asm {
			t.Fatalf("program %d: shipped and built tables emitted different RISC assembly", i)
		}
		if shipped.Stats.Matcher != fresh.Stats.Matcher {
			t.Fatalf("program %d: matcher stats diverge: shipped %+v built %+v",
				i, shipped.Stats.Matcher, fresh.Stats.Matcher)
		}
	}
}

// value allocates a register value of type typ the way the semantic
// actions do.
func value(t *testing.T, rm *risc.RegMan, typ ir.Type) *risc.Operand {
	t.Helper()
	o := &risc.Operand{Mode: risc.OReg, Type: typ, Base: -1}
	r, err := rm.Alloc(typ, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Reg, o.Owned = r, []int{r}
	return o
}

// location absorbs a fresh register value as the base of off(base).
func location(t *testing.T, rm *risc.RegMan, off int64) *risc.Operand {
	t.Helper()
	v := value(t, rm, ir.Long)
	loc := &risc.Operand{Mode: risc.OLoc, Type: ir.Long, Base: v.Reg, Off: off}
	loc.Owned = rm.Transfer(v, loc)
	return loc
}

// TestRegManSpillsValueWithSizedStore: a spilled value is stored with the
// store of its own size and read back from the frame slot.
func TestRegManSpillsValueWithSizedStore(t *testing.T) {
	e := risc.NewEmitter()
	rm := risc.NewRegMan(e, &ir.Func{Name: "t"})
	w := value(t, rm, ir.Word)
	for i := 0; i < ir.NAllocatable; i++ {
		value(t, rm, ir.Long)
	}
	if want := "\tstw\tr0,-2(fp)\n"; e.String() != want {
		t.Errorf("spill emitted %q, want %q", e.String(), want)
	}
	if w.Mode != risc.OLoc || w.Base != ir.RegFP || w.Off != -2 || len(w.Owned) != 0 {
		t.Errorf("spilled value not redirected to its slot: %+v", w)
	}
	if rm.Spills != 1 {
		t.Errorf("spills = %d, want 1", rm.Spills)
	}
}

// TestRegManSpillsBaseToDeferred: a spilled base register takes its
// location's address into the slot, and the location becomes deferred.
func TestRegManSpillsBaseToDeferred(t *testing.T) {
	e := risc.NewEmitter()
	rm := risc.NewRegMan(e, &ir.Func{Name: "t"})
	loc := location(t, rm, 8)
	for i := 0; i < ir.NAllocatable; i++ {
		value(t, rm, ir.Long)
	}
	if want := "\taddi\tr0,r0,$8\n\tstl\tr0,-4(fp)\n"; e.String() != want {
		t.Errorf("spill emitted %q, want %q", e.String(), want)
	}
	if !loc.Deferred || loc.Base != ir.RegFP || loc.Off != -4 || len(loc.Owned) != 0 {
		t.Errorf("location not deferred through its slot: %+v", loc)
	}
}

// TestRegManAllocSpecificRelocatesBase: claiming r0 for a call result
// while r0 is a pending store's base moves the base with mv, so the
// location stays addressable.
func TestRegManAllocSpecificRelocatesBase(t *testing.T) {
	e := risc.NewEmitter()
	rm := risc.NewRegMan(e, &ir.Func{Name: "t"})
	loc := location(t, rm, 0)
	res := &risc.Operand{Mode: risc.OReg, Type: ir.Long, Base: -1}
	if err := rm.AllocSpecific(0, ir.Long, res); err != nil {
		t.Fatal(err)
	}
	if want := "\tmv\tr1,r0\n"; e.String() != want {
		t.Errorf("evacuation emitted %q, want %q", e.String(), want)
	}
	if loc.Base != 1 || len(loc.Owned) != 1 || loc.Owned[0] != 1 || loc.Asm() != "(r1)" {
		t.Errorf("base not relocated to r1: %+v", loc)
	}
}
