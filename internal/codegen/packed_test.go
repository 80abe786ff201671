package codegen

import (
	"sync"
	"testing"

	"ggcg/internal/cfront"
	"ggcg/internal/corpus"
	"ggcg/internal/tablegen"
	"ggcg/internal/vax"
	"ggcg/internal/vaxsim"
)

// builtVAX constructs the VAX tables from the description once per test
// binary: the dense matrices and diagnostics that only a build has, and
// the reference the shipped tables are held to.
var builtVAX = sync.OnceValues(func() (*tablegen.Tables, error) {
	g, err := vax.Grammar()
	if err != nil {
		return nil, err
	}
	return tablegen.Build(g, tablegen.Options{})
})

// TestPackedEquivalenceVAX holds the shipped comb-vector tables to exact
// lookup equivalence with the dense matrices of a fresh build over every
// (state, symbol) pair of the full replicated VAX description — the
// production-scale counterpart of tablegen's differential test on toy
// grammars.
func TestPackedEquivalenceVAX(t *testing.T) {
	tb, err := builtVAX()
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := vax.Tables()
	if err != nil {
		t.Fatal(err)
	}
	p := shipped.Packed()
	if p == nil {
		t.Fatal("VAX tables have no packed form")
	}
	nTermsEnd := len(tb.Terms) + 1
	if int(p.NumStates) != tb.Stats.States || int(p.NumTerms)+1 != nTermsEnd {
		t.Fatalf("shipped tables are %d states x %d terminals, built %d x %d",
			p.NumStates, p.NumTerms, tb.Stats.States, len(tb.Terms))
	}
	for s := 0; s < tb.Stats.States; s++ {
		for term := 0; term < nTermsEnd; term++ {
			if dense, packed := tb.Lookup(s, term), p.Lookup(s, term); dense != packed {
				t.Fatalf("action(%d,%d): dense %v/%d packed %v/%d",
					s, term, dense.Kind, dense.Arg, packed.Kind, packed.Arg)
			}
		}
		for nt := 0; nt < len(tb.Nonterms); nt++ {
			if dense, packed := tb.GotoState(s, nt), int(p.GotoState(int32(s), int32(nt))); dense != packed {
				t.Fatalf("goto(%d,%d): dense %d packed %d", s, nt, dense, packed)
			}
		}
	}
	sz := tb.Size()
	if sz.PackedBytes <= 0 || sz.Bytes <= 0 {
		t.Fatalf("table sizes not measured: %+v", sz)
	}
	if sz.PackedBytes >= sz.Bytes {
		t.Errorf("packed form (%d bytes) is no smaller than dense (%d bytes)", sz.PackedBytes, sz.Bytes)
	}
	if got, want := shipped.Summary(), tb.Summary(); got != want {
		t.Errorf("shipped summary %+v, built %+v", got, want)
	}
}

// TestShippedTablesDriveCompilation reproduces the static/dynamic split of
// §3: the tables are constructed once, shipped (tablegen.Ship, what
// ggtables -gen writes), loaded over the grammar, and then drive a
// compilation that executes correctly.
func TestShippedTablesDriveCompilation(t *testing.T) {
	built, err := builtVAX()
	if err != nil {
		t.Fatal(err)
	}
	s, err := tablegen.Ship(built)
	if err != nil {
		t.Fatal(err)
	}
	g, err := vax.Grammar()
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := tablegen.Load(g, s)
	if err != nil {
		t.Fatal(err)
	}
	u := cfront.MustCompile(`
int a[6];
int main() {
	int i, s = 0;
	for (i = 0; i < 6; i++) a[i] = i * 3;
	for (i = 0; i < 6; i++) s += a[i];
	return s;
}`)
	res, err := Compile(u, Options{Tables: shipped})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := vaxsim.Assemble(res.Asm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := vaxsim.New(prog).Call("_main")
	if err != nil {
		t.Fatal(err)
	}
	if got != 45 {
		t.Errorf("main = %d, want 45", got)
	}
}

// TestShippedBuiltGoldenCorpus compiles the entire corpus (and a large
// synthetic unit) with the shipped tables and with tables constructed
// afresh from the description, asserting byte-identical assembly and
// matcher statistics: shipping the tables must not change one byte of
// output.
func TestShippedBuiltGoldenCorpus(t *testing.T) {
	built, err := builtVAX()
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
		shipped, err := Compile(u, Options{})
		if err != nil {
			t.Fatalf("program %d: compile with shipped tables: %v", i, err)
		}
		u2, err := cfront.Compile(src)
		if err != nil {
			t.Fatalf("program %d: front end: %v", i, err)
		}
		fresh, err := Compile(u2, Options{Tables: built})
		if err != nil {
			t.Fatalf("program %d: compile with built tables: %v", i, err)
		}
		if shipped.Asm != fresh.Asm {
			t.Fatalf("program %d: shipped and built tables emitted different assembly", i)
		}
		if shipped.Stats.Matcher != fresh.Stats.Matcher {
			t.Fatalf("program %d: matcher stats diverge: shipped %+v built %+v",
				i, shipped.Stats.Matcher, fresh.Stats.Matcher)
		}
	}
}

// TestMatcherMaxDepth checks that stack depth is accounted without an
// observer attached, and grows on the reduce path too (a right-deep tree
// keeps pushing goto states past the shift high-water mark).
func TestMatcherMaxDepth(t *testing.T) {
	u, err := cfront.Compile(corpus.Large(6))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Matcher.MaxDepth < 3 {
		t.Errorf("MaxDepth = %d, implausibly shallow for the large unit", res.Stats.Matcher.MaxDepth)
	}
}
