package ir_test

import (
	"testing"

	"ggcg/internal/cfront"
	"ggcg/internal/corpus"
	"ggcg/internal/ir"
	"ggcg/internal/transform"
)

// TestArenaSteadyStateGrowsNoSlab: the front half of a second compile of
// the same unit on a reset arena — cfront.CompileArena and
// transform.UnitArena — runs entirely in the slabs the first one grew.
func TestArenaSteadyStateGrowsNoSlab(t *testing.T) {
	src := corpus.Large(40)
	a := ir.AcquireArena()
	defer a.Release()
	frontHalf := func() {
		t.Helper()
		u, err := cfront.CompileArena(src, a, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := transform.UnitArena(u, transform.Options{}, a); err != nil {
			t.Fatal(err)
		}
	}
	frontHalf()
	slabs := a.Slabs()
	if slabs < 2 {
		t.Fatalf("corpus.Large(40) used %d node slab(s); the test needs a multi-slab unit", slabs)
	}
	a.Reset()
	frontHalf()
	if got := a.Slabs(); got != slabs {
		t.Fatalf("second front half on a reset arena: %d node slabs, want %d", got, slabs)
	}
}
