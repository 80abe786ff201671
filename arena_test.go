package ggcg

// Guards for the arena-allocated front half: output must be byte-identical
// to a fully heap-allocated pipeline, results must not alias arena memory,
// and the allocation win must not silently regress (the budget test is
// CI's allocation gate).

import (
	"strings"
	"testing"

	"ggcg/internal/cfront"
	"ggcg/internal/codegen"
	"ggcg/internal/corpus"
	"ggcg/internal/ir"
	"ggcg/internal/progen"
)

// compileHeap runs the pipeline with no arena anywhere: heap-allocated
// cfront nodes and heap-allocated transform replacements. It is the
// reference side of the arena differential.
func compileHeap(t testing.TB, src string, workers int) string {
	t.Helper()
	u, err := cfront.Compile(src)
	if err != nil {
		t.Fatalf("heap front end: %v", err)
	}
	res, err := codegen.Compile(u, codegen.Options{Workers: workers})
	if err != nil {
		t.Fatalf("heap codegen: %v", err)
	}
	return res.Asm
}

// compileArena runs the same pipeline with an explicitly owned arena, the
// way ggcg.Compile wires it.
func compileArena(t testing.TB, src string, workers int) string {
	t.Helper()
	a := ir.AcquireArena()
	defer a.Release()
	u, err := cfront.CompileArena(src, a, nil)
	if err != nil {
		t.Fatalf("arena front end: %v", err)
	}
	res, err := codegen.Compile(u, codegen.Options{Arena: a, Workers: workers})
	if err != nil {
		t.Fatalf("arena codegen: %v", err)
	}
	return res.Asm
}

// TestArenaDifferentialGoldenCorpus holds the arena path byte-identical to
// the heap path over the whole corpus plus a large synthetic unit, both
// sequentially and with the parallel per-function path (which uses pooled
// per-worker arenas).
func TestArenaDifferentialGoldenCorpus(t *testing.T) {
	srcs := make([]string, 0, len(corpus.Programs())+1)
	for _, p := range corpus.Programs() {
		srcs = append(srcs, p.Src)
	}
	srcs = append(srcs, corpus.Large(12))
	for i, src := range srcs {
		heap := compileHeap(t, src, 0)
		if arena := compileArena(t, src, 0); arena != heap {
			t.Fatalf("program %d: arena and heap compiles emitted different assembly", i)
		}
		if par := compileArena(t, src, 4); par != heap {
			t.Fatalf("program %d: parallel arena compile diverged from heap output", i)
		}
		out, err := Compile(src, Config{})
		if err != nil {
			t.Fatalf("program %d: Compile: %v", i, err)
		}
		if out.Asm != heap {
			t.Fatalf("program %d: Compile (arena path) diverged from heap output", i)
		}
	}
}

// FuzzArenaDiff feeds generated programs through both pipelines; any byte
// of divergence is a bug in arena threading (shared-node mutation, slab
// clobbering, stale pooled state).
func FuzzArenaDiff(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, 17, 42, -7, 1 << 33} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		src := progen.Generate(seed).Render()
		if heap, arena := compileHeap(t, src, 0), compileArena(t, src, 0); heap != arena {
			t.Fatalf("seed %d: arena and heap compiles differ", seed)
		}
	})
}

// TestCompiledSurvivesArenaRelease pins the aliasing contract: a Compiled
// must stay intact after its compile's arena has been released, reset and
// reused by later compiles.
func TestCompiledSurvivesArenaRelease(t *testing.T) {
	src := corpus.Large(8)
	out, err := Compile(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Clone(out.Asm)
	stats := out.Stats
	// Churn the arena pool hard: every one of these compiles acquires,
	// fills and releases pooled arenas, overwriting any slab the first
	// compile might have leaked into its result.
	for i := 0; i < 8; i++ {
		if _, err := Compile(corpus.Random(int64(i)), Config{}); err != nil {
			t.Fatal(err)
		}
	}
	if out.Asm != want {
		t.Fatal("Compiled.Asm changed after arena reuse: output aliases arena memory")
	}
	if out.Stats != stats {
		t.Fatal("Compiled.Stats changed after arena reuse")
	}
}

// TestCompileErrorReleasesArena exercises the error exit paths: parse
// errors must release pooled state cleanly, and subsequent compiles must
// be unaffected by a failed one.
func TestCompileErrorReleasesArena(t *testing.T) {
	good := corpus.Programs()[0].Src
	want, err := Compile(good, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"int f( {", "int x = ;", "@", "int f() { return 1 }"} {
		if _, err := Compile(bad, Config{}); err == nil {
			t.Fatalf("compile of %q succeeded", bad)
		}
		got, err := Compile(good, Config{})
		if err != nil {
			t.Fatalf("compile after error: %v", err)
		}
		if got.Asm != want.Asm {
			t.Fatal("output changed after a failed compile: stale pooled state")
		}
	}
}

// TestCompileAllocBudget is the allocation-regression gate, one budget
// per target: the arena PR cut BenchmarkCompile from ~19.6k allocs/op to
// well under the issue's ≤11.8k target, and these deterministic budgets
// keep it there. If a change legitimately moves the number, re-measure
// with `go test -bench 'BenchmarkCompile(RISC)?$' -benchmem` (and under
// -race) and adjust the budget in the same commit.
func TestCompileAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget is a CI gate, skipped in -short")
	}
	// Measured on VAX ~6.8k allocs/op after the arena work, 5077 once
	// mnemonics and register names came from tables built at load, 5020
	// once each production's semantic routine was bound at load, then 769
	// (969-997 under -race, where sync.Pool drops items at random) once
	// operand descriptors came from a pooled per-function slab and were
	// formatted straight into the emitter; RISC 801 (1024-1039 under
	// -race). Each budget keeps a few percent over its measurement.
	budgets := []struct {
		target      string
		plain, race float64
	}{
		{"vax", 800, 1090},
		{"risc", 840, 1140},
	}
	src := corpus.Large(40)
	for _, b := range budgets {
		cfg := Config{Target: b.target}
		if _, err := Compile(src, cfg); err != nil { // load the tables, warm the pools
			t.Fatal(err)
		}
		budget := b.plain
		if raceEnabled {
			budget = b.race
		}
		avg := testing.AllocsPerRun(10, func() {
			if _, err := Compile(src, cfg); err != nil {
				t.Fatal(err)
			}
		})
		if avg > budget {
			t.Errorf("%s: Compile allocations: %.0f allocs/op, budget %.0f", b.target, avg, budget)
		}
	}
}
