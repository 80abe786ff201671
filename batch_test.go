package ggcg

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"ggcg/internal/corpus"
)

func corpusSources(t testing.TB) []string {
	t.Helper()
	progs := corpus.Programs()
	srcs := make([]string, 0, len(progs)+1)
	for _, p := range progs {
		srcs = append(srcs, p.Src)
	}
	srcs = append(srcs, corpus.Large(20))
	return srcs
}

// The tentpole differential check: batch output must be byte-identical to
// sequential output over the full corpus, at several worker counts, and
// in both generator configurations.
func TestCompileBatchMatchesSequential(t *testing.T) {
	srcs := corpusSources(t)
	for _, cfg := range []Config{{}, {Peephole: true}, {Baseline: true}} {
		want := make([]*Compiled, len(srcs))
		for i, src := range srcs {
			c, err := Compile(src, cfg)
			if err != nil {
				t.Fatalf("sequential unit %d: %v", i, err)
			}
			want[i] = c
		}
		for _, workers := range []int{1, 2, 4, 8} {
			got, err := CompileBatch(srcs, BatchConfig{Workers: workers, Config: cfg})
			if err != nil {
				t.Fatalf("cfg %+v workers=%d: %v", cfg, workers, err)
			}
			for i := range srcs {
				if got[i].Asm != want[i].Asm {
					t.Errorf("cfg %+v workers=%d unit %d: assembly differs from sequential", cfg, workers, i)
				}
				if got[i].Stats != want[i].Stats {
					t.Errorf("cfg %+v workers=%d unit %d: stats %+v, want %+v",
						cfg, workers, i, got[i].Stats, want[i].Stats)
				}
			}
		}
	}
}

// Per-function parallelism inside a unit composes with the batch and is
// also byte-identical.
func TestCompileBatchWithUnitWorkers(t *testing.T) {
	src := corpus.Large(30)
	want, err := Compile(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := CompileBatch([]string{src, src}, BatchConfig{Workers: 2, Config: Config{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range got {
		if c.Asm != want.Asm {
			t.Errorf("unit %d: assembly differs from sequential", i)
		}
	}
}

// Table-sharing safety: Compile from N goroutines concurrently over the
// corpus — all sharing the once-built tables and grammar — must produce
// exactly the sequential outputs, run under -race in CI.
func TestConcurrentCompileSharedTables(t *testing.T) {
	srcs := corpusSources(t)
	want := make([]*Compiled, len(srcs))
	for i, src := range srcs {
		c, err := Compile(src, Config{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = c
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Offset the starting unit per goroutine so different units
			// overlap in time.
			for k := range srcs {
				i := (k + g*3) % len(srcs)
				c, err := Compile(srcs[i], Config{})
				if err != nil {
					errs <- err
					return
				}
				if c.Asm != want[i].Asm || c.Stats != want[i].Stats {
					t.Errorf("goroutine %d unit %d: output differs from sequential", g, i)
					return
				}
			}
			// The table consumers of the public API share the same
			// once-built objects; exercise them concurrently too.
			if _, err := Info(); err != nil {
				errs <- err
				return
			}
			if _, err := BuildTables(false); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// BuildTables and Info must describe the same shared tables Compile uses.
func TestInfoAndBuildTablesShareCompileTables(t *testing.T) {
	info, err := Info()
	if err != nil {
		t.Fatal(err)
	}
	states, err := BuildTables(false)
	if err != nil {
		t.Fatal(err)
	}
	if states != info.States {
		t.Errorf("BuildTables states = %d, Info states = %d", states, info.States)
	}
}

// A batch with failing units still compiles the healthy ones and reports
// every failure, lowest index first.
func TestCompileBatchPartialFailure(t *testing.T) {
	srcs := []string{
		`int main() { return 1; }`,
		`int main() { return 2; `, // syntax error
		`int main() { return 3; }`,
		`int main() { return }`, // syntax error
	}
	out, err := CompileBatch(srcs, BatchConfig{Workers: 4})
	if err == nil {
		t.Fatal("expected an error")
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("error is %T, want *BatchError", err)
	}
	if len(be.Failed) != 2 || be.Failed[1] == nil || be.Failed[3] == nil {
		t.Errorf("failed = %v, want failures at 1 and 3", be.Failed)
	}
	if !strings.Contains(err.Error(), "unit 1") {
		t.Errorf("error does not lead with the first failed unit: %v", err)
	}
	if out[0] == nil || out[2] == nil {
		t.Error("healthy units were not compiled")
	}
	if out[1] != nil || out[3] != nil {
		t.Error("failed units have non-nil results")
	}
}

// The batch merges every worker's instrumentation into the caller's
// observer: counters equal the sum of per-unit sequential counters.
func TestCompileBatchObserverMerged(t *testing.T) {
	srcs := corpusSources(t)
	var wantLines, wantTrees int64
	for _, src := range srcs {
		c, err := Compile(src, Config{})
		if err != nil {
			t.Fatal(err)
		}
		wantLines += int64(c.Stats.AsmLines)
		wantTrees += int64(c.Stats.Trees)
	}
	o := NewObserver(ObserverConfig{})
	if _, err := CompileBatch(srcs, BatchConfig{Workers: 4, Config: Config{Observer: o}}); err != nil {
		t.Fatal(err)
	}
	if got := o.Counter("codegen.asm_lines"); got != wantLines {
		t.Errorf("merged codegen.asm_lines = %d, want %d", got, wantLines)
	}
	if got := o.Counter("codegen.trees"); got != wantTrees {
		t.Errorf("merged codegen.trees = %d, want %d", got, wantTrees)
	}
	if p, s := o.CoverageUniverse(); p == 0 || s == 0 {
		t.Errorf("coverage universe not merged: %d prods, %d states", p, s)
	}
}

// The listing is per-unit by construction: batch workers record into
// shards, which never inherit the parent's trace sink, so a traced
// observer gets a batch's instrumentation but none of its actions.
func TestCompileBatchIgnoresTraceSink(t *testing.T) {
	var sb strings.Builder
	o := tracing(&sb)
	srcs := []string{`int main() { return 0; }`, `int main() { return 1 + 2; }`}
	if _, err := CompileBatch(srcs, BatchConfig{Workers: 2, Config: Config{Observer: o}}); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Errorf("batch wrote a %d-byte listing:\n%s", sb.Len(), sb.String())
	}
	if got := o.Counter("codegen.trees"); got == 0 {
		t.Error("batch instrumentation did not merge into the traced observer")
	}
}

// An empty batch is a valid no-op.
func TestCompileBatchEmpty(t *testing.T) {
	out, err := CompileBatch(nil, BatchConfig{})
	if err != nil || len(out) != 0 {
		t.Fatalf("got %v, %v", out, err)
	}
}
