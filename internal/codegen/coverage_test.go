package codegen

// Tests for the table-coverage reporter: the observer's dynamic view of
// the machine description must agree exactly with the matcher's own trace
// of reductions, and the never-fired listing must be its complement.

import (
	"testing"

	"ggcg/internal/cfront"
	"ggcg/internal/corpus"
	"ggcg/internal/obs"
	"ggcg/internal/vax"
)

// TestCoverageMatchesTrace compiles every corpus program with both the
// coverage observer and a trace sink attached and asserts that every
// production the coverage reporter says fired appears in some matcher
// reduction — with the same count — and vice versa.
func TestCoverageMatchesTrace(t *testing.T) {
	for _, p := range corpus.Programs() {
		u, err := cfront.Compile(p.Src)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		o := obs.New(obs.Config{})
		traced := make(map[int]int64)
		o.SetTraceSink(func(e obs.TraceEvent) {
			if e.Kind == "reduce" {
				traced[e.Prod]++
			}
		})
		_, err = Compile(u, Options{Obs: o})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		fired := o.ProdFireCounts()
		for idx, n := range fired {
			if traced[idx] != n {
				t.Errorf("%s: coverage says production %d fired %d times, trace saw %d",
					p.Name, idx, n, traced[idx])
			}
		}
		for idx, n := range traced {
			if fired[idx] != n {
				t.Errorf("%s: trace saw production %d reduce %d times, coverage recorded %d",
					p.Name, idx, n, fired[idx])
			}
		}
		// Never-fired must be the exact complement of fired over the universe.
		never := make(map[int]bool)
		for _, idx := range o.NeverFired() {
			if fired[idx] != 0 {
				t.Errorf("%s: production %d both fired and listed never-fired", p.Name, idx)
			}
			never[idx] = true
		}
		nProds, _ := o.CoverageUniverse()
		for idx := 1; idx <= nProds; idx++ {
			if fired[idx] == 0 && !never[idx] {
				t.Errorf("%s: production %d neither fired nor listed never-fired", p.Name, idx)
			}
		}
	}
}

// TestSeedCorpusNeverFiredProductions accumulates coverage over the whole
// seed corpus into one observer and reports the productions of the VAX
// description that no corpus program exercises — the §8 statistics made
// dynamic. It asserts the report is internally consistent and logs the
// dead-production inventory for the grammar author.
func TestSeedCorpusNeverFiredProductions(t *testing.T) {
	o := obs.New(obs.Config{})
	for _, p := range corpus.Programs() {
		u, err := cfront.Compile(p.Src)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if _, err := Compile(u, Options{Obs: o}); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
	g, err := vax.Grammar()
	if err != nil {
		t.Fatal(err)
	}
	nProds, nStates := o.CoverageUniverse()
	if nProds != len(g.Prods) {
		t.Fatalf("universe %d productions, grammar has %d", nProds, len(g.Prods))
	}
	fired := o.ProdFireCounts()
	delete(fired, 0)
	never := o.NeverFired()
	if len(fired)+len(never) != nProds {
		t.Errorf("fired %d + never-fired %d != universe %d", len(fired), len(never), nProds)
	}
	if len(fired) == 0 {
		t.Fatal("corpus fired no productions at all")
	}
	if len(never) == 0 {
		t.Error("corpus exercises every production; the never-fired report should name the dead weight of a real description")
	}
	states := o.StateVisitCounts()
	if len(states) == 0 || len(states) > nStates {
		t.Errorf("visited %d states of %d", len(states), nStates)
	}
	t.Logf("seed corpus fires %d/%d productions, visits %d/%d states; %d never-fired",
		len(fired), nProds, len(states), nStates, len(never))
	for _, idx := range never {
		t.Logf("  never fired: %4d: %s", idx, o.ProdName(idx))
	}
}
