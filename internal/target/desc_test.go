package target_test

import (
	"strings"
	"sync"
	"testing"

	"ggcg/internal/cgram"
	"ggcg/internal/ir"
	"ggcg/internal/matcher"
	"ggcg/internal/risc"
	"ggcg/internal/tablegen"
	"ggcg/internal/target"
	"ggcg/internal/vax"
)

// TestDescBuildsOnce: concurrent first uses of one description share a
// single load, and tables constructed afresh from a backend's text ship
// under the backend's own table ID — construction is deterministic over
// the same bytes, and the shipped ID is the one a build computes.
func TestDescBuildsOnce(t *testing.T) {
	for _, c := range []struct {
		mach    target.Machine
		generic string
	}{{vax.Target, vax.GenericGrammar}, {risc.Target, risc.GenericGrammar}} {
		t.Run(c.mach.Name(), func(t *testing.T) {
			g, err := c.mach.Grammar()
			if err != nil {
				t.Fatal(err)
			}
			built, err := tablegen.Build(g, tablegen.Options{})
			if err != nil {
				t.Fatal(err)
			}
			shipped, err := tablegen.Ship(built)
			if err != nil {
				t.Fatal(err)
			}
			d := target.NewDesc(c.mach.Name(), c.generic, shipped, nil)
			const n = 8
			tabs := make([]*tablegen.Tables, n)
			ids := make([]string, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					tb, err := d.Tables()
					if err != nil {
						t.Error(err)
						return
					}
					id, err := d.TableID()
					if err != nil {
						t.Error(err)
						return
					}
					tabs[i], ids[i] = tb, id
				}(i)
			}
			wg.Wait()
			for i := 1; i < n; i++ {
				if tabs[i] != tabs[0] || ids[i] != ids[0] {
					t.Fatalf("goroutine %d got tables %p / ID %s, goroutine 0 got %p / %s",
						i, tabs[i], ids[i], tabs[0], ids[0])
				}
			}
			if g, err := d.Grammar(); err != nil || tabs[0].Grammar != g {
				t.Errorf("tables not built from the shared grammar (err %v)", err)
			}
			want, err := c.mach.TableID()
			if err != nil {
				t.Fatal(err)
			}
			if ids[0] != want {
				t.Errorf("table ID %s, backend's %s", ids[0], want)
			}
			if d.Name() != c.mach.Name() {
				t.Errorf("Name() = %q", d.Name())
			}
		})
	}
}

// TestDescErrorsPropagate: a description that does not parse fails every
// derived build with the same error instead of building anything.
func TestDescErrorsPropagate(t *testing.T) {
	d := target.NewDesc("broken", "reg.l : (\n", nil, nil)
	_, gerr := d.Grammar()
	if gerr == nil {
		t.Fatal("broken description parsed")
	}
	if _, err := d.Tables(); err == nil || err.Error() != gerr.Error() {
		t.Errorf("Tables error %v, want %v", err, gerr)
	}
	if _, err := d.TableID(); err == nil || err.Error() != gerr.Error() {
		t.Errorf("TableID error %v, want %v", err, gerr)
	}
}

// TestDescRefusesStaleTables: tables shipped for one description do not
// load over another, and a description shipped without tables says how
// to generate them; neither constructs anything.
func TestDescRefusesStaleTables(t *testing.T) {
	vaxGrammar, err := vax.Target.Grammar()
	if err != nil {
		t.Fatal(err)
	}
	built, err := tablegen.Build(vaxGrammar, tablegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := tablegen.Ship(built)
	if err != nil {
		t.Fatal(err)
	}
	d := target.NewDesc("risc", risc.GenericGrammar, shipped, nil)
	if _, err := d.Tables(); err == nil || !strings.Contains(err.Error(), "ggtables -gen") {
		t.Errorf("VAX tables over the RISC description: err %v", err)
	}
	if _, err := d.TableID(); err == nil {
		t.Error("stale tables have a table ID")
	}
	d = target.NewDesc("risc", risc.GenericGrammar, nil, nil)
	if _, err := d.Tables(); err == nil || !strings.Contains(err.Error(), "ggtables -target risc -gen") {
		t.Errorf("description without tables: err %v", err)
	}
	if _, err := d.Grammar(); err != nil {
		t.Errorf("grammar of a description without tables: %v", err)
	}
}

// TestDescBindsEveryProduction: each backend's description loads only
// when every production names a routine of the backend's table, every
// suffix names a machine type, and every routine of the table is named by
// some production — so a misspelled action or a dead routine fails here,
// at load, whether or not any program reduces the production.
func TestDescBindsEveryProduction(t *testing.T) {
	for _, m := range []target.Machine{vax.Target, risc.Target} {
		g, err := m.Grammar()
		if err != nil {
			t.Errorf("%s: %v", m.Name(), err)
			continue
		}
		if _, err := m.Tables(); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
		actions := 0
		for _, p := range g.Prods {
			if p.Action != "" {
				actions++
			}
		}
		if actions == 0 {
			t.Errorf("%s: no production names a routine", m.Name())
		}
	}
}

// toyGrammar exercises the binding: an action with a suffix, one without,
// and a glue production.
const toyGrammar = `
%start stmt
stmt -> Jump Label ; action=jump
stmt -> reg.l
reg.l -> Dreg.l ; action=dreg.l
`

// TestRoutinesBind: Bind resolves each production's routine and machine
// type once; Reduce indexes them, condensing glue, and refuses to run
// before a description is bound. A missing routine, an unknown suffix and
// a routine no production names are load errors, which a Desc reports
// from Grammar and Tables under the machine's name.
func TestRoutinesBind(t *testing.T) {
	type gen struct{ seen []ir.Type }
	record := func(g *gen, ty ir.Type, _ []matcher.Value) (any, error) {
		g.seen = append(g.seen, ty)
		return len(g.seen), nil
	}
	table := map[string]target.Routine[*gen]{"jump": record, "dreg": record}
	g, err := cgram.Parse(toyGrammar)
	if err != nil {
		t.Fatal(err)
	}
	r := target.NewRoutines(table)
	var x gen
	if _, err := r.Reduce(&x, g.Prods[0], nil); err == nil {
		t.Error("Reduce ran before the description was bound")
	}
	if err := r.Bind(g); err != nil {
		t.Fatal(err)
	}
	glue := []matcher.Value{{Sem: "attr"}}
	for i, want := range []any{1, "attr", 2} {
		if got, err := r.Reduce(&x, g.Prods[i], glue); err != nil || got != want {
			t.Errorf("production %d: Reduce = %v, %v; want %v", g.Prods[i].Index, got, err, want)
		}
	}
	if len(x.seen) != 2 || x.seen[0] != ir.Void || x.seen[1] != ir.Long {
		t.Errorf("routines saw types %v, want [%v %v]", x.seen, ir.Void, ir.Long)
	}

	for _, c := range []struct {
		grammar string
		table   map[string]target.Routine[*gen]
		want    string
	}{
		{toyGrammar, map[string]target.Routine[*gen]{"jump": record}, `no semantic routine "dreg"`},
		{strings.Replace(toyGrammar, "dreg.l", "dreg.q", 1), table, `unknown type suffix "q"`},
		{toyGrammar, map[string]target.Routine[*gen]{"jump": record, "dreg": record, "spare": record}, `semantic routine "spare" is named by no production`},
	} {
		d := target.NewDesc("toy", c.grammar, nil, target.NewRoutines(c.table).Bind)
		_, gerr := d.Grammar()
		if gerr == nil || !strings.HasPrefix(gerr.Error(), "toy: ") || !strings.Contains(gerr.Error(), c.want) {
			t.Errorf("Grammar error %v, want one naming %s", gerr, c.want)
		}
		if _, err := d.Tables(); err == nil || gerr == nil || err.Error() != gerr.Error() {
			t.Errorf("Tables error %v, want %v", err, gerr)
		}
	}
}
