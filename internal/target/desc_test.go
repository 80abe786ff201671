package target_test

import (
	"sync"
	"testing"

	"ggcg/internal/risc"
	"ggcg/internal/tablegen"
	"ggcg/internal/target"
	"ggcg/internal/vax"
)

// TestDescBuildsOnce: concurrent first uses of one description share a
// single build, and a fresh description over a backend's text hashes to
// the backend's own table ID — the loader is deterministic over the same
// bytes.
func TestDescBuildsOnce(t *testing.T) {
	for _, c := range []struct {
		mach    target.Machine
		generic string
	}{{vax.Target, vax.GenericGrammar}, {risc.Target, risc.GenericGrammar}} {
		t.Run(c.mach.Name(), func(t *testing.T) {
			d := target.NewDesc(c.mach.Name(), c.generic)
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
	d := target.NewDesc("broken", "reg.l : (\n")
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
