package target

import (
	"strings"
	"sync"
	"testing"

	"ggcg/internal/cgram"
	"ggcg/internal/ir"
	"ggcg/internal/peep"
	"ggcg/internal/tablegen"
)

// fakeMachine is the least Machine that can live in the registry. The
// registry only ever calls Name; everything else is a stub.
type fakeMachine struct{ name string }

func (f fakeMachine) Name() string                           { return f.name }
func (fakeMachine) Grammar() (*cgram.Grammar, error)         { return nil, nil }
func (fakeMachine) GenericStats() (cgram.Stats, error)       { return cgram.Stats{}, nil }
func (fakeMachine) Tables() (*tablegen.Tables, error)        { return nil, nil }
func (fakeMachine) TableID() (string, error)                 { return "", nil }
func (fakeMachine) NewGen(*Emitter, *ir.Func, int) Gen       { return nil }
func (fakeMachine) FuncHeader(*Emitter, string, int)         {}
func (fakeMachine) Peephole(asm string) (string, peep.Stats) { return asm, peep.Stats{} }
func (fakeMachine) NewSim(string) (Sim, error)               { return nil, nil }

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestRegisterRejectsWiringMistakes: nil machines, empty names and
// duplicate names are build-time wiring bugs and must panic at init time,
// not surface later as a mysterious lookup.
func TestRegisterRejectsWiringMistakes(t *testing.T) {
	mustPanic(t, "Register(nil)", func() { Register(nil) })
	mustPanic(t, "Register with empty name", func() { Register(fakeMachine{}) })
	Register(fakeMachine{name: "dup-test"})
	mustPanic(t, "duplicate Register", func() { Register(fakeMachine{name: "dup-test"}) })
}

// TestLookupUnknownListsNames: a miss names every registered target, so a
// mistyped -target flag tells the user what would have worked.
func TestLookupUnknownListsNames(t *testing.T) {
	Register(fakeMachine{name: "listed-a"})
	Register(fakeMachine{name: "listed-b"})
	_, err := Lookup("no-such-target")
	if err == nil {
		t.Fatal("Lookup of an unknown target succeeded")
	}
	for _, want := range []string{`"no-such-target"`, "listed-a", "listed-b"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}

	m, err := Lookup("listed-a")
	if err != nil {
		t.Fatalf("Lookup(listed-a): %v", err)
	}
	if m.Name() != "listed-a" {
		t.Errorf("Lookup returned %q", m.Name())
	}
}

// TestNamesSorted: Names is deterministic regardless of registration
// order (it feeds error messages and CLI help).
func TestNamesSorted(t *testing.T) {
	Register(fakeMachine{name: "zz-last"})
	Register(fakeMachine{name: "aa-first"})
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
}

// TestConcurrentLookup hammers the registry from many goroutines while a
// registration lands, for the race detector's benefit: backends register
// from package inits, but lookups happen on every compilation.
func TestConcurrentLookup(t *testing.T) {
	Register(fakeMachine{name: "conc-base"})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if _, err := Lookup("conc-base"); err != nil {
					t.Errorf("Lookup(conc-base): %v", err)
					return
				}
				Names()
				Lookup("conc-missing") //nolint:errcheck // miss path under race
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		Register(fakeMachine{name: "conc-late"})
	}()
	wg.Wait()
	if _, err := Lookup("conc-late"); err != nil {
		t.Errorf("late registration not visible: %v", err)
	}
}
