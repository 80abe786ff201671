package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ggcg"
	"ggcg/internal/tablegen"
	"ggcg/internal/target"
)

// TestReportMatchesInfo: for every built-in target the report's grammar
// and table sizes are the ones the library reports for the same machine.
func TestReportMatchesInfo(t *testing.T) {
	for _, name := range []string{"vax", "risc"} {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{"-target", name}, &out); err != nil {
				t.Fatal(err)
			}
			info, err := ggcg.InfoFor(name)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(out.String(), "\n")
			for i, want := range []string{
				"built-in " + strings.ToUpper(name) + " description",
				fmt.Sprintf("generic:    %4d productions", info.GenericProductions),
				fmt.Sprintf("replicated: %4d productions  %4d terminals  %4d nonterminals  %4d chain rules",
					info.Productions, info.Terminals, info.Nonterminals, info.ChainRules),
				fmt.Sprintf("tables:     %4d states", info.States),
			} {
				if i >= len(lines) || !strings.HasPrefix(lines[i], want) {
					t.Errorf("line %d does not start with %q:\n%s", i, want, out.String())
				}
			}
		})
	}
}

// TestUnknownTarget: a target missing from the registry fails before any
// report is written, naming the targets that would have worked.
func TestUnknownTarget(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-target", "pdp11"}, &out)
	if err == nil {
		t.Fatal("unknown target accepted")
	}
	for _, want := range []string{`"pdp11"`, "risc", "vax"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	if out.Len() != 0 {
		t.Errorf("report written for an unknown target:\n%s", out.String())
	}
}

// TestShippedTablesUpToDate is the drift check: the tables each backend
// ships must be exactly what the constructor builds from its description
// today. Editing a description (or the constructor) without rerunning
// `go generate ./internal/vax ./internal/risc` fails here.
func TestShippedTablesUpToDate(t *testing.T) {
	for _, name := range []string{"vax", "risc"} {
		t.Run(name, func(t *testing.T) {
			mach, err := target.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			g, err := mach.Grammar()
			if err != nil {
				t.Fatal(err)
			}
			built, err := tablegen.Build(g, tablegen.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := generate(&want, name, built); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("..", "..", "internal", name, "tables_gen.go")
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s is stale: run go generate ./internal/%s", path, name)
			}
			// The shipped identity is the one a build computes.
			id, err := tablegen.ID(built)
			if err != nil {
				t.Fatal(err)
			}
			if shipped, err := mach.TableID(); err != nil || shipped != id {
				t.Errorf("shipped table ID %s (err %v), built %s", shipped, err, id)
			}
		})
	}
}

// TestGenRejectsOtherConstructions: -gen writes only what a backend
// ships, the standard construction of its built-in description.
func TestGenRejectsOtherConstructions(t *testing.T) {
	out := filepath.Join(t.TempDir(), "tables_gen.go")
	for _, args := range [][]string{
		{"-naive", "-gen", out},
		{"-gen", out, "some.g"},
	} {
		if err := run(args, new(bytes.Buffer)); err == nil || !strings.Contains(err.Error(), "-gen") {
			t.Errorf("run %v: err %v, want a -gen error", args, err)
		}
	}
	if _, err := os.Stat(out); err == nil {
		t.Error("a rejected -gen wrote its file")
	}
}
