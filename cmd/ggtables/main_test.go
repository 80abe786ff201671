package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ggcg"
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
