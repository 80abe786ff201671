package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestReportGolden: the -profile and -counts reports of fib(10) on both
// targets are byte-identical to the recorded ones in testdata. The
// assembly is checked in too, so only the simulators and the report
// formatting are under test.
func TestReportGolden(t *testing.T) {
	for _, tgt := range []string{"vax", "risc"} {
		for _, mode := range []string{"profile", "counts"} {
			t.Run(tgt+"/"+mode, func(t *testing.T) {
				var out bytes.Buffer
				asm := filepath.Join("testdata", "fib."+tgt+".s")
				if err := run([]string{"-target", tgt, "-" + mode, asm}, &out); err != nil {
					t.Fatal(err)
				}
				want, err := os.ReadFile(filepath.Join("testdata", "fib."+tgt+"."+mode))
				if err != nil {
					t.Fatal(err)
				}
				if got := out.String(); got != string(want) {
					t.Errorf("report differs from testdata:\n got:\n%s\nwant:\n%s", got, want)
				}
			})
		}
	}
}

// TestUsage: a missing file argument is a usage error.
func TestUsage(t *testing.T) {
	if err := run(nil, new(bytes.Buffer)); err != errUsage {
		t.Errorf("run() = %v, want the usage error", err)
	}
}
