package ggcg

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestCompileAndRun(t *testing.T) {
	out, err := Compile(`int main() { return 6 * 7; }`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.AsmLines == 0 || out.Stats.Trees == 0 {
		t.Errorf("stats not populated: %+v", out.Stats)
	}
	m, err := NewSim("vax", out.Asm)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Call("_main")
	if err != nil {
		t.Fatal(err)
	}
	if r != 42 {
		t.Errorf("main() = %d, want 42", r)
	}
	if m.Steps() == 0 {
		t.Error("no instructions counted")
	}
}

func TestCompileBaseline(t *testing.T) {
	out, err := Compile(`int main() { return 6 * 7; }`, Config{Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	// The baseline does not run the pattern matcher.
	if out.Stats.Shifts != 0 || out.Stats.Reduces != 0 {
		t.Errorf("baseline reported matcher stats: %+v", out.Stats)
	}
	m, err := NewSim("vax", out.Asm)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Call("_main")
	if err != nil {
		t.Fatal(err)
	}
	if r != 42 {
		t.Errorf("baseline main() = %d, want 42", r)
	}
}

func TestCompileWithArguments(t *testing.T) {
	out, err := Compile(`int main(int x, int y) { return x - y; }`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewSim("vax", out.Asm)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Call("_main", 50, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r != 42 {
		t.Errorf("main(50,8) = %d", r)
	}
}

func TestMachineReadGlobal(t *testing.T) {
	out, err := Compile(`int g; int main() { g = 1234; return 0; }`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewSim("vax", out.Asm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call("_main"); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadGlobal("_g", 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1234 {
		t.Errorf("g = %d", v)
	}
	if _, err := m.ReadGlobal("_nosuch", 4); err == nil {
		t.Error("reading a missing global succeeded")
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile(`int main() { return x; }`, Config{}); err == nil {
		t.Error("undeclared identifier compiled")
	}
	if _, err := Compile(`@`, Config{}); err == nil {
		t.Error("garbage compiled")
	}
	if _, err := NewSim("vax", "not assembly at all $$$"); err == nil {
		t.Error("garbage assembled")
	}
}

// tracing returns an observer whose trace sink writes the appendix-style
// shift/reduce listing to w, one action per line, as ggcc -trace does.
func tracing(w io.Writer) *Observer {
	o := NewObserver(ObserverConfig{})
	o.SetTraceSink(func(e TraceEvent) { fmt.Fprintln(w, e.String()) })
	return o
}

func TestTraceOutput(t *testing.T) {
	var buf bytes.Buffer
	_, err := Compile(`int main() { return 1; }`, Config{Observer: tracing(&buf)})
	if err != nil {
		t.Fatal(err)
	}
	for _, action := range []string{"shift", "reduce", "accept"} {
		if !strings.Contains(buf.String(), action) {
			t.Errorf("trace output missing %s actions:\n%s", action, buf.String())
		}
	}
}

func TestInfo(t *testing.T) {
	info, err := Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.GenericProductions <= 0 || info.Productions <= info.GenericProductions {
		t.Errorf("replication did not grow the grammar: %+v", info)
	}
	if info.States <= 0 || info.Terminals <= 0 || info.Nonterminals <= 0 {
		t.Errorf("table statistics empty: %+v", info)
	}
	if info.ChainRules == 0 {
		t.Error("no chain rules reported; the conversion sub-grammar is missing")
	}
	if info.TableBytes <= 0 || info.PackedTableBytes <= 0 {
		t.Errorf("table sizes not measured: %+v", info)
	}
	if info.PackedTableBytes >= info.TableBytes {
		t.Errorf("packed tables (%d bytes) not smaller than dense (%d bytes)",
			info.PackedTableBytes, info.TableBytes)
	}
}

func TestBuildTablesBothWaysAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("naive construction is slow")
	}
	fast, err := BuildTables(false)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := BuildTables(true)
	if err != nil {
		t.Fatal(err)
	}
	if fast != slow {
		t.Errorf("state counts differ: improved %d, naive %d", fast, slow)
	}
}

func TestNoReverseOpsConfig(t *testing.T) {
	src := `
int a, b, c, d;
int main() { a = 1; b = 2; c = 3; d = 4; return (a + b) - ((b + c) * (a + d)); }`
	with, err := Compile(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Compile(src, Config{NoReverseOps: true})
	if err != nil {
		t.Fatal(err)
	}
	run := func(asm string) int64 {
		m, err := NewSim("vax", asm)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Call("_main")
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if a, b := run(with.Asm), run(without.Asm); a != b {
		t.Errorf("configurations disagree: %d vs %d", a, b)
	}
}
