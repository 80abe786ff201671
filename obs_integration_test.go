package ggcg

// Integration tests for the unified instrumentation layer through the
// public API: phase spans, counters, table coverage, simulator profiles,
// JSONL event round-tripping, the Trace adapter, and the non-negative
// AsmLines guarantee under the peephole optimizer.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"ggcg/internal/corpus"
	"ggcg/internal/obs"
)

const obsProgram = `
int a[10];
int sum(int n) { int i, s = 0; for (i = 0; i < n; i++) s += a[i]; return s; }
int main() { int i; for (i = 0; i < 10; i++) a[i] = i * i; return sum(10); }
`

// AsmLines must never go negative, for either generator, however many
// lines the peephole optimizer removes (regression for the unclamped
// subtraction in the baseline path).
func TestPeepholeAsmLinesNeverNegative(t *testing.T) {
	for _, p := range corpus.Programs() {
		for _, baseline := range []bool{false, true} {
			out, err := Compile(p.Src, Config{Baseline: baseline, Peephole: true})
			if err != nil {
				t.Fatalf("%s baseline=%v: %v", p.Name, baseline, err)
			}
			if out.Stats.AsmLines < 0 {
				t.Errorf("%s baseline=%v: AsmLines = %d, want >= 0",
					p.Name, baseline, out.Stats.AsmLines)
			}
		}
	}
}

// The full pipeline with an observer on each target: spans for every
// phase, counters, coverage, an execution profile merged from the
// target's simulator, and a JSONL stream where every line decodes and
// re-encodes through encoding/json.
func TestObserverEndToEnd(t *testing.T) {
	for _, target := range Targets() {
		t.Run(target, func(t *testing.T) { testObserverEndToEnd(t, target) })
	}
}

func testObserverEndToEnd(t *testing.T, target string) {
	var events bytes.Buffer
	o := NewObserver(ObserverConfig{Events: &events})
	out, err := Compile(obsProgram, Config{Target: target, Peephole: true, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSim(target, out.Asm)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableFuncProfile()
	if r, err := s.Call("_main"); err != nil || r != 285 {
		t.Fatalf("main() = %d, %v; want 285", r, err)
	}
	o.AddSim(s.Profile())
	o.Flush()

	// Phase spans cover the whole pipeline.
	paths := make(map[string]bool)
	for _, p := range o.Phases() {
		paths[p.Path] = true
	}
	for _, want := range []string{
		"compile", "compile/cfront", "compile/cfront/lex", "compile/cfront/parse",
		"compile/codegen", "compile/codegen/transform", "compile/codegen/select",
		"compile/peep",
	} {
		if !paths[want] {
			t.Errorf("no span for %q; have %v", want, paths)
		}
	}

	// Counters and histograms reflect the compilation.
	if o.Counter("cfront.tokens") == 0 || o.Counter("codegen.reduces") == 0 {
		t.Error("pipeline counters not populated")
	}
	if h := o.Histogram("codegen.tree_depth"); h == nil || h.Count == 0 {
		t.Error("tree-depth histogram not populated")
	}
	if h := o.Histogram("matcher.stack_depth"); h == nil || h.Count == 0 {
		t.Error("stack-depth histogram not populated")
	}

	// Table coverage saw the matcher at work.
	fired := o.ProdFireCounts()
	if len(fired) == 0 {
		t.Error("no productions recorded as fired")
	}
	nProds, nStates := o.CoverageUniverse()
	if nProds == 0 || nStates == 0 {
		t.Error("coverage universe not set")
	}
	if len(o.NeverFired()) == 0 {
		t.Error("a single program should leave most of the description unfired")
	}

	// The merged simulator profile attributes work per opcode and function.
	sim := o.Sim()
	if sim.Steps == 0 || sim.Steps != s.Steps() {
		t.Errorf("profile steps %d != machine steps %d", sim.Steps, s.Steps())
	}
	if len(sim.Opcodes) == 0 || sim.FuncSteps["_sum"] == 0 || sim.FuncSteps["_main"] == 0 {
		t.Errorf("profile incomplete: %+v", sim)
	}
	var modeEvals int64
	for _, n := range sim.Modes {
		modeEvals += n
	}
	if modeEvals == 0 {
		t.Error("no addressing-mode evaluations recorded")
	}

	// Every JSONL line round-trips through encoding/json.
	lines := strings.Split(strings.TrimSpace(events.String()), "\n")
	if len(lines) < 10 {
		t.Fatalf("only %d event lines", len(lines))
	}
	kinds := map[string]int{}
	for _, line := range lines {
		var e ObsEvent
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("event %q does not decode: %v", line, err)
		}
		re, err := json.Marshal(&e)
		if err != nil {
			t.Fatal(err)
		}
		var e2 ObsEvent
		if err := json.Unmarshal(re, &e2); err != nil {
			t.Fatalf("re-encoded event does not decode: %v", err)
		}
		kinds[e.Kind]++
	}
	for _, k := range []string{"span", "counter", "hist", "coverage", "simprofile"} {
		if kinds[k] == 0 {
			t.Errorf("no %q events; kinds = %v", k, kinds)
		}
	}
}

// The listing is a sink over the observer's trace stream: the
// appendix-style listing and the JSONL trace events must describe the
// exact same action sequence.
func TestTraceAdapterCannotDrift(t *testing.T) {
	var listing, events bytes.Buffer
	o := NewObserver(ObserverConfig{Events: &events, TraceEvents: true})
	o.SetTraceSink(func(e TraceEvent) { fmt.Fprintln(&listing, e.String()) })
	if _, err := Compile(`int main() { return 6 * 7; }`, Config{Observer: o}); err != nil {
		t.Fatal(err)
	}
	listed := strings.Split(strings.TrimSpace(listing.String()), "\n")
	var traced []string
	for _, line := range strings.Split(strings.TrimSpace(events.String()), "\n") {
		var e ObsEvent
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatal(err)
		}
		if e.Kind != "trace" {
			continue
		}
		// Re-render the listing line from the structured event (the action
		// kind travels in Name; Kind is the event-stream discriminator).
		traced = append(traced, obs.TraceEvent{Kind: e.Name, Term: e.Term, Prod: e.Prod, Rule: e.Rule}.String())
	}
	if len(listed) == 0 || len(listed) != len(traced) {
		t.Fatalf("listing has %d lines, event stream has %d trace events", len(listed), len(traced))
	}
	for i := range listed {
		if listed[i] != traced[i] {
			t.Errorf("line %d: listing %q vs events %q", i, listed[i], traced[i])
		}
	}
}

// A listing covers the compiles made while its sink is installed: once
// the sink is removed, a later compile on the same observer appends
// nothing to the writer — no pooled matcher keeps tracing into it — while
// both compiles' spans reach the observer.
func TestTraceSinkDoesNotOutliveCompile(t *testing.T) {
	const src = `int main() { return 1 + 2; }`
	var listing bytes.Buffer
	o := tracing(&listing)
	if _, err := Compile(src, Config{Observer: o}); err != nil {
		t.Fatal(err)
	}
	n := listing.Len()
	if n == 0 {
		t.Fatal("traced compile wrote no listing")
	}
	o.SetTraceSink(nil)
	if o.WantsTrace() {
		t.Error("observer still wants trace actions after its sink was removed")
	}
	if _, err := Compile(src, Config{Observer: o}); err != nil {
		t.Fatal(err)
	}
	if extra := listing.Len() - n; extra != 0 {
		t.Errorf("untraced compile appended %d bytes to the earlier listing", extra)
	}
	for _, p := range o.Phases() {
		if p.Path == "compile" && p.Count != 2 {
			t.Errorf("compile span count %d, want 2 (both compiles record into the observer)", p.Count)
		}
	}
}
