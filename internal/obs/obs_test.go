package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// A nil observer must accept every call as a no-op: instrumented code
// calls through possibly-nil pointers without guards.
func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer reports enabled")
	}
	sp := o.Start("phase")
	sp.End()
	o.Count("c", 1)
	o.Observe("h", 5)
	o.ProdReduced(3)
	o.StateVisited(7)
	o.SetCoverageUniverse(10, 10, nil)
	o.SetTraceSink(func(TraceEvent) {})
	o.Trace(TraceEvent{Kind: "accept"})
	o.AddSim(SimProfile{Steps: 1})
	o.Flush()
	o.WriteReport(&bytes.Buffer{})
	if o.WantsTrace() {
		t.Fatal("nil observer wants trace")
	}
	if o.Counter("c") != 0 || o.Histogram("h") != nil || o.NeverFired() != nil {
		t.Fatal("nil observer returned data")
	}
}

func TestSpanNestingAndAggregation(t *testing.T) {
	o := New(Config{})
	outer := o.Start("outer")
	for i := 0; i < 3; i++ {
		inner := o.Start("inner")
		inner.End()
	}
	outer.End()
	outer.End() // idempotent

	phases := o.Phases()
	if len(phases) != 2 {
		t.Fatalf("got %d phases, want 2: %+v", len(phases), phases)
	}
	byPath := map[string]PhaseStat{}
	for _, p := range phases {
		byPath[p.Path] = p
	}
	if p := byPath["outer/inner"]; p.Count != 3 {
		t.Errorf("outer/inner count = %d, want 3", p.Count)
	}
	if p := byPath["outer"]; p.Count != 1 {
		t.Errorf("outer count = %d, want 1", p.Count)
	}
}

func TestCountersAndHistograms(t *testing.T) {
	o := New(Config{})
	o.Count("work", 2)
	o.Count("work", 3)
	if got := o.Counter("work"); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	for _, v := range []int64{0, 1, 2, 3, 4, 100} {
		o.Observe("depth", v)
	}
	h := o.Histogram("depth")
	if h.Count != 6 || h.Sum != 110 || h.Max != 100 {
		t.Errorf("hist = %+v", h)
	}
	if h.Buckets[0] != 1 { // the zero
		t.Errorf("bucket 0 = %d, want 1", h.Buckets[0])
	}
	if h.Buckets[2] != 2 { // 2 and 3
		t.Errorf("bucket 2-3 = %d, want 2", h.Buckets[2])
	}
	if BucketLabel(0) != "0" || BucketLabel(1) != "1" || BucketLabel(3) != "4-7" {
		t.Errorf("bucket labels wrong: %q %q %q", BucketLabel(0), BucketLabel(1), BucketLabel(3))
	}
}

func TestCoverage(t *testing.T) {
	o := New(Config{})
	o.SetCoverageUniverse(5, 4, func(i int) string { return "p" + itoa(int64(i)) })
	o.ProdReduced(2)
	o.ProdReduced(2)
	o.ProdReduced(4)
	o.StateVisited(0)
	o.StateVisited(3)

	fired := o.ProdFireCounts()
	if fired[2] != 2 || fired[4] != 1 || len(fired) != 2 {
		t.Errorf("fired = %v", fired)
	}
	never := o.NeverFired()
	want := []int{1, 3, 5}
	if len(never) != len(want) {
		t.Fatalf("never-fired = %v, want %v", never, want)
	}
	for i := range want {
		if never[i] != want[i] {
			t.Fatalf("never-fired = %v, want %v", never, want)
		}
	}
	if name := o.ProdName(2); name != "p2" {
		t.Errorf("ProdName = %q", name)
	}
	if p, s := o.CoverageUniverse(); p != 5 || s != 4 {
		t.Errorf("universe = %d,%d", p, s)
	}
	// Indices beyond the declared universe must not panic (grow on demand).
	o.ProdReduced(40)
	o.StateVisited(40)
}

func TestTraceEventRendering(t *testing.T) {
	shift := TraceEvent{Kind: "shift", Term: "Plus.l"}
	reduce := TraceEvent{Kind: "reduce", Prod: 7, Rule: "con -> Const.b ; action=con"}
	if got := shift.String(); got != "shift  Plus.l" {
		t.Errorf("shift = %q", got)
	}
	if got := reduce.String(); got != "reduce 7: con -> Const.b ; action=con" {
		t.Errorf("reduce = %q", got)
	}
	if got := (TraceEvent{Kind: "accept"}).String(); got != "accept" {
		t.Errorf("accept = %q", got)
	}
}

func TestTraceFanout(t *testing.T) {
	var events bytes.Buffer
	o := New(Config{Events: &events, TraceEvents: true})
	var listing []string
	o.SetTraceSink(func(e TraceEvent) { listing = append(listing, e.String()) })
	if !o.WantsTrace() {
		t.Fatal("observer with sink does not want trace")
	}
	o.Trace(TraceEvent{Kind: "shift", Term: "Name.l"})
	o.Trace(TraceEvent{Kind: "accept"})
	if len(listing) != 2 {
		t.Fatalf("sink saw %d events", len(listing))
	}
	lines := strings.Split(strings.TrimSpace(events.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("event stream has %d lines", len(lines))
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != "trace" || e.Term != "Name.l" {
		t.Errorf("event = %+v", e)
	}
}

// Every emitted JSONL line must round-trip through encoding/json: decode
// into the Event struct, re-encode, decode again, and compare.
func TestEventJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	o := New(Config{Events: &buf, TraceEvents: true})
	sp := o.Start("compile")
	inner := o.Start("cfront")
	inner.End()
	sp.End()
	o.Count("tokens", 42)
	o.Observe("depth", 9)
	o.SetCoverageUniverse(3, 3, nil)
	o.ProdReduced(1)
	o.StateVisited(2)
	o.Trace(TraceEvent{Kind: "reduce", Prod: 1, Rule: "a -> B"})
	o.AddSim(SimProfile{Steps: 10, Opcodes: map[string]int64{"movl": 4},
		Modes: map[string]int64{"rN": 2}, FuncSteps: map[string]int64{"_main": 10}})
	o.Flush()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	kinds := map[string]int{}
	for _, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %q does not decode: %v", line, err)
		}
		re, err := json.Marshal(&e)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		var e2 Event
		if err := json.Unmarshal(re, &e2); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		b1, _ := json.Marshal(&e)
		b2, _ := json.Marshal(&e2)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("round trip changed event: %s vs %s", b1, b2)
		}
		kinds[e.Kind]++
	}
	for _, k := range []string{"span", "counter", "hist", "trace", "coverage", "simprofile"} {
		if kinds[k] == 0 {
			t.Errorf("no %q event in stream; kinds = %v", k, kinds)
		}
	}
}

func TestSimProfileAddAndDiff(t *testing.T) {
	var p SimProfile
	p.Add(SimProfile{Steps: 5, Opcodes: map[string]int64{"movl": 3}})
	p.Add(SimProfile{Steps: 2, Opcodes: map[string]int64{"movl": 1, "ret": 1}})
	if p.Steps != 7 || p.Opcodes["movl"] != 4 || p.Opcodes["ret"] != 1 {
		t.Errorf("p = %+v", p)
	}
	prev := SimProfile{Steps: 5, Opcodes: map[string]int64{"movl": 3}}
	d := p.Diff(prev)
	if d.Steps != 2 || d.Opcodes["movl"] != 1 || d.Opcodes["ret"] != 1 {
		t.Errorf("diff = %+v", d)
	}
	if _, ok := d.Opcodes["clrl"]; ok {
		t.Error("diff invented a key")
	}
}

func TestWriteReport(t *testing.T) {
	o := New(Config{})
	sp := o.Start("compile")
	sp.End()
	o.Count("tokens", 3)
	o.Observe("depth", 2)
	o.SetCoverageUniverse(2, 2, nil)
	o.ProdReduced(1)
	o.StateVisited(0)
	o.AddSim(SimProfile{Steps: 4, Opcodes: map[string]int64{"ret": 4}})
	var buf bytes.Buffer
	o.WriteReport(&buf)
	out := buf.String()
	for _, want := range []string{"phase spans", "counters", "histograms", "table coverage", "simulator profile", "never-fired"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestSpanLineMatchesEncoder: the hand-written span line is byte for byte
// what encoding/json writes for the same event, escapes and omitted zero
// fields included.
func TestSpanLineMatchesEncoder(t *testing.T) {
	for _, ev := range []Event{
		{Kind: "span", Name: "cfront", Path: "unit/cfront", Ts: 12, Ns: 3456, Depth: 1},
		{Kind: "span", Name: "compile", Path: "compile", Track: 3, Bytes: -7},
		{Kind: "span"},
		{Kind: "span", Name: `a"b\c`, Path: "x<y>&z/ /é/\x01"},
	} {
		var want, got bytes.Buffer
		json.NewEncoder(&want).Encode(&ev)
		e := &encoder{enc: json.NewEncoder(&got), w: &got}
		e.span(ev)
		if got.String() != want.String() {
			t.Errorf("span line %q, encoding/json %q", got.String(), want.String())
		}
	}
}
