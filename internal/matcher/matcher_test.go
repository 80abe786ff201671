package matcher

import (
	"fmt"
	"strings"
	"testing"

	"ggcg/internal/cgram"
	"ggcg/internal/ir"
	"ggcg/internal/obs"
	"ggcg/internal/tablegen"
)

// calcSem is a toy semantics that evaluates constant expressions, so the
// tests can check that reductions fire in a correct order with correct
// attribute flow.
type calcSem struct {
	preds map[string]func(args []Value) bool
}

func (s *calcSem) Reduce(p *cgram.Prod, args []Value) (any, error) {
	switch p.Action {
	case "imm":
		return args[0].Tok.N.Val, nil
	case "add":
		return args[1].Sem.(int64) + args[2].Sem.(int64), nil
	case "mul":
		return args[1].Sem.(int64) * args[2].Sem.(int64), nil
	case "scale8":
		// Deliberately distinct from mul so tests can tell which pattern won.
		return args[1].Sem.(int64) * 8000, nil
	case "eight":
		return int64(8), nil
	case "":
		return args[0].Sem, nil
	}
	return args[len(args)-1].Sem, nil
}

func (s *calcSem) Predicate(name string, p *cgram.Prod, args []Value) bool {
	if f, ok := s.preds[name]; ok {
		return f(args)
	}
	return false
}

const calcGrammar = `
%start stmt
stmt   -> Assign.l lval.l rval.l ; action=asg
lval.l -> Name.l
rval.l -> reg.l
reg.l  -> Plus.l rval.l rval.l ; action=add
reg.l  -> Mul.l rval.l rval.l  ; action=mul
rval.l -> Const.l ; action=imm
rval.l -> Const.b ; action=imm
`

func buildTables(t *testing.T, src string) *tablegen.Tables {
	t.Helper()
	g, err := cgram.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := tablegen.Build(g, tablegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func matchTree(t *testing.T, m *Matcher, src string) Value {
	t.Helper()
	v, err := m.Match(ir.Linearize(ir.MustParse(src)))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestMatchEvaluates(t *testing.T) {
	m := New(buildTables(t, calcGrammar), &calcSem{})
	// a = (3+4)*5  — constants chosen to avoid the special terminals.
	v := matchTree(t, m, `(Assign.l (Name.l a) (Mul.l (Plus.l (Const.b 3) (Const.b 5)) (Const.b 6)))`)
	if got := v.Sem.(int64); got != 48 {
		t.Errorf("evaluated %d, want 48", got)
	}
	st := m.Stats()
	if st.Trees != 1 || st.Shifts != 7 || st.Reduces == 0 {
		t.Errorf("stats = %+v", st)
	}
}

// traced attaches an observer whose trace sink collects every action.
func traced(m *Matcher) *[]obs.TraceEvent {
	var events []obs.TraceEvent
	m.Obs = obs.New(obs.Config{})
	m.Obs.SetTraceSink(func(e obs.TraceEvent) { events = append(events, e) })
	return &events
}

func TestTraceEvents(t *testing.T) {
	tb := buildTables(t, calcGrammar)
	m := New(tb, &calcSem{})
	events := traced(m)
	matchTree(t, m, `(Assign.l (Name.l a) (Const.l 300000))`)
	var lines []string
	for _, e := range *events {
		lines = append(lines, e.String())
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"shift  Assign.l", "shift  Name.l", "lval.l -> Name.l", "shift  Const.l", "accept"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace missing %q:\n%s", want, joined)
		}
	}
	if lines[len(lines)-1] != "accept" {
		t.Errorf("last event = %q", lines[len(lines)-1])
	}

	// Reset detaches the observer: a pooled matcher traces nothing for
	// its next user.
	n := len(*events)
	m.Reset(tb, &calcSem{})
	matchTree(t, m, `(Assign.l (Name.l a) (Const.l 300000))`)
	if len(*events) != n {
		t.Errorf("%d actions traced after Reset", len(*events)-n)
	}
}

func TestUnknownTerminalIsBlock(t *testing.T) {
	m := New(buildTables(t, calcGrammar), &calcSem{})
	_, err := m.Match(ir.Linearize(ir.MustParse(`(Assign.l (Name.l a) (Indir.l (Name.l b)))`)))
	if err == nil {
		t.Fatal("unknown terminal accepted")
	}
	be, ok := err.(*BlockError)
	if !ok {
		t.Fatalf("error type %T: %v", err, err)
	}
	if !strings.Contains(be.Term, "Indir.l") {
		t.Errorf("block error term = %q", be.Term)
	}
}

func TestErrorActionIsBlock(t *testing.T) {
	m := New(buildTables(t, calcGrammar), &calcSem{})
	// A bare constant is not a statement.
	_, err := m.Match(ir.Linearize(ir.MustParse(`(Const.l 1000)`)))
	if err == nil {
		t.Fatal("bare constant accepted as statement")
	}
	if _, ok := err.(*BlockError); !ok {
		t.Fatalf("error type %T: %v", err, err)
	}
}

// The dynamic-choice grammar: two same-length patterns for Mul.l, one
// qualified by a predicate recognizing a multiply-by-eight idiom.
const choiceGrammar = `
%start stmt
stmt   -> Assign.l lval.l rval.l ; action=asg
lval.l -> Name.l
rval.l -> reg.l
s8.l   -> Mul.l rval.l rval.l ; action=scale8 pred=rhsIsEight
reg.l  -> Mul.l rval.l rval.l ; action=mul
rval.l -> s8.l
rval.l -> Const.l ; action=imm
rval.l -> Const.b ; action=imm
rval.l -> Eight   ; action=eight
`

func TestDynamicChoiceUsesPredicates(t *testing.T) {
	sem := &calcSem{preds: map[string]func([]Value) bool{
		"rhsIsEight": func(args []Value) bool {
			v, ok := args[2].Sem.(int64)
			return ok && v == 8
		},
	}}
	tb := buildTables(t, choiceGrammar)
	m := New(tb, sem)
	// a = 5 * 8: the qualified scale8 pattern must win.
	v, err := m.Match(ir.Linearize(ir.MustParse(`(Assign.l (Name.l a) (Mul.l (Const.b 5) (Const.b 8)))`)))
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Sem.(int64); got != 40000 {
		t.Errorf("5*8 = %d, want 40000 via the qualified scale8 pattern", got)
	}
	// a = 5 * 9: the predicate fails, the unqualified mul is the default.
	v, err = m.Match(ir.Linearize(ir.MustParse(`(Assign.l (Name.l a) (Mul.l (Const.b 5) (Const.b 9)))`)))
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Sem.(int64); got != 45 {
		t.Errorf("5*9 = %d, want 45 via the unqualified mul", got)
	}
}

// failSem always errors in Reduce, to check error propagation.
type failSem struct{ calcSem }

func (s *failSem) Reduce(p *cgram.Prod, args []Value) (any, error) {
	if p.Action == "add" {
		return nil, errBoom
	}
	return s.calcSem.Reduce(p, args)
}

var errBoom = &BlockError{Term: "boom"}

func TestReduceErrorPropagates(t *testing.T) {
	m := New(buildTables(t, calcGrammar), &failSem{})
	_, err := m.Match(ir.Linearize(ir.MustParse(`(Assign.l (Name.l a) (Plus.l (Const.b 3) (Const.b 5)))`)))
	if err == nil || !strings.Contains(err.Error(), "action \"add\"") {
		t.Errorf("err = %v", err)
	}
}

func TestMultipleTreesAccumulateStats(t *testing.T) {
	m := New(buildTables(t, calcGrammar), &calcSem{})
	for i := 0; i < 3; i++ {
		matchTree(t, m, `(Assign.l (Name.l a) (Const.l 1000))`)
	}
	if got := m.Stats().Trees; got != 3 {
		t.Errorf("trees = %d, want 3", got)
	}
}

// allPredSem rejects every predicate, forcing the runtime semantic-block
// error when every tied candidate is qualified (§3.2).
type allPredSem struct{ calcSem }

func TestRuntimeSemanticBlock(t *testing.T) {
	src := `
%start stmt
stmt -> x ; action=sx
stmt -> y ; action=sy
x -> Assign.l lval.l rval.l ; action=px pred=p1
y -> Assign.l lval.l rval.l ; action=py pred=p2
lval.l -> Name.l
rval.l -> Const.l ; action=imm
`
	tb := buildTables(t, src)
	m := New(tb, &allPredSem{})
	_, err := m.Match(ir.Linearize(ir.MustParse(`(Assign.l (Name.l a) (Const.l 1000))`)))
	if err == nil || !strings.Contains(err.Error(), "semantic block") {
		t.Errorf("want a semantic block error, got %v", err)
	}
}

// TestTraceKindStrings: the matcher emits one event per action in the
// obs vocabulary — "shift" with its terminal, "reduce" with the
// production's index and text, a final "accept" — matching its own
// counters.
func TestTraceKindStrings(t *testing.T) {
	tb := buildTables(t, calcGrammar)
	m := New(tb, &calcSem{})
	events := traced(m)
	matchTree(t, m, `(Assign.l (Name.l a) (Plus.l (Const.b 3) (Const.b 5)))`)
	kinds := map[string]int{}
	for _, e := range *events {
		kinds[e.Kind]++
		switch e.Kind {
		case "shift":
			if e.Term == "" || e.String() != "shift  "+e.Term {
				t.Errorf("shift event %+v renders %q", e, e.String())
			}
		case "reduce":
			p := tb.Grammar.Prods[e.Prod-1]
			if want := fmt.Sprintf("reduce %d: %s", p.Index, p); e.Rule != p.String() || e.String() != want {
				t.Errorf("reduce event %+v renders %q, want %q", e, e.String(), want)
			}
		case "accept":
			if e.String() != "accept" {
				t.Errorf("accept event renders %q", e.String())
			}
		default:
			t.Errorf("unknown trace kind %q", e.Kind)
		}
	}
	st := m.Stats()
	if kinds["shift"] != st.Shifts || kinds["reduce"] != st.Reduces || kinds["accept"] != 1 {
		t.Errorf("traced kinds %v, stats %+v", kinds, st)
	}
}

// TestMaxDepthWithoutObserver checks satellite accounting: the stack-depth
// high-water mark is tracked with no observer attached and counts the
// goto push of the reduce path.
func TestMaxDepthWithoutObserver(t *testing.T) {
	tb := buildTables(t, calcGrammar)
	tree := `(Assign.l (Name.l a) (Plus.l (Const.b 3) (Plus.l (Const.b 5) (Plus.l (Const.b 6) (Const.b 7)))))`

	m := New(tb, &calcSem{})
	matchTree(t, m, tree)
	packed := m.Stats().MaxDepth
	if packed < 5 {
		t.Errorf("MaxDepth = %d, want at least the right-spine depth", packed)
	}

	// A shallow follow-up tree must not lower the high-water mark.
	matchTree(t, m, `(Assign.l (Name.l a) (Const.b 3))`)
	if after := m.Stats().MaxDepth; after != packed {
		t.Errorf("MaxDepth dropped from %d to %d after a shallow tree", packed, after)
	}
}
