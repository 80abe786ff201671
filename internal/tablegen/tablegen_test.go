package tablegen

import (
	"reflect"
	"strings"
	"testing"

	"ggcg/internal/cgram"
)

// runParse drives the tables over a terminal string the way the matcher
// does, resolving dynamic choices by their default (last) candidate. It
// returns the production indices reduced, in order, and whether the input
// was accepted.
func runParse(t *Tables, terms []string) (reduces []int, accepted bool) {
	stack := []int32{0}
	ids := make([]int, 0, len(terms)+1)
	for _, s := range terms {
		id, ok := t.TermID(s)
		if !ok {
			return reduces, false
		}
		ids = append(ids, id)
	}
	ids = append(ids, t.End())
	for _, id := range ids {
		for {
			act := t.Lookup(int(stack[len(stack)-1]), id)
			switch act.Kind {
			case ActShift:
				stack = append(stack, act.Arg)
			case ActReduce, ActChoice:
				p := act.Arg
				if act.Kind == ActChoice {
					c := t.ChoiceProds(act)
					p = c[len(c)-1]
				}
				prod := t.Grammar.Prods[p-1]
				stack = stack[:len(stack)-len(prod.RHS)]
				lhs, _ := t.NontermID(prod.LHS)
				to := t.GotoState(int(stack[len(stack)-1]), lhs)
				if to < 0 {
					return reduces, false
				}
				stack = append(stack, int32(to))
				reduces = append(reduces, int(p))
				continue
			case ActAccept:
				return reduces, true
			default:
				return reduces, false
			}
			break
		}
	}
	return reduces, false
}

// toyArity is an arity oracle for the abstract test grammars: Op2 is a
// binary operator, Op1 unary, everything else a leaf.
func toyArity(term string) (int, bool) {
	switch term {
	case "Op2":
		return 2, true
	case "Op1":
		return 1, true
	}
	return 0, true
}

const addrGrammar = `
%start stmt
stmt   -> Assign.l lval.l rval.l ; action=mov
lval.l -> Name.l
rval.l -> reg.l
rval.l -> Const.l
rval.l -> Indir.l addr
reg.l  -> Plus.l rval.l rval.l ; action=add
reg.l  -> Dreg.l
addr   -> Plus.l Const.l reg.l ; action=disp
addr   -> reg.l
`

func build(t *testing.T, src string, opt Options) *Tables {
	t.Helper()
	g, err := cgram.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func prodIndex(t *testing.T, g *cgram.Grammar, action string) int {
	t.Helper()
	for _, p := range g.Prods {
		if p.Action == action {
			return p.Index
		}
	}
	t.Fatalf("no production with action %q", action)
	return 0
}

func TestSimpleParseAccepts(t *testing.T) {
	tb := build(t, addrGrammar, Options{})
	reduces, ok := runParse(tb, strings.Fields("Assign.l Name.l Const.l"))
	if !ok {
		t.Fatal("simple assignment not accepted")
	}
	if len(reduces) == 0 || reduces[len(reduces)-1] != prodIndex(t, tb.Grammar, "mov") {
		t.Errorf("last reduction = %v, want the mov production", reduces)
	}
}

func TestMaximalMunchPrefersAddressingMode(t *testing.T) {
	tb := build(t, addrGrammar, Options{})
	// Assign a, *(4 + fp): the Plus must be implemented by the addressing
	// hardware (disp), not by an add instruction, because shift is
	// preferred over reduce (§3.2).
	reduces, ok := runParse(tb, strings.Fields("Assign.l Name.l Indir.l Plus.l Const.l Dreg.l"))
	if !ok {
		t.Fatal("input not accepted")
	}
	disp, add := prodIndex(t, tb.Grammar, "disp"), prodIndex(t, tb.Grammar, "add")
	var sawDisp, sawAdd bool
	for _, p := range reduces {
		sawDisp = sawDisp || p == disp
		sawAdd = sawAdd || p == add
	}
	if !sawDisp || sawAdd {
		t.Errorf("reduces = %v: want disp (%d) chosen, add (%d) avoided", reduces, disp, add)
	}
	// The shift preference must have been recorded as a conflict.
	var found bool
	for _, c := range tb.Conflicts {
		if c.Kind == "shift/reduce" {
			found = true
		}
	}
	if !found {
		t.Error("no shift/reduce conflict recorded for the ambiguous grammar")
	}
}

func TestGeneralAddStillReachable(t *testing.T) {
	tb := build(t, addrGrammar, Options{})
	// Assign a, fp+fp: no addressing mode matches, the add instruction must.
	reduces, ok := runParse(tb, strings.Fields("Assign.l Name.l Plus.l Dreg.l Dreg.l"))
	if !ok {
		t.Fatal("input not accepted")
	}
	add := prodIndex(t, tb.Grammar, "add")
	var sawAdd bool
	for _, p := range reduces {
		sawAdd = sawAdd || p == add
	}
	if !sawAdd {
		t.Errorf("reduces = %v: want add (%d)", reduces, add)
	}
}

const longestGrammar = `
%start s
s -> x ; action=viaX
s -> A y ; action=viaY
x -> A B C ; action=big
y -> B C ; action=small
`

func TestLongestRuleWinsReduceReduce(t *testing.T) {
	tb := build(t, longestGrammar, Options{})
	reduces, ok := runParse(tb, strings.Fields("A B C"))
	if !ok {
		t.Fatal("input not accepted")
	}
	big := prodIndex(t, tb.Grammar, "big")
	if reduces[0] != big {
		t.Errorf("first reduction = %d, want the longest rule %d", reduces[0], big)
	}
	var rr bool
	for _, c := range tb.Conflicts {
		if c.Kind == "reduce/reduce" {
			rr = true
		}
	}
	if !rr {
		t.Error("reduce/reduce conflict not recorded")
	}
}

const tieGrammar = `
%start s
s -> x ; action=sx
s -> y ; action=sy
x -> A B ; action=px pred=wantX
y -> A B ; action=py
`

func TestEqualLengthTieBecomesDynamicChoice(t *testing.T) {
	tb := build(t, tieGrammar, Options{})
	px, py := prodIndex(t, tb.Grammar, "px"), prodIndex(t, tb.Grammar, "py")
	var choice []int32
	for _, row := range tb.Action {
		for _, a := range row {
			if a.Kind == ActChoice {
				choice = tb.ChoiceProds(a)
			}
		}
	}
	if choice == nil {
		t.Fatal("no dynamic choice entry constructed")
	}
	if int(choice[0]) != px || int(choice[len(choice)-1]) != py {
		t.Errorf("choice = %v: want qualified %d first, unqualified %d as default", choice, px, py)
	}
	if len(tb.SemBlocks) != 0 {
		t.Errorf("unexpected semantic blocks: %v", tb.SemBlocks)
	}
	// The default candidate drives the parse to acceptance.
	if _, ok := runParse(tb, strings.Fields("A B")); !ok {
		t.Error("tie grammar input not accepted")
	}
}

func TestSemanticBlockDetected(t *testing.T) {
	src := `
%start s
s -> x ; action=sx
s -> y ; action=sy
x -> A B ; action=px pred=p1
y -> A B ; action=py pred=p2
`
	tb := build(t, src, Options{})
	if len(tb.SemBlocks) == 0 {
		t.Fatal("all-qualified tie must be reported as a semantic block")
	}
	sb := tb.SemBlocks[0]
	if len(sb.Prods) != 2 {
		t.Errorf("semantic block candidates = %v", sb.Prods)
	}
}

func TestChainLoopRejected(t *testing.T) {
	src := `
%start s
s -> A a
a -> b ; action=ab
b -> a ; action=ba
a -> B
b -> C
`
	g := cgram.MustParse(src)
	if _, err := Build(g, Options{}); err == nil {
		t.Fatal("chain-rule loop accepted")
	} else if !strings.Contains(err.Error(), "chain rule loop") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestChainDAGAccepted(t *testing.T) {
	// Widening-style chains form a DAG and must be accepted.
	src := `
%start s
s -> A c
c -> b ; action=widen_bc
b -> a ; action=widen_ab
a -> B
b -> C
c -> D
`
	g := cgram.MustParse(src)
	if _, err := Build(g, Options{}); err != nil {
		t.Fatalf("DAG chains rejected: %v", err)
	}
}

func TestSyntacticBlockDetectedAndBridged(t *testing.T) {
	// In the blocked grammar a long production commits to a shared left
	// context that cannot handle every continuation: Op2 e B blocks,
	// because only Op2 e A is described (§6.2.2).
	blocked := `
%start s
s -> e ; action=top
e -> A
e -> B
e -> Op2 e A ; action=ea
`
	tb := build(t, blocked, Options{})
	blocks, complete := CheckBlocks(tb, toyArity, 5, 100000)
	if !complete {
		t.Fatal("exploration should be exhaustive for this grammar")
	}
	if len(blocks) == 0 {
		t.Fatal("no syntactic block found for Op2 x B")
	}
	// A bridge production handles the more general continuation of the
	// shared prefix and repairs the block.
	bridged := blocked + `
e -> Op2 e e ; action=bridge
`
	tb2 := build(t, bridged, Options{})
	blocks2, complete2 := CheckBlocks(tb2, toyArity, 5, 100000)
	if !complete2 {
		t.Fatal("bridged exploration should be exhaustive")
	}
	if len(blocks2) != 0 {
		t.Errorf("bridged grammar still blocks: %v", blocks2)
	}
}

func TestCheckBlocksHonorsConfigCap(t *testing.T) {
	tb := build(t, addrGrammar, Options{})
	_, complete := CheckBlocks(tb, func(term string) (int, bool) {
		switch term {
		case "Assign.l", "Plus.l":
			return 2, true
		case "Indir.l":
			return 1, true
		}
		return 0, true
	}, 50, 3)
	if complete {
		t.Error("tiny config budget should not be exhaustive")
	}
}

func TestNaiveAndImprovedAgree(t *testing.T) {
	for _, src := range []string{addrGrammar, longestGrammar, tieGrammar} {
		fast := build(t, src, Options{})
		slow := build(t, src, Options{Naive: true})
		if !reflect.DeepEqual(fast.Action, slow.Action) {
			t.Errorf("ACTION tables differ between naive and improved for %q...", src[:20])
		}
		if !reflect.DeepEqual(fast.Goto, slow.Goto) {
			t.Errorf("GOTO tables differ between naive and improved")
		}
		if slow.Stats.ClosureOps <= fast.Stats.ClosureOps {
			t.Errorf("naive construction did %d ops, improved %d; naive should work harder",
				slow.Stats.ClosureOps, fast.Stats.ClosureOps)
		}
	}
}

func TestStatsAndSize(t *testing.T) {
	tb := build(t, addrGrammar, Options{})
	if tb.Stats.States < 5 {
		t.Errorf("states = %d, implausibly small", tb.Stats.States)
	}
	sz := tb.Size()
	if sz.ActionEntries == 0 || sz.GotoEntries == 0 || sz.Bytes == 0 {
		t.Errorf("size = %+v", sz)
	}
	if sz.States != tb.Stats.States {
		t.Errorf("size states %d != stats states %d", sz.States, tb.Stats.States)
	}
}

func TestSymbolLookups(t *testing.T) {
	tb := build(t, addrGrammar, Options{})
	if _, ok := tb.TermID("Plus.l"); !ok {
		t.Error("Plus.l not found")
	}
	if _, ok := tb.TermID("nope"); ok {
		t.Error("bogus terminal found")
	}
	if _, ok := tb.NontermID("rval.l"); !ok {
		t.Error("rval.l not found")
	}
	if _, ok := tb.NontermID("stmt'"); !ok {
		t.Error("augmented start nonterminal not registered")
	}
	if tb.End() != len(tb.Terms) {
		t.Error("End() is not the last terminal id")
	}
}

func TestActionKindString(t *testing.T) {
	for k, want := range map[ActionKind]string{
		ActErr: "error", ActShift: "shift", ActReduce: "reduce", ActAccept: "accept", ActChoice: "choice",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestConflictString(t *testing.T) {
	c := Conflict{State: 3, Term: "Plus.l", Kind: "shift/reduce", Kept: "shift", Dropped: []string{"p"}}
	s := c.String()
	if !strings.Contains(s, "state 3") || !strings.Contains(s, "Plus.l") {
		t.Errorf("Conflict.String() = %q", s)
	}
}
