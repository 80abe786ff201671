package tablegen

import (
	"testing"

	"ggcg/internal/cgram"
)

func TestPackActionRoundTrip(t *testing.T) {
	for _, a := range []Action{
		{},
		{Kind: ActShift, Arg: 1},
		{Kind: ActReduce, Arg: 1 << 20},
		{Kind: ActAccept},
		{Kind: ActChoice, Arg: 7},
		{Kind: ActErr, Arg: 0},
	} {
		if got := UnpackAction(PackAction(a)); got != a {
			t.Errorf("UnpackAction(PackAction(%+v)) = %+v", a, got)
		}
	}
	if PackAction(Action{}) != 0 {
		t.Error("the zero code must be the error action")
	}
}

// assertPackedEquivalent exhaustively compares the packed tables against
// the dense tables over every (state, symbol) pair — the equivalence the
// packed matcher loop rests on.
func assertPackedEquivalent(t *testing.T, tb *Tables) {
	t.Helper()
	if tb.Packed() == nil {
		t.Fatal("Build left no packed tables")
	}
	assertPackedMatches(t, tb, tb.Packed())
}

// assertPackedMatches holds packed arrays p, built or shipped, to the
// dense tables of build tb over every (state, symbol) pair.
func assertPackedMatches(t *testing.T, tb *Tables, p *Packed) {
	t.Helper()
	nStates := len(tb.Action)
	nTermsEnd := len(tb.Terms) + 1 // terminal ids plus the end marker
	for s := 0; s < nStates; s++ {
		for term := 0; term < nTermsEnd; term++ {
			dense := tb.Lookup(s, term)
			packed := p.Lookup(s, term)
			if dense != packed {
				t.Fatalf("action(%d,%d): dense %v/%d packed %v/%d",
					s, term, dense.Kind, dense.Arg, packed.Kind, packed.Arg)
			}
		}
		for nt := 0; nt < len(tb.Nonterms); nt++ {
			dense := tb.GotoState(s, nt)
			packed := int(p.GotoState(int32(s), int32(nt)))
			if dense != packed {
				t.Fatalf("goto(%d,%d): dense %d packed %d", s, nt, dense, packed)
			}
		}
	}
	for i, pr := range tb.Grammar.Prods {
		if int(p.ProdLHS[i+1]) != int(pr.LHSID) {
			t.Fatalf("ProdLHS[%d] = %d, want %d (%s)", i+1, p.ProdLHS[i+1], pr.LHSID, pr.LHS)
		}
	}
}

func TestPackedEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
	}{
		{"addr", addrGrammar},
		{"longest", longestGrammar},
		{"tie", tieGrammar},
	} {
		t.Run(tc.name, func(t *testing.T) {
			assertPackedEquivalent(t, build(t, tc.src, Options{}))
		})
	}
}

func TestPackedSize(t *testing.T) {
	tb := build(t, addrGrammar, Options{})
	sz := tb.Size()
	if sz.PackedBytes <= 0 {
		t.Fatalf("PackedBytes = %d", sz.PackedBytes)
	}
	if sz.PackedBytes != tb.Packed().Bytes() {
		t.Errorf("Size().PackedBytes = %d, Packed().Bytes() = %d", sz.PackedBytes, tb.Packed().Bytes())
	}
	if sz.Bytes <= 0 {
		t.Fatalf("Bytes = %d", sz.Bytes)
	}
}

// fuzzGrammar derives a small machine-description grammar from fuzz bytes:
// each byte pair picks a left hand side from a tiny nonterminal pool and a
// right hand side template over the toy terminal vocabulary. Many derived
// grammars are rejected by Build (chain loops, unreachable symbols); the
// fuzz target skips those and differentially checks the rest.
func fuzzGrammar(data []byte) *cgram.Grammar {
	if len(data) < 2 {
		return nil
	}
	nts := []string{"s", "a", "b"}
	var prods []*cgram.Prod
	// The start symbol always derives something so Build has a chance.
	prods = append(prods, &cgram.Prod{LHS: "s", RHS: []string{"Op2", "a", "b"}})
	for i := 0; i+1 < len(data) && len(prods) < 24; i += 2 {
		lhs := nts[int(data[i])%len(nts)]
		var rhs []string
		switch int(data[i+1]) % 7 {
		case 0:
			rhs = []string{"Op2", nts[int(data[i+1]/7)%len(nts)], "X"}
		case 1:
			rhs = []string{"Op1", nts[int(data[i+1]/7)%len(nts)]}
		case 2:
			rhs = []string{"X"}
		case 3:
			rhs = []string{"Y"}
		case 4:
			rhs = []string{"Op2", "Y", nts[int(data[i+1]/7)%len(nts)]}
		case 5:
			rhs = []string{nts[int(data[i+1]/7)%len(nts)]} // chain rule
		case 6:
			rhs = []string{"Op1", "Z"}
		}
		prods = append(prods, &cgram.Prod{LHS: lhs, RHS: rhs})
	}
	g, err := cgram.New("s", prods)
	if err != nil {
		return nil
	}
	return g
}

// FuzzPackedEquivalence builds tables for random small grammars and holds
// the packed form to exact lookup equivalence with the dense form.
func FuzzPackedEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 2, 0, 5, 1, 3})
	f.Add([]byte{2, 5, 1, 5, 0, 1, 2, 4, 1, 6, 0, 2})
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGrammar(data)
		if g == nil {
			t.Skip()
		}
		tb, err := Build(g, Options{})
		if err != nil {
			t.Skip() // rejected grammar: chain loop, conflicts cap, ...
		}
		assertPackedEquivalent(t, tb)

		// The packed form must also survive shipping.
		s, err := Ship(tb)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(g, s)
		if err != nil {
			t.Fatal(err)
		}
		assertPackedMatches(t, tb, loaded.Packed())
	})
}
