// Package tablegen is the table constructor of the code generator
// generator (§3.2 of the paper): an SLR(1)-style parser generator
// specialized for machine description grammars.
//
// Machine description grammars are highly ambiguous, since the target
// machine usually implements an expression in many different ways. The
// constructor disambiguates by favoring a shift over a reduce in a
// shift/reduce conflict, and a reduction by the longest possible rule in a
// reduce/reduce conflict, so the table-driven pattern matcher implements
// the maximal munch method. If two or more longest rules remain, the
// matcher chooses among them dynamically using semantic attributes, so the
// table records a choice list instead of a single reduction.
//
// The constructor also ensures the pattern matcher cannot get into a
// looping configuration in which nonterminal chain rules are cyclically
// reduced, and it reports reachable error actions (syntactic blocks) and
// reductions guarded entirely by semantic qualifications (semantic blocks)
// as diagnostics.
package tablegen

import (
	"fmt"
	"unsafe"

	"ggcg/internal/cgram"
)

// ActionKind discriminates parser actions.
type ActionKind uint8

// Parser actions.
const (
	ActErr    ActionKind = iota // syntactic block
	ActShift                    // Arg is the successor state
	ActReduce                   // Arg is the production index
	ActAccept                   // end of a complete tree
	ActChoice                   // Arg indexes Choices: semantic dynamic choice
)

func (k ActionKind) String() string {
	switch k {
	case ActErr:
		return "error"
	case ActShift:
		return "shift"
	case ActReduce:
		return "reduce"
	case ActAccept:
		return "accept"
	case ActChoice:
		return "choice"
	}
	return fmt.Sprintf("ActionKind(%d)", uint8(k))
}

// Action is one entry of the ACTION table.
type Action struct {
	Kind ActionKind
	Arg  int32
}

// Conflict records a disambiguated parsing conflict, for diagnostics and
// for the grammar-debugging workflow of §6.2 (overfactoring shows up as
// incorrectly resolved conflicts).
type Conflict struct {
	State   int
	Term    string
	Kind    string // "shift/reduce" or "reduce/reduce"
	Kept    string
	Dropped []string
}

func (c Conflict) String() string {
	return fmt.Sprintf("state %d on %s: %s conflict, kept %s over %v",
		c.State, c.Term, c.Kind, c.Kept, c.Dropped)
}

// SemBlock records a (state, terminal) whose reduction candidates all carry
// semantic qualifications, so the input cannot be guaranteed to satisfy any
// of them (§3.2). The grammar author resolves it by adding an unqualified
// alternative or bridge production (§6.3 converts such cases to syntax).
type SemBlock struct {
	State int
	Term  string
	Prods []int
}

// BuildStats summarizes construction work and table size; §8 of the paper
// reports the state count, and §5.1.3 the table growth from reverse
// operators.
type BuildStats struct {
	States        int
	ActionEntries int // non-error ACTION entries
	GotoEntries   int
	ClosureOps    int // item-processing work performed during construction
}

// Tables is the constructed parser: the ACTION/GOTO tables driving the
// instruction pattern matcher, plus the diagnostics gathered during
// construction. Tables a target loads from its shipped form (Load) carry
// only the grammar, the symbol numbering, the choice lists, the packed
// form and the Summary; the dense matrices, diagnostics and Stats are
// filled in by Build alone.
type Tables struct {
	Grammar  *cgram.Grammar
	Terms    []string // terminal vocabulary; the end marker has id len(Terms)
	Nonterms []string

	Action  [][]Action // [state][termID], termID len(Terms) is the end marker
	Goto    [][]int32  // [state][ntID]; -1 means none
	Choices [][]int32  // production index lists for ActChoice entries

	Conflicts []Conflict
	SemBlocks []SemBlock
	Stats     BuildStats

	termID map[string]int
	ntID   map[string]int

	// packed is the comb-vector form, built once by Build (or shipped,
	// for Load) and immutable afterwards; the matcher's hot loop drives
	// it.
	packed  *Packed
	summary Summary
}

// Packed returns the comb-vector form of the tables, lookup-equivalent to
// the dense form for every (state, symbol) pair.
func (t *Tables) Packed() *Packed { return t.packed }

// Summary returns the state and conflict counts and the measured sizes of
// both encodings, whichever way the tables were made.
func (t *Tables) Summary() Summary { return t.summary }

// End returns the terminal id of the end-of-tree marker.
func (t *Tables) End() int { return len(t.Terms) }

// TermID returns the id of a terminal symbol.
func (t *Tables) TermID(term string) (int, bool) {
	id, ok := t.termID[term]
	return id, ok
}

// NontermID returns the id of a nonterminal symbol.
func (t *Tables) NontermID(nt string) (int, bool) {
	id, ok := t.ntID[nt]
	return id, ok
}

// Lookup returns the action for a state on a terminal id.
func (t *Tables) Lookup(state, term int) Action { return t.Action[state][term] }

// GotoState returns the successor of state under a nonterminal id, or -1.
func (t *Tables) GotoState(state, nt int) int { return int(t.Goto[state][nt]) }

// ChoiceProds returns the candidate productions of a choice entry, ordered
// with semantically qualified candidates first.
func (t *Tables) ChoiceProds(a Action) []int32 {
	if a.Kind != ActChoice {
		return nil
	}
	return t.Choices[a.Arg]
}

// Size reports table size measures used by the E4 experiment and the §3.2
// report: the count of useful entries and the measured byte sizes of both
// encodings (not the historical ActionEntries*5+GotoEntries*4 estimate,
// which drifted from what either representation actually stores).
type Size struct {
	States        int
	ActionEntries int // non-error ACTION entries
	GotoEntries   int // non-empty GOTO entries
	Bytes         int // measured bytes of the dense matrices
	PackedBytes   int // measured bytes of the comb-vector arrays
}

// Size returns the table size, measured on the dense matrices, so only
// built or decoded tables have one (loaded tables report Summary). Bytes
// counts the dense representation as resident: the full states x
// (terminals+1) Action matrix at the in-memory entry size, the full
// states x nonterminals int32 GOTO matrix, and the choice lists.
// PackedBytes counts every int32 of the packed arrays.
func (t *Tables) Size() Size {
	s := Size{States: len(t.Action)}
	for _, row := range t.Action {
		for _, a := range row {
			if a.Kind != ActErr {
				s.ActionEntries++
			}
		}
	}
	for _, row := range t.Goto {
		for _, g := range row {
			if g >= 0 {
				s.GotoEntries++
			}
		}
	}
	nTerms := len(t.Terms) + 1 // including the end marker column
	s.Bytes = len(t.Action)*nTerms*int(unsafe.Sizeof(Action{})) +
		len(t.Goto)*len(t.Nonterms)*4
	for _, c := range t.Choices {
		s.Bytes += 4 * len(c)
	}
	if t.packed != nil {
		s.PackedBytes = t.packed.Bytes()
	}
	return s
}

// Options configures table construction.
type Options struct {
	// Naive selects the first-cut construction algorithm: closures computed
	// by scanning the whole production list and states looked up by linear
	// comparison of full item sets. It is the "over two hours of VAX CPU
	// time" configuration of §7; the default is the improved constructor
	// that brought the time to ten minutes (§9).
	Naive bool
}

// Build constructs SLR(1)-style tables for a machine description grammar.
// Disambiguation follows §3.2; a chain-rule loop is a fatal error.
func Build(g *cgram.Grammar, opt Options) (*Tables, error) {
	if err := checkChainLoops(g); err != nil {
		return nil, err
	}
	b, err := newBuilder(g, opt)
	if err != nil {
		return nil, err
	}
	b.buildStates()
	b.fillTables()
	t := b.tables
	t.packed = t.Pack()
	t.setSummary()
	return t, nil
}

// setSummary fills the summary of tables that have their dense form.
func (t *Tables) setSummary() {
	sz := t.Size()
	t.summary = Summary{
		States:      sz.States,
		Conflicts:   len(t.Conflicts),
		Bytes:       sz.Bytes,
		PackedBytes: sz.PackedBytes,
	}
}
