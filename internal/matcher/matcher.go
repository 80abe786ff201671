// Package matcher implements the instruction pattern matcher: a
// table-driven shift/reduce parser invoked once for each expression tree to
// be compiled (§3.3 of the paper). Each reduction corresponds to one
// logical instruction, an encapsulating (addressing mode) condensation, or
// parsing glue; reductions are emitted in linear time in a provably correct
// order.
//
// Semantic attributes ride on a parallel value stack. Encapsulating
// reductions condense the attributes of a pattern into a signature
// associated with the left hand side nonterminal (§5.2); all communication
// from the tree transformers to the semantic phase flows through these
// attributes.
//
// The parse loop drives the comb-vector (packed) form of the tables: one
// interned terminal id per token, actions decoded from single int32 codes,
// reduce gotos resolved through ids cached on the productions — no map
// lookups anywhere on the hot path. Tests hold the packed arrays to the
// dense matrices of a fresh build entry by entry
// (tablegen.FuzzPackedEquivalence, codegen's TestPackedEquivalenceVAX).
package matcher

import (
	"fmt"
	"sync"

	"ggcg/internal/cgram"
	"ggcg/internal/ir"
	"ggcg/internal/obs"
	"ggcg/internal/tablegen"
)

// Value is one entry of the semantic stack: a terminal's token (for shifted
// terminals) or the attribute a reduction produced (for nonterminals).
type Value struct {
	Tok *ir.Token // non-nil for terminal entries
	Sem any       // the condensed semantic attribute for nonterminal entries
}

// Semantics supplies the dynamic semantic side of code generation: the
// reduction actions (hand-coded routines, as in §2 of the paper) and the
// semantic qualification predicates used to choose among equal-length
// reductions (§3.2).
type Semantics interface {
	// Reduce is invoked for every reduction. args holds the semantic
	// values of the right hand side, left to right; the returned value
	// becomes the attribute of the left hand side nonterminal.
	Reduce(p *cgram.Prod, args []Value) (any, error)

	// Predicate evaluates the named semantic qualification against a
	// candidate production's right hand side values.
	Predicate(name string, p *cgram.Prod, args []Value) bool
}

// Stats counts parser work, used by the phase-time experiments (§5, §8:
// "our code generator spends most of its time parsing").
type Stats struct {
	Shifts  int
	Reduces int
	Trees   int

	// MaxDepth is the deepest parse stack seen across all trees, counting
	// growth on both the shift and the reduce (goto push) paths. It is
	// tracked unconditionally — an attached observer additionally gets a
	// per-tree depth histogram.
	MaxDepth int
}

// Matcher drives the constructed tables over linearized expression trees.
type Matcher struct {
	tables   *tablegen.Tables
	packed   *tablegen.Packed
	interner *ir.TermInterner
	sem      Semantics

	// Obs, if non-nil, receives table coverage (productions reduced,
	// states visited), a parse-stack-depth histogram and, when it wants
	// them, every parser action as an obs.TraceEvent — the listing of the
	// paper's appendix. Hot-path calls are guarded by nil checks so a
	// disabled observer costs one branch.
	Obs *obs.Observer

	stats Stats

	// Reused parse stacks and linearization buffer; a Matcher is not safe
	// for concurrent use.
	states []int32
	vals   []Value
	toks   []ir.Token
}

// interners caches one TermInterner per (immutable) table set, so creating
// a Matcher per function does not rebuild the op/type arrays every time.
var interners sync.Map // *tablegen.Tables -> *ir.TermInterner

func internerFor(t *tablegen.Tables) *ir.TermInterner {
	if v, ok := interners.Load(t); ok {
		return v.(*ir.TermInterner)
	}
	v, _ := interners.LoadOrStore(t, ir.NewTermInterner(t.Terms))
	return v.(*ir.TermInterner)
}

// New returns a matcher for the given tables and semantics.
func New(t *tablegen.Tables, sem Semantics) *Matcher {
	return &Matcher{tables: t, packed: t.Packed(), interner: internerFor(t), sem: sem}
}

// Reset re-targets the matcher to new tables and semantics and clears its
// observer and counters, keeping the grown stacks and token
// buffer. The code generator pools matchers across functions so the
// per-function parse costs no allocation in steady state.
func (m *Matcher) Reset(t *tablegen.Tables, sem Semantics) {
	if m.tables != t {
		m.tables = t
		m.packed = t.Packed()
		m.interner = internerFor(t)
	}
	m.sem = sem
	m.Obs = nil
	m.stats = Stats{}
}

// Stats returns accumulated parser work counters.
func (m *Matcher) Stats() Stats { return m.stats }

// BlockError reports a syntactic block encountered at match time: input for
// which the pattern matcher performs an error action (§3.2). It names the
// offending terminal and position so the grammar author can add a bridge
// production (§6.2.2).
type BlockError struct {
	State int
	Term  string
	Pos   int
	Tree  string
}

func (e *BlockError) Error() string {
	return fmt.Sprintf("matcher: syntactic block in state %d at token %d (%s) of %s",
		e.State, e.Pos, e.Term, e.Tree)
}

// blockErr builds a BlockError entirely off the hot path: the loop passes
// the live stack and position only when an error action has already been
// taken, so no per-Match closure or tree rendering rides along with
// successful parses.
func (m *Matcher) blockErr(toks []ir.Token, states []int32, pos int, term string) error {
	return &BlockError{
		State: int(states[len(states)-1]),
		Term:  term,
		Pos:   pos,
		Tree:  ir.TermString(toks),
	}
}

// fail stores the (possibly regrown) stacks back for reuse and returns the
// error; it is the single cold exit of the parse loop.
func (m *Matcher) fail(states []int32, vals []Value, err error) (Value, error) {
	m.states, m.vals = states[:0], vals[:0]
	return Value{}, err
}

// MatchTree linearizes one expression tree into the matcher's reused token
// buffer — each token stamped with its interned terminal id — and parses
// it. This is the code generator's per-tree entry point: one pass, no
// per-tree allocation, no map lookups.
func (m *Matcher) MatchTree(n *ir.Node) (Value, error) {
	m.toks = ir.AppendLinearize(m.toks[:0], n, m.interner)
	return m.Match(m.toks)
}

// Match parses one linearized tree, invoking semantic actions on each
// reduction, and returns the attribute of the accepted sentential symbol.
// Unstamped tokens are interned on first sight (stamped in place), so a
// caller-provided token slice pays the vocabulary map at most once.
func (m *Matcher) Match(toks []ir.Token) (Value, error) {
	t, p := m.tables, m.packed
	prods := t.Grammar.Prods
	if cap(m.states) == 0 {
		m.states = make([]int32, 0, 64)
		m.vals = make([]Value, 0, 64)
	}
	states := append(m.states[:0], 0)
	vals := append(m.vals[:0], Value{})
	m.stats.Trees++
	if m.Obs != nil {
		m.Obs.StateVisited(0)
	}
	// Whether anything consumes trace actions is decided once per tree;
	// the loop below branches on this local only.
	trace := m.Obs.WantsTrace()

	pos := 0
	maxDepth := 1
	for {
		var termID int32
		var tok *ir.Token
		if pos < len(toks) {
			tok = &toks[pos]
			if id, ok := tok.TermID(); ok {
				termID = int32(id)
			} else if id, ok := t.TermID(tok.TermName()); ok {
				tok.SetTermID(id)
				termID = int32(id)
			} else {
				return m.fail(states, vals,
					m.blockErr(toks, states, pos, tok.TermName()+" (not in machine description)"))
			}
		} else if pos == len(toks) {
			termID = p.NumTerms
		} else {
			return m.fail(states, vals, fmt.Errorf("matcher: ran past end of input"))
		}

		code := p.LookupCode(states[len(states)-1], termID)
		kind := tablegen.ActionKind(code & 7)
		arg := code >> 3
		switch kind {
		case tablegen.ActShift:
			states = append(states, arg)
			vals = append(vals, Value{Tok: tok})
			if len(states) > maxDepth {
				maxDepth = len(states)
			}
			m.stats.Shifts++
			if m.Obs != nil {
				m.Obs.StateVisited(int(arg))
			}
			if trace {
				m.Obs.Trace(obs.TraceEvent{Kind: "shift", Term: tok.TermName()})
			}
			pos++

		case tablegen.ActReduce, tablegen.ActChoice:
			var prod *cgram.Prod
			if kind == tablegen.ActReduce {
				prod = prods[arg-1]
			} else {
				var err error
				prod, err = m.choose(p.Choices[arg], vals)
				if err != nil {
					return m.fail(states, vals, err)
				}
			}
			n := len(prod.RHS)
			args := vals[len(vals)-n:]
			sem, err := m.sem.Reduce(prod, args)
			if err != nil {
				return m.fail(states, vals, fmt.Errorf("matcher: action %q of production %d: %w",
					prod.Action, prod.Index, err))
			}
			states = states[:len(states)-n]
			vals = vals[:len(vals)-n]
			to := p.GotoState(states[len(states)-1], int32(prod.LHSID))
			if to < 0 {
				return m.fail(states, vals, m.blockErr(toks, states, pos, "goto "+prod.LHS))
			}
			states = append(states, to)
			vals = append(vals, Value{Sem: sem})
			if len(states) > maxDepth {
				maxDepth = len(states)
			}
			m.stats.Reduces++
			if m.Obs != nil {
				m.Obs.ProdReduced(prod.Index)
				m.Obs.StateVisited(int(to))
			}
			if trace {
				m.Obs.Trace(obs.TraceEvent{Kind: "reduce", Prod: prod.Index, Rule: prod.String()})
			}

		case tablegen.ActAccept:
			if maxDepth > m.stats.MaxDepth {
				m.stats.MaxDepth = maxDepth
			}
			if m.Obs != nil {
				m.Obs.Observe("matcher.stack_depth", int64(maxDepth))
			}
			if trace {
				m.Obs.Trace(obs.TraceEvent{Kind: "accept"})
			}
			res := vals[len(vals)-1]
			m.states, m.vals = states[:0], vals[:0]
			return res, nil

		default:
			term := "$end"
			if tok != nil {
				term = tok.TermName()
			}
			return m.fail(states, vals, m.blockErr(toks, states, pos, term))
		}
	}
}

// choose resolves a dynamic reduce/reduce choice: semantically qualified
// candidates are tried in order, and the first whose predicate holds wins;
// an unqualified candidate is the default. If every candidate is qualified
// and none holds, the input is semantically blocked (§3.2).
func (m *Matcher) choose(cands []int32, vals []Value) (*cgram.Prod, error) {
	g := m.tables.Grammar
	for _, pi := range cands {
		p := g.Prods[pi-1]
		if p.Pred == "" {
			return p, nil
		}
		args := vals[len(vals)-len(p.RHS):]
		if m.sem.Predicate(p.Pred, p, args) {
			return p, nil
		}
	}
	return nil, fmt.Errorf("matcher: semantic block: no candidate in %v applies", cands)
}
