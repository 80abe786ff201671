package target

import (
	"fmt"
	"strconv"
	"strings"

	"ggcg/internal/cgram"
	"ggcg/internal/ir"
	"ggcg/internal/matcher"
)

// Routine is a semantic routine of a backend whose per-function generator
// is G: what phase 3 runs when the matcher reduces a production naming it
// (§5.2, §5.3). t is the machine type the action's suffix names (Void
// where it names none) and args the right-hand side's values; the result
// becomes the left-hand side's attribute.
type Routine[G any] func(g G, t ir.Type, args []matcher.Value) (any, error)

// bound is one production's routine and machine type, resolved at load.
// A glue production (no action) has no routine: it condenses its single
// right-hand-side attribute.
type bound[G any] struct {
	run Routine[G]
	t   ir.Type
}

// Routines is a backend's table of semantic routines, keyed by action name
// (a production's action up to its dot), and the binding of every
// production of its description to an entry. The backend hands Bind to
// NewDesc, which runs it once, when the description loads; Reduce then
// only indexes.
type Routines[G any] struct {
	table map[string]Routine[G]
	prods []bound[G]
}

// NewRoutines returns the routine table table, bound to no description yet.
func NewRoutines[G any](table map[string]Routine[G]) *Routines[G] {
	return &Routines[G]{table: table}
}

// Bind resolves every production of g to its routine and to the machine
// type of its action's suffix. An action no routine implements, an
// unknown suffix, glue with other than one right-hand-side symbol and a
// routine no production names are errors.
func (r *Routines[G]) Bind(g *cgram.Grammar) error {
	prods := make([]bound[G], len(g.Prods)+1) // index 0: the augmented rule
	named := make(map[string]bool, len(r.table))
	for _, p := range g.Prods {
		if p.Action == "" {
			if len(p.RHS) != 1 {
				return fmt.Errorf("production %d (%s) has no action and %d right-hand-side symbols", p.Index, p, len(p.RHS))
			}
			continue
		}
		name, sfx, _ := strings.Cut(p.Action, ".")
		run, ok := r.table[name]
		if !ok {
			return fmt.Errorf("no semantic routine %q (production %d: %s)", name, p.Index, p)
		}
		t := ir.Void
		if sfx != "" {
			if t, ok = ir.TypeBySuffix(sfx); !ok {
				return fmt.Errorf("unknown type suffix %q (production %d: %s)", sfx, p.Index, p)
			}
		}
		prods[p.Index] = bound[G]{run, t}
		named[name] = true
	}
	for name := range r.table {
		if !named[name] {
			return fmt.Errorf("semantic routine %q is named by no production", name)
		}
	}
	r.prods = prods
	return nil
}

// Reduce runs p's bound routine for generator gen (matcher.Semantics's
// Reduce, which each backend's generator fronts).
func (r *Routines[G]) Reduce(gen G, p *cgram.Prod, args []matcher.Value) (any, error) {
	if p.Index >= len(r.prods) {
		return nil, fmt.Errorf("production %d (%s) reduced before its description was bound", p.Index, p)
	}
	b := &r.prods[p.Index]
	if b.run == nil {
		return args[0].Sem, nil
	}
	return b.run(gen, b.t, args)
}

// GenBase is the state and the Gen surface every backend's per-function
// generator shares over its operand type O: the emitter, the register
// manager and the function, the label numbering, and the methods that
// only front the register manager. A backend's generator embeds it and
// adds Reduce (through its Routines) and Stats.
type GenBase[O RegOperand] struct {
	E  *Emitter
	RM *RegMan[O]
	F  *ir.Func

	// LabelBase offsets the function's label numbers so labels are unique
	// across the output file, as PCC numbered them.
	LabelBase int
}

// Predicate implements matcher.Semantics. No description has semantically
// qualified productions (§6.3 converted the candidates to syntax), so it
// is never consulted.
func (g *GenBase[O]) Predicate(string, *cgram.Prod, []matcher.Value) bool { return false }

// Phase1Busy marks r as owned by the tree-transformation phase.
func (g *GenBase[O]) Phase1Busy(r int, busy bool) { g.RM.Phase1Busy(r, busy) }

// CheckStatementEnd verifies the register stack discipline at a
// statement boundary.
func (g *GenBase[O]) CheckStatementEnd() error { return g.RM.CheckStatementEnd() }

// Label returns the assembler name of the label a Label terminal numbers.
func (g *GenBase[O]) Label(v matcher.Value) string {
	return "L" + strconv.Itoa(g.LabelBase+int(Node(v).Val))
}

// Node returns a shifted terminal's tree node.
func Node(v matcher.Value) *ir.Node { return v.Tok.N }

// Attr returns a nonterminal's attribute as a T, or an error naming what
// it holds instead.
func Attr[T any](v matcher.Value) (T, error) {
	a, ok := v.Sem.(T)
	if !ok {
		return a, fmt.Errorf("expected %T attribute, have %T", a, v.Sem)
	}
	return a, nil
}

// Attrs returns the attributes at positions i and j of args as Ts.
func Attrs[T any](args []matcher.Value, i, j int) (a, b T, err error) {
	if a, err = Attr[T](args[i]); err == nil {
		b, err = Attr[T](args[j])
	}
	return a, b, err
}

// Const returns the constant a con nonterminal's attribute holds.
func Const(v matcher.Value) (int64, error) { return Attr[int64](v) }

// TruncImm truncates an integer immediate to the width of type t, as an
// assignment of that type stores it.
func TruncImm(v int64, t ir.Type) int64 {
	switch t.Size() {
	case 1:
		return int64(int8(v))
	case 2:
		return int64(int16(v))
	}
	return v
}
