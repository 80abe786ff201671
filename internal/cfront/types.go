package cfront

import (
	"fmt"

	"ggcg/internal/ir"
)

// ctype is a front-end type: a base machine type with a pointer depth.
// Arrays are carried on the symbol, decaying to pointers in expressions.
type ctype struct {
	base ir.Type
	ptr  int
}

func (t ctype) isPtr() bool   { return t.ptr > 0 }
func (t ctype) isFloat() bool { return t.ptr == 0 && t.base.IsFloat() }

// irType is the machine type of a value of this type; pointers are
// unsigned longs.
func (t ctype) irType() ir.Type {
	if t.ptr > 0 {
		return ir.ULong
	}
	return t.base
}

// elem is the type a pointer of this type points at.
func (t ctype) elem() ctype { return ctype{base: t.base, ptr: t.ptr - 1} }

// size is the size in bytes of a value of this type.
func (t ctype) size() int {
	if t.ptr > 0 {
		return 4
	}
	return t.base.Size()
}

func (t ctype) String() string {
	s := t.base.String()
	for i := 0; i < t.ptr; i++ {
		s += "*"
	}
	return s
}

// arith computes the usual arithmetic conversion result of two types:
// floating beats integer, double beats float, and integer arithmetic is
// performed at long width, unsigned if either operand is unsigned.
func arith(a, b ctype) ctype {
	if a.isPtr() {
		return a
	}
	if b.isPtr() {
		return b
	}
	if a.base == ir.Double || b.base == ir.Double {
		return ctype{base: ir.Double}
	}
	if a.base == ir.Float || b.base == ir.Float {
		return ctype{base: ir.Float}
	}
	if a.base.IsUnsigned() || b.base.IsUnsigned() {
		return ctype{base: ir.ULong}
	}
	return ctype{base: ir.Long}
}

type symKind uint8

const (
	symGlobal symKind = iota
	symLocal
	symParam
	symRegVar
	symFunc
)

// symbol is a declared name.
type symbol struct {
	name    string
	kind    symKind
	t       ctype
	offset  int // frame offset (locals), ap offset (params)
	reg     int // register number for register variables
	array   int // element count; 0 for scalars
	result  ctype
	params  []ctype // parameter types, for calls
	defined bool    // function has a body
}

// isArray reports whether the symbol is an array (which decays to a
// pointer in expressions).
func (s *symbol) isArray() bool { return s.array > 0 }

// perr is the parse-error type carried by panics inside the parser and
// converted to an error at the Compile boundary, following the
// panic-across-a-package-internal-boundary idiom.
type perr struct{ err error }

// LimitError reports input that exceeds one of the front end's fixed
// budgets, such as the nesting budget: Line is where the parser stopped,
// What names the budget and Limit is its value.
type LimitError struct {
	Line  int
	What  string
	Limit int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("cfront: line %d: %s exceeds the limit of %d", e.Line, e.What, e.Limit)
}

func (p *parser) errf(format string, args ...any) {
	panic(perr{fmt.Errorf("cfront: line %d: "+format, append([]any{p.peek().line}, args...)...)})
}
