// Package cfront is a front end for a small dialect of C that produces the
// intermediate representation the code generators consume. It stands in for
// the first pass of the Portable C Compiler (§2 of the paper): it performs
// parsing, type checking and lowering to typed expression trees, but —
// following the PCC convention the paper depends on — it rarely generates
// conversion operators, leaving widening conversions for the machine
// description grammar to insert syntactically (§6.4).
//
// Supported language: char/short/int/long with unsigned variants, float and
// double, pointers, one-dimensional arrays, register variables, functions,
// the full C expression grammar (including compound assignment, ++/--, ?:,
// short-circuit operators and casts), and if/while/do/for/break/continue/
// return statements. Structures and bit fields — the paper's "rough edges"
// (§6.5) — are out of scope.
//
// The front end is table-driven where the paper's move applies: the lexer
// interns each punctuator and keyword to a one-byte tokID, so the parser
// compares bytes, and one precedence-climbing loop reads every binary
// operator's precedence, IR operator and builder from binOps. One nesting
// budget covers every recursive path of the parser, so input nested past
// it is a *LimitError, never a stack overflow.
package cfront

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

type tokKind uint8

const (
	tEOF tokKind = iota
	tIdent
	tInt
	tFloat
	tPunct // operators and punctuation, in text
)

// tokID is the interned identity of a punctuator or keyword. The lexer
// stamps it on the token, so the parser compares one byte where it would
// otherwise compare text. A one-character punctuator is its own byte ('('
// is tokID('(')); longer punctuators and the keywords are numbered from
// 128. Keywords stay tIdent tokens (a declared variable may still be named
// like one); all other tokens carry 0.
type tokID uint8

// singlePunct lists the one-character punctuators.
const singlePunct = "+-*/%&|^~!<>=(){}[];,?:"

const (
	// Multi-character punctuators, longest first: within a shared first
	// byte the lexer tries them in this order and the one-character
	// punctuator last, which is maximal munch ("<<=", "<<", "<").
	pShlAssign tokID = 128 + iota
	pShrAssign
	pInc
	pDec
	pShl
	pShr
	pLe
	pGe
	pEq
	pNe
	pAndAnd
	pOrOr
	pAddAssign
	pSubAssign
	pMulAssign
	pDivAssign
	pModAssign
	pAndAssign
	pOrAssign
	pXorAssign

	// Keywords.
	kBreak
	kCase
	kChar
	kContinue
	kDefault
	kDo
	kDouble
	kElse
	kFloat
	kFor
	kIf
	kInt
	kLong
	kRegister
	kReturn
	kShort
	kSizeof
	kSwitch
	kUnsigned
	kVoid
	kWhile
)

// idText is the source spelling of every punctuator and keyword; init
// adds the one-character punctuators.
var idText = [256]string{
	pShlAssign: "<<=", pShrAssign: ">>=", pInc: "++", pDec: "--", pShl: "<<",
	pShr: ">>", pLe: "<=", pGe: ">=", pEq: "==", pNe: "!=", pAndAnd: "&&",
	pOrOr: "||", pAddAssign: "+=", pSubAssign: "-=", pMulAssign: "*=",
	pDivAssign: "/=", pModAssign: "%=", pAndAssign: "&=", pOrAssign: "|=",
	pXorAssign: "^=",

	kBreak: "break", kCase: "case", kChar: "char", kContinue: "continue",
	kDefault: "default", kDo: "do", kDouble: "double", kElse: "else",
	kFloat: "float", kFor: "for", kIf: "if", kInt: "int", kLong: "long",
	kRegister: "register", kReturn: "return", kShort: "short",
	kSizeof: "sizeof", kSwitch: "switch", kUnsigned: "unsigned",
	kVoid: "void", kWhile: "while",
}

// token is one lexeme, packed into 32 bytes: the parser's hot path
// copies and compares tokens, and hostile sources lex to millions.
type token struct {
	kind tokKind
	id   tokID
	line int32
	text string
	ival int64 // tInt: the value; tFloat: the float64 bits (see fval)
}

// fval is the value of a tFloat token.
func (t token) fval() float64 { return math.Float64frombits(uint64(t.ival)) }

func (t token) String() string {
	switch t.kind {
	case tEOF:
		return "end of file"
	case tInt:
		return strconv.FormatInt(t.ival, 10)
	case tFloat:
		return string(strconv.AppendFloat(nil, t.fval(), 'g', -1, 64))
	}
	return t.text
}

// byFirst buckets the ids by first byte, so the lexer probes only the
// handful sharing the current byte: punctuators in maximal-munch order,
// keywords under their initial letter.
var byFirst [256][]tokID

func init() {
	for id := pShlAssign; id <= kWhile; id++ {
		c := idText[id][0]
		byFirst[c] = append(byFirst[c], id)
	}
	for i := 0; i < len(singlePunct); i++ {
		c := singlePunct[i]
		idText[c] = singlePunct[i : i+1]
		byFirst[c] = append(byFirst[c], tokID(c))
	}
}

type lexer struct {
	src  string
	pos  int
	line int32
	toks []token
}

// lexInto tokenizes the whole source up front, appending into toks —
// typically a pooled slice resliced to length zero — so steady-state
// compiles reuse one token backing array.
func lexInto(src string, toks []token) ([]token, error) {
	l := lexer{src: src, line: 1, toks: toks}
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tEOF, line: l.line})
			return l.toks, nil
		}
		if len(l.toks) == cap(l.toks) {
			// Double rather than let append grow by a quarter: a
			// multi-megabyte source then leaves one slice's worth of
			// garbage behind instead of four.
			l.toks = slices.Grow(l.toks, len(l.toks))
		}
		if err := l.next(); err != nil {
			return nil, err
		}
	}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
				return
			}
			l.line += int32(strings.Count(l.src[l.pos:l.pos+2+end+2], "\n"))
			l.pos += 2 + end + 2
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			nl := strings.IndexByte(l.src[l.pos:], '\n')
			if nl < 0 {
				l.pos = len(l.src)
				return
			}
			l.pos += nl
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentChar(c byte) bool { return isIdentStart(c) || c >= '0' && c <= '9' }

func (l *lexer) next() error {
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
			l.pos++
		}
		t := token{kind: tIdent, text: l.src[start:l.pos], line: l.line}
		for _, id := range byFirst[c] { // the keywords starting with c
			if idText[id] == t.text {
				t.id = id
			}
		}
		l.toks = append(l.toks, t)
		return nil
	case c >= '0' && c <= '9' || c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
		return l.number()
	case c == '\'':
		return l.charLit()
	}
	rest := l.src[l.pos:]
	for _, id := range byFirst[c] {
		if p := idText[id]; strings.HasPrefix(rest, p) {
			l.toks = append(l.toks, token{kind: tPunct, id: id, text: p, line: l.line})
			l.pos += len(p)
			return nil
		}
	}
	return fmt.Errorf("cfront: line %d: unexpected character %q", l.line, c)
}

func (l *lexer) number() error {
	start := l.pos
	isFloat := false
	if strings.HasPrefix(l.src[l.pos:], "0x") || strings.HasPrefix(l.src[l.pos:], "0X") {
		l.pos += 2
		for l.pos < len(l.src) && isHexDigit(l.src[l.pos]) {
			l.pos++
		}
	} else {
		for l.pos < len(l.src) {
			c := l.src[l.pos]
			if c >= '0' && c <= '9' {
				l.pos++
				continue
			}
			if c == '.' || c == 'e' || c == 'E' {
				isFloat = true
				l.pos++
				if c != '.' && l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
					l.pos++
				}
				continue
			}
			break
		}
	}
	text := l.src[start:l.pos]
	// Suffixes: u/U (unsigned), f/F (float), l/L (ignored).
	unsigned, float32Suffix := false, false
	for ; l.pos < len(l.src) && strings.IndexByte("uUfFlL", l.src[l.pos]) >= 0; l.pos++ {
		c := l.src[l.pos] | 0x20 // lower case
		unsigned = unsigned || c == 'u'
		float32Suffix = float32Suffix || c == 'f'
	}
	if isFloat || float32Suffix && strings.ContainsAny(text, ".eE") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return fmt.Errorf("cfront: line %d: bad number %q", l.line, text)
		}
		t := token{kind: tFloat, ival: int64(math.Float64bits(f)), line: l.line}
		if float32Suffix {
			t.text = "f"
		}
		l.toks = append(l.toks, t)
		return nil
	}
	v, err := strconv.ParseInt(text, 0, 64)
	if err != nil {
		uv, uerr := strconv.ParseUint(text, 0, 64)
		if uerr != nil {
			return fmt.Errorf("cfront: line %d: bad number %q", l.line, text)
		}
		v = int64(uv)
	}
	t := token{kind: tInt, ival: v, line: l.line}
	if unsigned {
		t.text = "u"
	}
	l.toks = append(l.toks, t)
	return nil
}

func isHexDigit(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// escapeChars are the escapes a character literal may use, standing for
// the bytes of escapeValues.
const escapeChars, escapeValues = "nt0\\'", "\n\t\x00\\'"

func (l *lexer) charLit() error {
	l.pos++ // opening quote
	if l.pos >= len(l.src) {
		return fmt.Errorf("cfront: line %d: unterminated character literal", l.line)
	}
	var v int64
	c := l.src[l.pos]
	if c == '\\' {
		l.pos++
		if l.pos >= len(l.src) {
			return fmt.Errorf("cfront: line %d: unterminated escape", l.line)
		}
		i := strings.IndexByte(escapeChars, l.src[l.pos])
		if i < 0 {
			return fmt.Errorf("cfront: line %d: unknown escape \\%c", l.line, l.src[l.pos])
		}
		v = int64(escapeValues[i])
		l.pos++
	} else {
		v = int64(c)
		l.pos++
	}
	if l.pos >= len(l.src) || l.src[l.pos] != '\'' {
		return fmt.Errorf("cfront: line %d: unterminated character literal", l.line)
	}
	l.pos++
	l.toks = append(l.toks, token{kind: tInt, ival: v, line: l.line})
	return nil
}
