// Package peep is a peephole optimizer over the generated assembly,
// implementing the alternative organization §6.1 of the paper discusses
// (after [Davidson81] and [Giegerich82]): instead of the code generator
// recognizing condition codes and autoincrement itself, "the peephole
// optimizer would introduce autoinc and condition code improvement where
// possible", by a post analysis of basic blocks.
//
// The optimizer works on the textual assembly the code generators emit,
// within basic blocks (label definitions and control transfers are
// boundaries), applying a small set of rules to a fixed point:
//
//   - redundant move elimination (mov x,x; store/reload pairs)
//   - condition-code awareness: a tst of a location the previous
//     instruction just wrote is removed
//   - jump to the next instruction removed; jump chains collapsed;
//     a conditional branch over an unconditional jump is inverted
//   - autoincrement/autodecrement introduction: an operation through (rN)
//     followed by stepping rN by the operand size becomes (rN)+, and a
//     pre-step becomes -(rN)
//   - range idioms: adding or subtracting the constant 1 becomes the
//     increment/decrement form, moving the constant 0 becomes a clear,
//     and an increment-compare-branch loop bottom becomes aoblss/aobleq
//   - unreferenced labels are dropped
package peep

import (
	"fmt"
	"strconv"
	"strings"
)

// Stats counts rule applications.
type Stats struct {
	RedundantMoves int
	RedundantTst   int
	JumpsToNext    int
	JumpChains     int
	InvertedOver   int
	AutoInc        int
	AutoDec        int
	IncDec         int // add/sub of $1 or $-1 to inc/dec
	ClrZero        int // mov of $0 to clr
	AOBLoops       int // inc-compare-branch to aoblss/aobleq
	DeadLabels     int
	LinesRemoved   int
}

type lineKind uint8

const (
	lDirective lineKind = iota
	lLabel
	lInstr
)

type line struct {
	kind  lineKind
	label string // label name, for lLabel
	mn    string
	ops   []string
	raw   string // directives keep their original text
}

func (l *line) render() string {
	switch l.kind {
	case lDirective:
		return l.raw
	case lLabel:
		return l.label + ":"
	default:
		if len(l.ops) == 0 {
			return "\t" + l.mn
		}
		return "\t" + l.mn + "\t" + strings.Join(l.ops, ",")
	}
}

// parse splits assembly text into lines. Function headers like
// "_f:\t.word 0" become a label line plus a directive line.
func parse(src string) []*line {
	var out []*line
	for _, raw := range strings.Split(src, "\n") {
		text := strings.TrimRight(raw, " \t")
		if text == "" {
			continue
		}
		trimmed := strings.TrimSpace(text)
		// Peel leading label definitions.
		for {
			colon := strings.IndexByte(trimmed, ':')
			if colon <= 0 || strings.ContainsAny(trimmed[:colon], " \t,$(") {
				break
			}
			out = append(out, &line{kind: lLabel, label: trimmed[:colon]})
			trimmed = strings.TrimSpace(trimmed[colon+1:])
		}
		if trimmed == "" {
			continue
		}
		if strings.HasPrefix(trimmed, ".") {
			raw := text
			if len(out) > 0 && out[len(out)-1].kind == lLabel && !strings.HasPrefix(text, ".") {
				// The directive shared its line with a peeled label.
				raw = "\t" + trimmed
			}
			out = append(out, &line{kind: lDirective, raw: raw})
			continue
		}
		mn := trimmed
		var ops []string
		if i := strings.IndexAny(trimmed, " \t"); i >= 0 {
			mn = trimmed[:i]
			rest := strings.TrimSpace(trimmed[i+1:])
			if rest != "" {
				for _, o := range strings.Split(rest, ",") {
					ops = append(ops, strings.TrimSpace(o))
				}
			}
		}
		out = append(out, &line{kind: lInstr, mn: mn, ops: ops})
	}
	return out
}

func render(lines []*line) string {
	var b strings.Builder
	for _, l := range lines {
		if l == nil {
			continue
		}
		b.WriteString(l.render())
		b.WriteByte('\n')
	}
	return b.String()
}

// Optimize applies the peephole rules to VAX assembly to a fixed point —
// the rule-driven passes with the VAX vocabulary, then the VAX-only
// condition-code, autoincrement, range-idiom and loop rewrites — and
// returns the improved assembly and the applications performed.
func Optimize(src string) (string, Stats) {
	return runPasses(src, vaxRules, []pass{removeRedundantTst, introduceAutoStep, rangeIdioms, introduceAOB})
}

func countInstrs(lines []*line) int {
	n := 0
	for _, l := range lines {
		if l != nil && l.kind == lInstr {
			n++
		}
	}
	return n
}

func compact(lines []*line) []*line {
	out := lines[:0]
	for _, l := range lines {
		if l != nil {
			out = append(out, l)
		}
	}
	return out
}

// isBranch reports whether the mnemonic transfers control.
func isBranch(mn string) bool {
	switch mn {
	case "jbr", "jeql", "jneq", "jlss", "jleq", "jgtr", "jgeq",
		"jlssu", "jlequ", "jgtru", "jgequ", "aoblss", "aobleq",
		"calls", "ret":
		return true
	}
	return false
}

// invert maps each conditional jump to its complement.
var invert = map[string]string{
	"jeql": "jneq", "jneq": "jeql",
	"jlss": "jgeq", "jgeq": "jlss",
	"jleq": "jgtr", "jgtr": "jleq",
	"jlssu": "jgequ", "jgequ": "jlssu",
	"jlequ": "jgtru", "jgtru": "jlequ",
}

// next returns the index of the next non-nil line at or after i, or -1.
func next(lines []*line, i int) int {
	for ; i < len(lines); i++ {
		if lines[i] != nil {
			return i
		}
	}
	return -1
}

// nextInstrSameBlock returns the next instruction index if no label or
// directive intervenes, else -1.
func nextInstrSameBlock(lines []*line, i int) int {
	for j := i + 1; j < len(lines); j++ {
		l := lines[j]
		if l == nil {
			continue
		}
		if l.kind != lInstr {
			return -1
		}
		return j
	}
	return -1
}

// labelTargets collects, for each label, the index of its definition.
func labelDefs(lines []*line) map[string]int {
	defs := make(map[string]int)
	for i, l := range lines {
		if l != nil && l.kind == lLabel {
			defs[l.label] = i
		}
	}
	return defs
}

// nextInstrSameBlockFromLabel finds the first instruction after a label,
// skipping further labels (they all name the same point).
func nextInstrSameBlockFromLabel(lines []*line, i int) int {
	for j := i + 1; j < len(lines); j++ {
		l := lines[j]
		if l == nil || l.kind == lLabel {
			continue
		}
		if l.kind == lInstr {
			return j
		}
		return -1
	}
	return -1
}

// writesResult reports whether the instruction's last operand is a
// destination whose value the condition codes describe afterwards.
func writesResult(mn string) bool {
	switch {
	case strings.HasPrefix(mn, "mov") && !strings.HasPrefix(mn, "mova"),
		strings.HasPrefix(mn, "cvt"),
		strings.HasPrefix(mn, "add"), strings.HasPrefix(mn, "sub"),
		strings.HasPrefix(mn, "mul"), strings.HasPrefix(mn, "div"),
		strings.HasPrefix(mn, "bis"), strings.HasPrefix(mn, "bic"),
		strings.HasPrefix(mn, "xor"), strings.HasPrefix(mn, "mneg"),
		strings.HasPrefix(mn, "mcom"), strings.HasPrefix(mn, "inc"),
		strings.HasPrefix(mn, "dec"), strings.HasPrefix(mn, "clr"),
		mn == "ashl", mn == "extzv":
		return true
	}
	return false
}

// suffixSize maps a type-suffix letter to its operand size.
func suffixSize(c byte) int {
	switch c {
	case 'b':
		return 1
	case 'w':
		return 2
	case 'l', 'f':
		return 4
	case 'd':
		return 8
	}
	return 0
}

// opSize extracts the operand size of a typed mnemonic ("movb" -> 1).
func opSize(mn string) int {
	for i := len(mn) - 1; i >= 0; i-- {
		c := mn[i]
		if c >= '0' && c <= '9' {
			continue
		}
		return suffixSize(c)
	}
	return 0
}

// hasSideEffect reports whether formatting the operand again would change
// machine state (autoincrement modes) or depends on the stack pointer.
func hasSideEffect(op string) bool {
	return strings.HasSuffix(op, ")+") || strings.HasPrefix(op, "-(") ||
		strings.Contains(op, "(sp)")
}

func removeRedundantTst(lines []*line, st *Stats) bool {
	changed := false
	var prev *line
	for i, l := range lines {
		if l == nil {
			continue
		}
		if l.kind != lInstr {
			prev = nil
			continue
		}
		if strings.HasPrefix(l.mn, "tst") && len(l.ops) == 1 && prev != nil &&
			writesResult(prev.mn) && len(prev.ops) > 0 &&
			prev.ops[len(prev.ops)-1] == l.ops[0] &&
			opSize(prev.mn) == opSize(l.mn) &&
			!hasSideEffect(l.ops[0]) {
			lines[i] = nil
			st.RedundantTst++
			changed = true
			continue // prev still describes the codes for a further tst
		}
		prev = l
	}
	return changed
}

// introduceAutoStep rewrites
//
//	op ... (rN) ... ; addl2 $size,rN   =>   op ... (rN)+ ...
//	subl2 $size,rN ; op ... (rN) ...   =>   op ... -(rN) ...
//
// when rN appears exactly once in the operation — §6.1's autoincrement
// improvement by post analysis of a basic block.
func introduceAutoStep(lines []*line, st *Stats) bool {
	changed := false
	for i, l := range lines {
		if l == nil || l.kind != lInstr {
			continue
		}
		j := nextInstrSameBlock(lines, i)
		if j < 0 {
			continue
		}
		m := lines[j]
		// Post-increment: l uses (rN), m is addl2 $size,rN.
		if m.mn == "addl2" && len(m.ops) == 2 && isBranch(l.mn) == false {
			if reg, size, ok := stepOf(m); ok && size == opSize(l.mn) {
				if k, ok := soleRegDefUse(l, reg); ok {
					l.ops[k] = "(" + reg + ")+"
					lines[j] = nil
					st.AutoInc++
					changed = true
					continue
				}
			}
		}
		// Pre-decrement: l is subl2 $size,rN, m uses (rN).
		if l.mn == "subl2" && len(l.ops) == 2 && m.kind == lInstr && !isBranch(m.mn) {
			if reg, size, ok := stepOf(l); ok && size == opSize(m.mn) {
				if k, ok := soleRegDefUse(m, reg); ok {
					m.ops[k] = "-(" + reg + ")"
					lines[i] = nil
					st.AutoDec++
					changed = true
				}
			}
		}
	}
	return changed
}

// stepOf decodes addl2/subl2 $k,rN into (register, k).
func stepOf(l *line) (reg string, size int, ok bool) {
	if len(l.ops) != 2 || !strings.HasPrefix(l.ops[0], "$") || !isRegName(l.ops[1]) {
		return "", 0, false
	}
	k, err := strconv.Atoi(l.ops[0][1:])
	if err != nil || k <= 0 {
		return "", 0, false
	}
	return l.ops[1], k, true
}

func isRegName(s string) bool {
	if s == "ap" || s == "fp" || s == "sp" {
		return false // stepping the frame registers is never an autoinc
	}
	if len(s) >= 2 && s[0] == 'r' {
		n, err := strconv.Atoi(s[1:])
		return err == nil && n >= 0 && n <= 11
	}
	return false
}

// soleRegDefUse returns the operand index where the register appears as a
// plain deferred operand "(rN)", provided the register occurs nowhere else
// in the instruction.
func soleRegDefUse(l *line, reg string) (int, bool) {
	idx := -1
	for i, op := range l.ops {
		if op == "("+reg+")" {
			if idx >= 0 {
				return 0, false
			}
			idx = i
			continue
		}
		if strings.Contains(op, reg) {
			return 0, false
		}
	}
	if idx < 0 {
		return 0, false
	}
	return idx, true
}

// rangeIdioms rewrites the immediate-constant special cases into their
// dedicated VAX forms — the range idioms the instruction generation phase
// recognizes on trees (§5.3.3), recovered here on the instruction stream so
// the baseline generator's output benefits as well:
//
//	addX2 $1,dst  / subX2 $-1,dst   =>   incX dst
//	subX2 $1,dst  / addX2 $-1,dst   =>   decX dst
//	movX  $0,dst                    =>   clrX dst
//
// It runs after autoincrement introduction in the pass so a byte-sized
// `addl2 $1,rN` step is claimed as (rN)+ before it can become `incl rN`.
func rangeIdioms(lines []*line, st *Stats) bool {
	changed := false
	for _, l := range lines {
		if l == nil || l.kind != lInstr || len(l.ops) != 2 || !strings.HasPrefix(l.ops[0], "$") {
			continue
		}
		n, err := strconv.Atoi(l.ops[0][1:])
		if err != nil {
			continue
		}
		var mn string
		switch {
		case l.mn == "movb" || l.mn == "movw" || l.mn == "movl":
			if n != 0 {
				continue
			}
			mn = "clr" + l.mn[3:]
			st.ClrZero++
		case len(l.mn) == 5 && l.mn[4] == '2' &&
			(l.mn[:3] == "add" || l.mn[:3] == "sub") &&
			(l.mn[3] == 'b' || l.mn[3] == 'w' || l.mn[3] == 'l'):
			if n != 1 && n != -1 {
				continue
			}
			op := "inc"
			if (l.mn[:3] == "sub") == (n == 1) {
				op = "dec"
			}
			mn = op + l.mn[3:4]
			st.IncDec++
		default:
			continue
		}
		l.mn, l.ops = mn, l.ops[1:]
		changed = true
	}
	return changed
}

// introduceAOB collapses the canonical loop bottom into the VAX
// add-one-and-branch instructions:
//
//	incl rN ; cmpl rN,limit ; jlss L   =>   aoblss limit,rN,L
//	incl rN ; cmpl rN,limit ; jleq L   =>   aobleq limit,rN,L
//
// The three instructions must be consecutive in one basic block, the limit
// operand must not mention rN or carry a side effect, and the fall-through
// successor must not read the condition codes — after the rewrite they
// describe the incremented index, not the dropped compare.
func introduceAOB(lines []*line, st *Stats) bool {
	changed := false
	for i, l := range lines {
		if l == nil || l.kind != lInstr || l.mn != "incl" || len(l.ops) != 1 || !isRegName(l.ops[0]) {
			continue
		}
		reg := l.ops[0]
		j := nextInstrSameBlock(lines, i)
		if j < 0 {
			continue
		}
		c := lines[j]
		if c.mn != "cmpl" || len(c.ops) != 2 || c.ops[0] != reg {
			continue
		}
		limit := c.ops[1]
		if strings.Contains(limit, reg) || hasSideEffect(limit) {
			continue
		}
		k := nextInstrSameBlock(lines, j)
		if k < 0 {
			continue
		}
		b := lines[k]
		var mn string
		switch b.mn {
		case "jlss":
			mn = "aoblss"
		case "jleq":
			mn = "aobleq"
		default:
			continue
		}
		if len(b.ops) != 1 || condConsumerFollows(lines, k) {
			continue
		}
		b.mn, b.ops = mn, []string{limit, reg, b.ops[0]}
		lines[i], lines[j] = nil, nil
		st.AOBLoops++
		changed = true
	}
	return changed
}

// condConsumerFollows reports whether the instruction reached by falling
// through from index k is a conditional branch, i.e. consumes the condition
// codes set before k.
func condConsumerFollows(lines []*line, k int) bool {
	for j := k + 1; j < len(lines); j++ {
		l := lines[j]
		if l == nil || l.kind == lLabel {
			continue
		}
		if l.kind != lInstr {
			return false
		}
		_, cond := invert[l.mn]
		return cond
	}
	return false
}

func dropDeadLabels(lines []*line, st *Stats) bool {
	used := make(map[string]bool)
	for _, l := range lines {
		if l == nil || l.kind != lInstr {
			continue
		}
		for _, op := range l.ops {
			used[op] = true
			if i := strings.IndexByte(op, '+'); i > 0 {
				used[op[:i]] = true
			}
		}
	}
	changed := false
	for i, l := range lines {
		if l == nil || l.kind != lLabel {
			continue
		}
		if strings.HasPrefix(l.label, "_") {
			continue // function entries and data symbols stay
		}
		if !used[l.label] {
			lines[i] = nil
			st.DeadLabels++
			changed = true
		}
	}
	return changed
}

// String summarizes the statistics.
func (s Stats) String() string {
	return fmt.Sprintf(
		"moves %d, tst %d, jumps-to-next %d, chains %d, inverted %d, autoinc %d, autodec %d, incdec %d, clr %d, aob %d, dead labels %d, %d lines removed",
		s.RedundantMoves, s.RedundantTst, s.JumpsToNext, s.JumpChains,
		s.InvertedOver, s.AutoInc, s.AutoDec, s.IncDec, s.ClrZero,
		s.AOBLoops, s.DeadLabels, s.LinesRemoved)
}
