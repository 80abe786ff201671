package peep

import (
	"math"
	"strings"
	"sync"
	"unsafe"

	"ggcg/internal/simcore"
)

// recKind says what one record of a unit is.
type recKind uint8

const (
	kDead recKind = iota // removed by a rule; skipped by every pass and by render
	kDirective
	kLabel
	kInstr
)

// operand is one instruction operand: a substring of the source (or of a
// string a rule built) and the labels it names, resolved once — lab when
// the whole operand is a label's name, plab when the part before its first
// '+' is; -1 when it names none.
type operand struct {
	s         string
	lab, plab int32
}

// rec is one line of a unit, stored by value in one flat slice. Its
// operands are ops[op0 : op0+nops] of the unit's shared operand backing.
// A record whose rendering is its source line, newline included, is
// verbatim: render copies runs of those straight from the source.
type rec struct {
	kind       recKind
	cls        simcore.Class // instruction: the mnemonic's class
	size       uint8         // instruction: the mnemonic's data size
	tab        bool          // directive: rendered as a tab and s (it shared a label's line)
	verbatim   bool          // renders as src[start:end]
	lab        int32         // label: the name's index
	op0, nops  int32
	start, end int32  // source span of a verbatim record
	s          string // mnemonic, label name or directive text
}

// unit is one optimizer call's working state: the records, the operand
// backing and the label tables. Units are pooled, so a call allocates its
// output and whatever strings a firing rule builds, not per line.
type unit struct {
	src   string
	recs  []rec
	ops   []operand
	names map[string]int32        // label name -> index
	defs  []int32                 // label index -> its last defining record
	uses  []int32                 // label index -> live operands naming it
	first [256]bool               // first bytes of label names
	table map[string]simcore.Info // the target's instruction table
	st    Stats                   // here, not on the stack: passes called through func values would move it to the heap
}

var unitPool = sync.Pool{New: func() any { return &unit{names: make(map[string]int32)} }}

// newUnit scans src into a pooled unit classified by an instruction
// table; the caller returns it with free.
func newUnit(src string, table map[string]simcore.Info) *unit {
	u := unitPool.Get().(*unit)
	u.src, u.table, u.st = src, table, Stats{}
	u.scan()
	return u
}

func (u *unit) free() {
	u.recs, u.ops, u.defs, u.uses = u.recs[:0], u.ops[:0], u.defs[:0], u.uses[:0]
	if len(u.names) > 4096 {
		// Clearing costs the map's capacity, not its length: let one huge
		// unit's table go rather than charge every later call for it.
		u.names = make(map[string]int32)
	} else {
		clear(u.names)
	}
	u.first = [256]bool{}
	u.src, u.table = "", nil
	unitPool.Put(u)
}

// scan splits src into records: one per label definition, directive and
// instruction. A function header like "_f:\t.word 0" becomes a label
// record plus a directive record. Label references are resolved once the
// whole unit is read, so forward references resolve too.
func (u *unit) scan() {
	src := u.src
	for start := 0; start < len(src); {
		if src[start] == '\t' {
			if next, ok := u.scanInstr(start); ok {
				start = next
				continue
			}
		}
		line, end := src[start:], len(src)
		if nl := strings.IndexByte(line, '\n'); nl >= 0 {
			line, end = line[:nl], start+nl+1
		}
		n := len(u.recs)
		u.scanLine(line)
		if len(u.recs) == n+1 && end == start+len(line)+1 {
			u.markVerbatim(&u.recs[n], line, start, end)
		}
		start = end
	}
	if len(u.defs) == 0 {
		return
	}
	for k := range u.ops {
		o := &u.ops[k]
		*o = u.resolve(o.s)
		u.ref(*o, 1)
	}
}

// Byte classes of scanInstr's canonical instruction line.
const (
	bOther   = iota // needs the general scanner
	bPlain          // may appear in a mnemonic or an operand
	bOperand        // may appear in an operand: ends a label name in a mnemonic
	bTab
	bComma
	bNewline
)

var lineByte = func() (t [256]uint8) {
	for c := '!'; c <= '~'; c++ {
		t[c] = bPlain
	}
	t[':'], t['$'], t['('] = bOperand, bOperand, bOperand
	t['\t'], t[','], t['\n'] = bTab, bComma, bNewline
	return t
}()

// scanInstr scans the line at src[p], which starts with a tab, when it is
// an instruction in the emitters' own shape — tab, mnemonic, and
// optionally a tab and comma-separated operands, with no blanks, colons in
// the mnemonic or non-ASCII bytes — in one pass. It returns the start of
// the next line, or false, having appended nothing, when the general
// scanner must read the line. What it appends is what scanLine would.
func (u *unit) scanInstr(p int) (int, bool) {
	src := u.src
	i := p + 1
	for i < len(src) && lineByte[src[i]] == bPlain {
		i++
	}
	if i == p+1 || src[p+1] == '.' {
		return 0, false
	}
	mn := src[p+1 : i]
	op0 := len(u.ops)
	if i < len(src) && src[i] == '\t' {
		start := i + 1
		if start == len(src) || src[start] == '\n' {
			return 0, false // a trailing tab, which the general scanner trims
		}
		for i = start; ; i++ {
			c := uint8(bNewline)
			if i < len(src) {
				c = lineByte[src[i]]
			}
			if c == bPlain || c == bOperand {
				continue
			}
			if c != bComma && c != bNewline {
				u.ops = u.ops[:op0]
				return 0, false
			}
			u.ops = append(u.ops, operand{s: src[start:i], lab: -1, plab: -1})
			if c == bNewline {
				break
			}
			start = i + 1
		}
	} else if i < len(src) && src[i] != '\n' {
		return 0, false
	}
	r := u.appendInstr(mn, op0)
	if i < len(src) {
		i++
		r.setSpan(p, i)
	}
	return i, true
}

func (u *unit) scanLine(raw string) {
	end := len(raw)
	for end > 0 && (raw[end-1] == ' ' || raw[end-1] == '\t') {
		end--
	}
	text := raw[:end]
	if text == "" {
		return
	}
	trimmed := trimSpace(text)
	// Peel leading label definitions: a colon before any of the bytes that
	// start or separate operands ends a label name.
	stop := 0
	for trimmed != "" {
		stop = 0
		for stop < len(trimmed) && !labelStop[trimmed[stop]] {
			stop++
		}
		if stop == 0 || stop == len(trimmed) || trimmed[stop] != ':' {
			break
		}
		u.defineLabel(trimmed[:stop])
		trimmed = trimSpace(trimmed[stop+1:])
	}
	if trimmed == "" {
		return
	}
	if trimmed[0] == '.' {
		d := rec{kind: kDirective, s: text}
		if n := len(u.recs); n > 0 && u.recs[n-1].kind == kLabel && text[0] != '.' {
			// The directive shared its line with a peeled label.
			d.tab, d.s = true, trimmed
		}
		u.recs = append(u.recs, d)
		return
	}
	// No blank precedes stop, so the mnemonic ends at the first blank at
	// or after it.
	mn, rest := trimmed, ""
	for i := stop; i < len(trimmed); i++ {
		if trimmed[i] == ' ' || trimmed[i] == '\t' {
			mn, rest = trimmed[:i], trimSpace(trimmed[i+1:])
			break
		}
	}
	op0 := len(u.ops)
	if rest != "" {
		start := 0
		for k := 0; k < len(rest); k++ {
			if rest[k] == ',' {
				u.ops = append(u.ops, operand{s: trimSpace(rest[start:k]), lab: -1, plab: -1})
				start = k + 1
			}
		}
		u.ops = append(u.ops, operand{s: trimSpace(rest[start:]), lab: -1, plab: -1})
	}
	u.appendInstr(mn, op0)
}

// appendInstr appends an instruction record whose operands are
// ops[op0:].
func (u *unit) appendInstr(mn string, op0 int) *rec {
	u.recs = append(u.recs, rec{kind: kInstr, op0: int32(op0), nops: int32(len(u.ops) - op0)})
	r := &u.recs[len(u.recs)-1]
	u.setMn(r, mn)
	return r
}

// markVerbatim marks r, the only record of a newline-terminated source
// line spanning src[start:end], verbatim when it renders as exactly that
// line. Every part of the rendering is a substring of the line, in order,
// and every source gap between parts holds at least the one separator byte
// the rendering puts there, so equal lengths leave each gap exactly one
// byte: only which byte needs checking.
func (u *unit) markVerbatim(r *rec, line string, start, end int) {
	if u.size(r) != end-start {
		return
	}
	switch r.kind {
	case kInstr:
		if line[0] != '\t' || (r.nops > 0 && line[1+len(r.s)] != '\t') {
			return
		}
	case kDirective:
		if r.tab && line[0] != '\t' {
			return
		}
	}
	r.setSpan(start, end)
}

// setSpan makes r verbatim over src[start:end], unless the offsets do not
// fit its fields; r then renders from its parts, which give the same text.
func (r *rec) setSpan(start, end int) {
	if end <= math.MaxInt32 {
		r.verbatim, r.start, r.end = true, int32(start), int32(end)
	}
}

// labelStop marks the bytes that end the scan for a label name: the colon
// that defines one, and the blanks and operand punctuation no label name
// holds.
var labelStop = [256]bool{':': true, ' ': true, '\t': true, ',': true, '$': true, '(': true}

// trimSpace is strings.TrimSpace with the ASCII case inline; a non-ASCII
// byte at either end falls back to the Unicode-aware original.
func trimSpace(s string) string {
	if len(s) == 0 || (s[0] > ' ' && s[0] < 0x80 && s[len(s)-1] > ' ' && s[len(s)-1] < 0x80) {
		return s
	}
	i, j := 0, len(s)
	for i < j && asciiSpace(s[i]) {
		i++
	}
	for j > i && asciiSpace(s[j-1]) {
		j--
	}
	if i < j && (s[i] >= 0x80 || s[j-1] >= 0x80) {
		return strings.TrimSpace(s[i:j])
	}
	return s[i:j]
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// defineLabel appends a label record, giving each distinct name a dense
// index; a name defined twice resolves to its last definition.
func (u *unit) defineLabel(name string) {
	idx, ok := u.names[name]
	if !ok {
		idx = int32(len(u.defs))
		u.names[name] = idx
		u.defs = append(u.defs, 0)
		u.uses = append(u.uses, 0)
		u.first[name[0]] = true
	}
	u.defs[idx] = int32(len(u.recs))
	u.recs = append(u.recs, rec{kind: kLabel, lab: idx, s: name})
}

// resolve returns s as an operand with the labels it names.
func (u *unit) resolve(s string) operand {
	o := operand{s: s, lab: -1, plab: -1}
	if s == "" || !u.first[s[0]] {
		return o
	}
	if idx, ok := u.names[s]; ok {
		o.lab = idx
	}
	if i := strings.IndexByte(s, '+'); i > 0 {
		if idx, ok := u.names[s[:i]]; ok {
			o.plab = idx
		}
	}
	return o
}

// ref adds d to the use counts of the labels o names.
func (u *unit) ref(o operand, d int32) {
	if o.lab >= 0 {
		u.uses[o.lab] += d
	}
	if o.plab >= 0 {
		u.uses[o.plab] += d
	}
}

// setMn gives an instruction record a mnemonic and classifies it.
func (u *unit) setMn(r *rec, mn string) {
	r.s, r.verbatim = mn, false
	in := u.table[mn]
	r.cls, r.size = in.Class, uint8(in.Size)
}

// last returns the index in the operand backing of r's last operand.
func (r *rec) last() int32 { return r.op0 + r.nops - 1 }

// setOp replaces r's operand at backing index k, keeping use counts.
func (u *unit) setOp(r *rec, k int32, o operand) {
	r.verbatim = false
	u.ref(u.ops[k], -1)
	u.ops[k] = o
	u.ref(o, 1)
}

// setOps gives record i a fresh operand list at the end of the backing.
func (u *unit) setOps(i int, ops ...operand) {
	r := &u.recs[i]
	for k := r.op0; k < r.op0+r.nops; k++ {
		u.ref(u.ops[k], -1)
	}
	r.op0, r.nops, r.verbatim = int32(len(u.ops)), int32(len(ops)), false
	for _, o := range ops {
		u.ops = append(u.ops, o)
		u.ref(o, 1)
	}
}

// kill removes record i, releasing an instruction's label uses.
func (u *unit) kill(i int) {
	r := &u.recs[i]
	if r.kind == kInstr {
		for k := r.op0; k < r.op0+r.nops; k++ {
			u.ref(u.ops[k], -1)
		}
	}
	r.kind = kDead
}

// instrs counts the live instruction records.
func (u *unit) instrs() int {
	n := 0
	for i := range u.recs {
		if u.recs[i].kind == kInstr {
			n++
		}
	}
	return n
}

// nextInstrSameBlock returns the next instruction index if no label or
// directive intervenes, else -1.
func (u *unit) nextInstrSameBlock(i int) int {
	for j := i + 1; j < len(u.recs); j++ {
		switch u.recs[j].kind {
		case kDead:
			continue
		case kInstr:
			return j
		}
		return -1
	}
	return -1
}

// nextInstrFromLabel finds the first instruction after label record i,
// skipping further labels (they all name the same point).
func (u *unit) nextInstrFromLabel(i int) int {
	for j := i + 1; j < len(u.recs); j++ {
		switch u.recs[j].kind {
		case kDead, kLabel:
			continue
		case kInstr:
			return j
		}
		return -1
	}
	return -1
}

// labelFollows reports whether label lab is defined among the labels that
// directly follow record i, before any other live record.
func (u *unit) labelFollows(i int, lab int32) bool {
	if lab < 0 {
		return false
	}
	for j := i + 1; j < len(u.recs); j++ {
		switch r := &u.recs[j]; r.kind {
		case kDead:
			continue
		case kLabel:
			if r.lab == lab {
				return true
			}
			continue
		}
		return false
	}
	return false
}

// size returns the length of a live record's rendering, newline included.
func (u *unit) size(r *rec) int {
	switch r.kind {
	case kDirective:
		if r.tab {
			return len(r.s) + 2
		}
		return len(r.s) + 1
	case kLabel:
		return len(r.s) + 2
	case kInstr:
		n := len(r.s) + 2
		for k := r.op0; k < r.op0+r.nops; k++ {
			n += len(u.ops[k].s) + 1
		}
		return n
	}
	return 0
}

// render writes the live records as assembly text into one buffer sized
// up front, which becomes the returned string without a copy. A run of
// verbatim records that are adjacent in the source is one copy.
func (u *unit) render() string {
	n := 0
	for i := range u.recs {
		if r := &u.recs[i]; r.verbatim && r.kind != kDead {
			n += int(r.end - r.start)
		} else {
			n += u.size(r)
		}
	}
	b := make([]byte, 0, n)
	for i := 0; i < len(u.recs); i++ {
		r := &u.recs[i]
		if r.kind == kDead {
			continue
		}
		if r.verbatim {
			start, end := r.start, r.end
			for i+1 < len(u.recs) && u.recs[i+1].kind != kDead && u.recs[i+1].verbatim && u.recs[i+1].start == end {
				i++
				end = u.recs[i].end
			}
			b = append(b, u.src[start:end]...)
			continue
		}
		switch r.kind {
		case kDirective:
			if r.tab {
				b = append(b, '\t')
			}
			b = append(b, r.s...)
		case kLabel:
			b = append(b, r.s...)
			b = append(b, ':')
		case kInstr:
			b = append(b, '\t')
			b = append(b, r.s...)
			for k := r.op0; k < r.op0+r.nops; k++ {
				if k == r.op0 {
					b = append(b, '\t')
				} else {
					b = append(b, ',')
				}
				b = append(b, u.ops[k].s...)
			}
		}
		b = append(b, '\n')
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}
