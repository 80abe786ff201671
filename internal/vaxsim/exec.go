package vaxsim

import (
	"errors"
	"fmt"

	"ggcg/internal/simcore"
)

// exec is a decoded instruction. The step loop advances control to
// m.Next, which control transfers overwrite.
type exec = simcore.Exec[*Machine]

// decoder checks an instruction's operands and returns its exec with
// them bound.
type decoder = func(in *Instr) exec

// table is the instruction table (simcore.ISA.Ops): each mnemonic's
// decoder, class and data size. It also defines the accepted instruction
// subset for the assembler.
var table = make(map[string]simcore.Op[Operand, *Machine], 160) // room for every entry

// def enters mn in the table.
func def(mn string, cls simcore.Class, size int, d decoder) {
	table[mn] = simcore.Op[Operand, *Machine]{Info: simcore.Info{Class: cls, Size: size}, Decode: d}
}

var fail = simcore.Fail[*Machine]

var intSuffix = map[string]int{"b": 1, "w": 2, "l": 4}
var fltSuffix = map[string]int{"f": 4, "d": 8}

// Classes of the table.
const (
	sets     = simcore.SetsResult
	move     = simcore.Move | simcore.SetsResult
	transfer = simcore.Transfer
)

func init() {
	for s, size := range intSuffix {
		def("mov"+s, move, size, movInt(size))
		def("clr"+s, sets, size, clrInt(size))
		def("tst"+s, 0, size, tstInt(size))
		def("cmp"+s, 0, size, cmpInt(size))
		def("inc"+s, sets, size, incInt(size, 1))
		def("dec"+s, sets, size, incInt(size, -1))
		def("mneg"+s, sets, size, unaryInt(size, func(v int64) int64 { return -v }))
		def("mcom"+s, sets, size, unaryInt(size, func(v int64) int64 { return ^v }))
		for _, bin := range []struct {
			name string
			f    func(a, b int64) (int64, error)
		}{
			{"add", func(a, b int64) (int64, error) { return b + a, nil }},
			{"sub", func(a, b int64) (int64, error) { return b - a, nil }},
			{"mul", func(a, b int64) (int64, error) { return b * a, nil }},
			{"div", divInt},
			{"bic", func(a, b int64) (int64, error) { return b &^ a, nil }},
			{"bis", func(a, b int64) (int64, error) { return b | a, nil }},
			{"xor", func(a, b int64) (int64, error) { return b ^ a, nil }},
		} {
			def(bin.name+s+"2", sets, size, binInt2(size, bin.f))
			def(bin.name+s+"3", sets, size, binInt3(size, bin.f))
		}
	}
	for s, size := range fltSuffix {
		def("mov"+s, move, size, movFloat(size))
		def("clr"+s, sets, size, clrFloat(size))
		def("tst"+s, 0, size, tstFloat(size))
		def("cmp"+s, 0, size, cmpFloat(size))
		def("mneg"+s, sets, size, unaryFloat(size, func(v float64) float64 { return -v }))
		for _, bin := range []struct {
			name string
			f    func(a, b float64) (float64, error)
		}{
			{"add", func(a, b float64) (float64, error) { return b + a, nil }},
			{"sub", func(a, b float64) (float64, error) { return b - a, nil }},
			{"mul", func(a, b float64) (float64, error) { return b * a, nil }},
			{"div", divFloat},
		} {
			def(bin.name+s+"2", sets, size, binFloat2(size, bin.f))
			def(bin.name+s+"3", sets, size, binFloat3(size, bin.f))
		}
	}
	// Unsigned widening moves.
	def("movzbw", sets, 2, movz(1, 2))
	def("movzbl", sets, 4, movz(1, 4))
	def("movzwl", sets, 4, movz(2, 4))
	// Conversions, including the cross products the grammar needs (§6.4).
	suffixes := map[string]int{"b": 1, "w": 2, "l": 4, "f": 4, "d": 8}
	isFloat := map[string]bool{"f": true, "d": true}
	for from, fs := range suffixes {
		for to, ts := range suffixes {
			if from == to {
				continue
			}
			def("cvt"+from+to, sets, ts, cvt(fs, ts, isFloat[from], isFloat[to]))
		}
	}
	def("ashl", sets, 4, ashl)
	def("extzv", sets, 0, extzv) // v: a bit field, whose size is an operand
	def("pushl", 0, 4, pushl)
	def("movab", 0, 1, mova(1))
	def("movaw", 0, 2, mova(2))
	def("moval", 0, 4, mova(4))
	def("movaq", 0, 0, mova(8)) // q: a quadword, none of the b, w, l, f, d types
	def("jbr", simcore.Jump|transfer, 0, branch(jump))
	// The PCC-style jump pseudo-instructions, each with the exec of its
	// taken test for target t and the jump taken exactly when it is not.
	// Signed tests follow a cmp or arithmetic result; the unsigned forms
	// test the carry (borrow) flag.
	for _, b := range []struct {
		mn, inverse string
		taken       func(t int) exec
	}{
		{"jeql", "jneq", func(t int) exec { return func(m *Machine) error { return m.jumpIf(m.Z, t) } }},
		{"jneq", "jeql", func(t int) exec { return func(m *Machine) error { return m.jumpIf(!m.Z, t) } }},
		{"jlss", "jgeq", func(t int) exec { return func(m *Machine) error { return m.jumpIf(m.N, t) } }},
		{"jleq", "jgtr", func(t int) exec { return func(m *Machine) error { return m.jumpIf(m.N || m.Z, t) } }},
		{"jgtr", "jleq", func(t int) exec { return func(m *Machine) error { return m.jumpIf(!m.N && !m.Z, t) } }},
		{"jgeq", "jlss", func(t int) exec { return func(m *Machine) error { return m.jumpIf(!m.N, t) } }},
		{"jlssu", "jgequ", func(t int) exec { return func(m *Machine) error { return m.jumpIf(m.C, t) } }},
		{"jlequ", "jgtru", func(t int) exec { return func(m *Machine) error { return m.jumpIf(m.C || m.Z, t) } }},
		{"jgtru", "jlequ", func(t int) exec { return func(m *Machine) error { return m.jumpIf(!m.C && !m.Z, t) } }},
		{"jgequ", "jlssu", func(t int) exec { return func(m *Machine) error { return m.jumpIf(!m.C, t) } }},
	} {
		table[b.mn] = simcore.Op[Operand, *Machine]{
			Info:   simcore.Info{Class: simcore.CondBranch | transfer, Inverse: b.inverse},
			Decode: branch(b.taken),
		}
	}
	def("calls", transfer, 0, calls)
	def("ret", transfer, 0, ret)
	def("aoblss", transfer, 0, aob(func(index, limit int64) bool { return index < limit }))
	def("aobleq", transfer, 0, aob(func(index, limit int64) bool { return index <= limit }))
}

// use is how an instruction uses an operand.
type use uint8

const (
	read     use = iota
	write        // written, not read
	modify       // read, then written
	address      // its address taken
	evaluate     // evaluated only, its use checked apart (see cvt)
)

// spec is how an instruction uses one operand: the use, the data size,
// and whether the data is floating or, read as an integer, unsigned.
type spec struct {
	use      use
	size     int
	float    bool
	unsigned bool
}

func rd(size int) spec  { return spec{use: read, size: size} }
func rdU(size int) spec { return spec{use: read, size: size, unsigned: true} }
func wr(size int) spec  { return spec{use: write, size: size} }
func md(size int) spec  { return spec{use: modify, size: size} }
func rdF(size int) spec { return spec{use: read, size: size, float: true} }
func wrF(size int) spec { return spec{use: write, size: size, float: true} }
func mdF(size int) spec { return spec{use: modify, size: size, float: true} }

var (
	errImmWrite = errors.New("immediate operand is not writable")
	errPair     = errors.New("double register pair out of range")
	errNoAddr   = errors.New("mova source has no address")
)

// decodeOps checks that in has one operand per spec and decodes them.
func decodeOps(in *Instr, specs ...spec) ([4]*opnd, error) {
	if err := in.WantOps(len(specs)); err != nil {
		return [4]*opnd{}, err
	}
	return decodeEach(in.Ops, specs...)
}

// decodeEach decodes each operand per its spec in turn, into the form the
// operand keeps, and returns the forms. It fails with the first operand
// fault in operand order, leaving the forms from there on nil; an
// instruction that meets a run-time fault or evaluates its operands in
// another order first handles that itself (faultAfter, cvt).
func decodeEach(os []Operand, specs ...spec) (ops [4]*opnd, err error) {
	for i, sp := range specs {
		o := &os[i]
		if err := o.decode(sp.size, sp.float); err != nil {
			return ops, err
		}
		o.form.unsigned = sp.unsigned
		if err := sp.check(&o.form); err != nil {
			return ops, err
		}
		ops[i] = &o.form
	}
	return ops, nil
}

// check reports the fault of using the decoded operand d as sp says: a
// D-float register pair must fit the register file, an immediate cannot
// be written and only a memory operand has an address.
func (sp spec) check(d *opnd) error {
	pair := sp.float && sp.size == 8 && d.kind == okReg && d.reg >= 15
	switch {
	case pair && (sp.use == read || sp.use == write || sp.use == modify):
		return errPair
	case d.kind == okImm && (sp.use == write || sp.use == modify):
		return errImmWrite
	case sp.use == address && (d.kind == okReg || d.kind == okImm):
		return errNoAddr
	}
	return nil
}

// faultAfter is the exec of an instruction whose destination is at
// fault with err, where the instruction's own operation runs first and
// may fault before it (a division by zero, an extzv field out of range):
// pre evaluates the operands before the destination and does that part.
func faultAfter(pre func(m *Machine) error, err error) exec {
	return func(m *Machine) error {
		if e := pre(m); e != nil {
			return e
		}
		return err
	}
}

func (m *Machine) setNZInt(v int64, size int) {
	t := simcore.Extend(uint64(v), size, false)
	m.N, m.Z, m.V, m.C = t < 0, t == 0, false, false
}

func (m *Machine) setNZFloat(v float64) {
	m.N, m.Z, m.V, m.C = v < 0, v == 0, false, false
}

// getFloat and putFloat evaluate a floating operand and read or write it.
func (m *Machine) getFloat(o *opnd) float64 { return m.loadFloat(o, m.at(o)) }

func (m *Machine) putFloat(o *opnd, v float64) { m.storeFloat(o, m.at(o), v) }

func movInt(size int) decoder {
	return func(in *Instr) exec {
		ops, err := decodeOps(in, rd(size), wr(size))
		if err != nil {
			return fail(err)
		}
		src, dst := ops[0], ops[1]
		return func(m *Machine) error {
			v := m.get(src)
			m.setNZInt(v, size)
			m.put(dst, v)
			return nil
		}
	}
}

func movFloat(size int) decoder {
	return func(in *Instr) exec {
		ops, err := decodeOps(in, rdF(size), wrF(size))
		if err != nil {
			return fail(err)
		}
		src, dst := ops[0], ops[1]
		return func(m *Machine) error {
			v := m.getFloat(src)
			m.setNZFloat(v)
			m.putFloat(dst, v)
			return nil
		}
	}
}

func movz(fromSize, toSize int) decoder {
	return func(in *Instr) exec {
		ops, err := decodeOps(in, rdU(fromSize), wr(toSize))
		if err != nil {
			return fail(err)
		}
		src, dst := ops[0], ops[1]
		return func(m *Machine) error {
			v := m.get(src)
			m.setNZInt(v, toSize)
			m.put(dst, v)
			return nil
		}
	}
}

// cvt evaluates both operands before it reads the source, so a
// destination's side effect on a source register shows in the value, and
// a fault evaluating the destination comes before one reading the source.
func cvt(fromSize, toSize int, fromF, toF bool) decoder {
	from := spec{use: read, size: fromSize, float: fromF}
	to := spec{use: write, size: toSize, float: toF}
	return func(in *Instr) exec {
		ops, err := decodeOps(in, spec{use: evaluate, size: fromSize, float: fromF},
			spec{use: evaluate, size: toSize, float: toF})
		if err == nil {
			err = from.check(ops[0])
		}
		if err == nil {
			err = to.check(ops[1])
		}
		if err != nil {
			return fail(err)
		}
		src, dst := ops[0], ops[1]
		switch {
		case fromF && toF:
			return func(m *Machine) error {
				ls, ld := m.at(src), m.at(dst)
				v := m.loadFloat(src, ls)
				m.setNZFloat(v)
				m.storeFloat(dst, ld, v)
				return nil
			}
		case fromF:
			return func(m *Machine) error {
				ls, ld := m.at(src), m.at(dst)
				v := int64(m.loadFloat(src, ls)) // CVTfL truncates toward zero
				m.setNZInt(v, toSize)
				m.store(dst, ld, v)
				return nil
			}
		case toF:
			return func(m *Machine) error {
				ls, ld := m.at(src), m.at(dst)
				v := float64(m.load(src, ls))
				m.setNZFloat(v)
				m.storeFloat(dst, ld, v)
				return nil
			}
		}
		return func(m *Machine) error {
			ls, ld := m.at(src), m.at(dst)
			v := m.load(src, ls)
			m.setNZInt(v, toSize)
			m.store(dst, ld, v)
			return nil
		}
	}
}

func clrInt(size int) decoder {
	return func(in *Instr) exec {
		ops, err := decodeOps(in, wr(size))
		if err != nil {
			return fail(err)
		}
		dst := ops[0]
		return func(m *Machine) error {
			m.setNZInt(0, size)
			m.put(dst, 0)
			return nil
		}
	}
}

func clrFloat(size int) decoder {
	return func(in *Instr) exec {
		ops, err := decodeOps(in, wrF(size))
		if err != nil {
			return fail(err)
		}
		dst := ops[0]
		return func(m *Machine) error {
			m.setNZFloat(0)
			m.putFloat(dst, 0)
			return nil
		}
	}
}

func tstInt(size int) decoder {
	return func(in *Instr) exec {
		ops, err := decodeOps(in, rd(size))
		if err != nil {
			return fail(err)
		}
		src := ops[0]
		return func(m *Machine) error {
			m.setNZInt(m.get(src), size)
			return nil
		}
	}
}

func tstFloat(size int) decoder {
	return func(in *Instr) exec {
		ops, err := decodeOps(in, rdF(size))
		if err != nil {
			return fail(err)
		}
		src := ops[0]
		return func(m *Machine) error {
			m.setNZFloat(m.getFloat(src))
			return nil
		}
	}
}

func cmpInt(size int) decoder {
	mask := uint64(1)<<(8*size) - 1
	return func(in *Instr) exec {
		ops, err := decodeOps(in, rd(size), rd(size))
		if err != nil {
			return fail(err)
		}
		x, y := ops[0], ops[1]
		return func(m *Machine) error {
			a := m.get(x)
			b := m.get(y)
			m.N, m.Z, m.V, m.C = a < b, a == b, false, uint64(a)&mask < uint64(b)&mask
			return nil
		}
	}
}

func cmpFloat(size int) decoder {
	return func(in *Instr) exec {
		ops, err := decodeOps(in, rdF(size), rdF(size))
		if err != nil {
			return fail(err)
		}
		x, y := ops[0], ops[1]
		return func(m *Machine) error {
			a := m.getFloat(x)
			b := m.getFloat(y)
			m.N, m.Z, m.V, m.C = a < b, a == b, false, a < b
			return nil
		}
	}
}

func incInt(size int, delta int64) decoder {
	return func(in *Instr) exec {
		ops, err := decodeOps(in, md(size))
		if err != nil {
			return fail(err)
		}
		dst := ops[0]
		return func(m *Machine) error {
			l := m.at(dst)
			v := m.load(dst, l) + delta
			m.setNZInt(v, size)
			m.store(dst, l, v)
			return nil
		}
	}
}

func unaryInt(size int, f func(int64) int64) decoder {
	return func(in *Instr) exec {
		ops, err := decodeOps(in, rd(size), wr(size))
		if err != nil {
			return fail(err)
		}
		src, dst := ops[0], ops[1]
		return func(m *Machine) error {
			r := f(m.get(src))
			m.setNZInt(r, size)
			m.put(dst, r)
			return nil
		}
	}
}

func unaryFloat(size int, f func(float64) float64) decoder {
	return func(in *Instr) exec {
		ops, err := decodeOps(in, rdF(size), wrF(size))
		if err != nil {
			return fail(err)
		}
		src, dst := ops[0], ops[1]
		return func(m *Machine) error {
			r := f(m.getFloat(src))
			m.setNZFloat(r)
			m.putFloat(dst, r)
			return nil
		}
	}
}

func divInt(a, b int64) (int64, error) {
	if a == 0 {
		return 0, fmt.Errorf("integer divide by zero")
	}
	if b == -1<<31 && a == -1 {
		return b, nil // wraps, V set on the real machine
	}
	return b / a, nil
}

func divFloat(a, b float64) (float64, error) {
	if a == 0 {
		return 0, fmt.Errorf("floating divide by zero")
	}
	return b / a, nil
}

// binInt2 implements op2 src,dst: dst = dst OP src.
func binInt2(size int, f func(a, b int64) (int64, error)) decoder {
	return func(in *Instr) exec {
		ops, err := decodeOps(in, rd(size), md(size))
		src, dst := ops[0], ops[1]
		if err == errImmWrite {
			// An immediate destination faults on the write, after f.
			dst = &in.Ops[1].form
			return faultAfter(func(m *Machine) error {
				_, err := f(m.get(src), m.get(dst))
				return err
			}, err)
		}
		if err != nil {
			return fail(err)
		}
		return func(m *Machine) error {
			a := m.get(src)
			l := m.at(dst)
			r, err := f(a, m.load(dst, l))
			if err != nil {
				return err
			}
			m.setNZInt(r, size)
			m.store(dst, l, r)
			return nil
		}
	}
}

// binInt3 implements op3 a,b,dst: dst = b OP a (the VAX operand order, in
// which subl3 computes minuend-from-the-second-operand).
func binInt3(size int, f func(a, b int64) (int64, error)) decoder {
	return func(in *Instr) exec {
		ops, err := decodeOps(in, rd(size), rd(size), wr(size))
		x, y, dst := ops[0], ops[1], ops[2]
		if err != nil && y != nil {
			return faultAfter(func(m *Machine) error {
				_, err := f(m.get(x), m.get(y))
				return err
			}, err)
		}
		if err != nil {
			return fail(err)
		}
		return func(m *Machine) error {
			a := m.get(x)
			r, err := f(a, m.get(y))
			if err != nil {
				return err
			}
			m.setNZInt(r, size)
			m.put(dst, r)
			return nil
		}
	}
}

func binFloat2(size int, f func(a, b float64) (float64, error)) decoder {
	return func(in *Instr) exec {
		ops, err := decodeOps(in, rdF(size), mdF(size))
		src, dst := ops[0], ops[1]
		if err == errImmWrite {
			dst = &in.Ops[1].form
			return faultAfter(func(m *Machine) error {
				_, err := f(m.getFloat(src), m.getFloat(dst))
				return err
			}, err)
		}
		if err != nil {
			return fail(err)
		}
		return func(m *Machine) error {
			a := m.getFloat(src)
			l := m.at(dst)
			r, err := f(a, m.loadFloat(dst, l))
			if err != nil {
				return err
			}
			m.setNZFloat(r)
			m.storeFloat(dst, l, r)
			return nil
		}
	}
}

func binFloat3(size int, f func(a, b float64) (float64, error)) decoder {
	return func(in *Instr) exec {
		ops, err := decodeOps(in, rdF(size), rdF(size), wrF(size))
		x, y, dst := ops[0], ops[1], ops[2]
		if err != nil && y != nil {
			return faultAfter(func(m *Machine) error {
				_, err := f(m.getFloat(x), m.getFloat(y))
				return err
			}, err)
		}
		if err != nil {
			return fail(err)
		}
		return func(m *Machine) error {
			a := m.getFloat(x)
			r, err := f(a, m.getFloat(y))
			if err != nil {
				return err
			}
			m.setNZFloat(r)
			m.putFloat(dst, r)
			return nil
		}
	}
}

// ashl cnt,src,dst: arithmetic shift of a long; positive counts shift left,
// negative right.
func ashl(in *Instr) exec {
	ops, err := decodeOps(in, rd(1), rd(4), wr(4))
	if err != nil {
		return fail(err)
	}
	c, s, dst := ops[0], ops[1], ops[2]
	return func(m *Machine) error {
		cnt := m.get(c)
		v := m.get(s)
		var r int64
		switch {
		case cnt >= 32:
			r = 0
		case cnt >= 0:
			r = v << uint(cnt)
		case cnt <= -32:
			r = v >> 31
		default:
			r = v >> uint(-cnt)
		}
		m.setNZInt(r, 4)
		m.put(dst, r)
		return nil
	}
}

// extzv pos,size,base,dst: extract a zero-extended bit field. The code
// generators use it for unsigned right shifts.
func extzv(in *Instr) exec {
	ops, err := decodeOps(in, rd(4), rd(4), rdU(4), wr(4))
	p, sz, b, dst := ops[0], ops[1], ops[2], ops[3]
	if err != nil && sz != nil {
		return faultAfter(func(m *Machine) error {
			_, _, err := m.field(p, sz)
			return err
		}, err)
	}
	if err != nil {
		return fail(err)
	}
	return func(m *Machine) error {
		pos, size, err := m.field(p, sz)
		if err != nil {
			return err
		}
		base := m.get(b)
		var r int64
		if size > 0 {
			r = int64(uint32(base) >> uint(pos))
			if size < 32 {
				r &= (1 << uint(size)) - 1
			}
		}
		m.setNZInt(r, 4)
		m.put(dst, r)
		return nil
	}
}

// field reads extzv's position and size operands and checks the field
// lies within a longword.
func (m *Machine) field(p, sz *opnd) (pos, size int64, err error) {
	pos, size = m.get(p), m.get(sz)
	if pos < 0 || size < 0 || size > 32 || pos+size > 32 {
		return 0, 0, fmt.Errorf("extzv field [%d,%d) out of range", pos, pos+size)
	}
	return pos, size, nil
}

func pushl(in *Instr) exec {
	ops, err := decodeOps(in, rd(4))
	if err != nil {
		return fail(err)
	}
	src := ops[0]
	return func(m *Machine) error {
		v := m.get(src)
		m.setNZInt(v, 4)
		m.Push32(uint32(v))
		return nil
	}
}

// mova src,dst: dst receives the address of src; the instruction's data
// size scales an index in the source mode (movab by 1, movaw by 2, moval
// by 4, movaq by 8). The destination is always a longword.
func mova(size int) decoder {
	return func(in *Instr) exec {
		ops, err := decodeOps(in, spec{use: address, size: size}, wr(4))
		if err != nil {
			return fail(err)
		}
		src, dst := ops[0], ops[1]
		return func(m *Machine) error {
			v := int64(int32(m.at(src).addr))
			m.setNZInt(v, 4)
			m.put(dst, v)
			return nil
		}
	}
}

// jumpIf transfers control to t when taken.
func (m *Machine) jumpIf(taken bool, t int) error {
	if taken {
		m.Next = t
	}
	return nil
}

// target decodes a code-transfer operand to its instruction index.
func target(o *Operand) (int, error) {
	if o.Mode != MLabel && o.Mode != MAbs {
		return 0, fmt.Errorf("bad branch target %s", o)
	}
	if o.IsCode {
		return o.Code, nil
	}
	return 0, fmt.Errorf("undefined code label %q", o.Sym)
}

// jump is the exec of jbr to target t.
func jump(t int) exec {
	return func(m *Machine) error {
		m.Next = t
		return nil
	}
}

// branch decodes a one-operand jump whose exec for target t taken makes.
func branch(taken func(t int) exec) decoder {
	return func(in *Instr) exec {
		if err := in.WantOps(1); err != nil {
			return fail(err)
		}
		t, err := target(&in.Ops[0])
		if err != nil {
			return fail(err)
		}
		return taken(t)
	}
}

// aob implements the add-one-and-branch loop instructions
// `aobxxx limit,index,target`: the index is incremented by one, the
// condition codes are set from the (wrapped) sum, and control transfers
// while the signed comparison against the limit still holds — aoblss
// branches on index < limit, aobleq on index <= limit.
func aob(cont func(index, limit int64) bool) decoder {
	return func(in *Instr) exec {
		if err := in.WantOps(3); err != nil {
			return fail(err)
		}
		ops, err := decodeEach(in.Ops, rd(4), md(4))
		if err != nil {
			return fail(err)
		}
		t, err := target(&in.Ops[2])
		if err != nil {
			return fail(err)
		}
		lim, idx := ops[0], ops[1]
		return func(m *Machine) error {
			limit := m.get(lim)
			l := m.at(idx)
			index := simcore.Extend(uint64(m.load(idx, l)+1), 4, false)
			m.setNZInt(index, 4)
			m.store(idx, l, index)
			if cont(index, limit) {
				m.Next = t
			}
			return nil
		}
	}
}

// builtins are library routines known not to modify any register except the
// result (§5.3.2): unsigned division and remainder. A call binds one only
// when the program defines no code of that name, so a program's own
// function of the same name is called instead, as a linker would resolve
// it.
var builtins = map[string]func(a, b uint32) (uint32, error){
	"_udiv": func(a, b uint32) (uint32, error) {
		if b == 0 {
			return 0, fmt.Errorf("unsigned divide by zero")
		}
		return a / b, nil
	},
	"_urem": func(a, b uint32) (uint32, error) {
		if b == 0 {
			return 0, fmt.Errorf("unsigned modulus by zero")
		}
		return a % b, nil
	},
}

// calls $n,f: the simplified frame protocol described in DESIGN.md (see
// simcore's PushFrame); the unsigned division builtins, when the program
// does not define f itself, return at once.
func calls(in *Instr) exec {
	if err := in.WantOps(2); err != nil {
		return fail(err)
	}
	if in.Ops[0].Mode != MImm {
		return fail(fmt.Errorf("calls needs an immediate argument count"))
	}
	n := uint32(in.Ops[0].Imm)
	sym := in.Ops[1].Sym
	if f, ok := builtins[sym]; ok && !in.Ops[1].IsCode {
		return func(m *Machine) error {
			a := uint32(m.Mem.Load(m.R[simcore.SP], 4))
			b := uint32(m.Mem.Load(m.R[simcore.SP]+4, 4))
			r, err := f(a, b)
			if err != nil {
				return err
			}
			m.R[0] = r
			m.R[simcore.SP] += 4 * n
			return nil
		}
	}
	entry, err := target(&in.Ops[1])
	if err != nil {
		return fail(err)
	}
	return func(m *Machine) error {
		m.PushFrame(n, sym, entry)
		return nil
	}
}

func ret(in *Instr) exec {
	if err := in.WantOps(0); err != nil {
		return fail(err)
	}
	return func(m *Machine) error { return m.PopFrame() }
}
