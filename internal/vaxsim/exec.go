package vaxsim

import (
	"fmt"

	"ggcg/internal/simcore"
)

// handler executes one instruction. The step loop advances control to
// m.Next, which control-transfer handlers overwrite.
type handler = func(m *Machine, in *Instr) error

// execTable maps mnemonics to handlers; it also defines the accepted
// instruction subset for the assembler.
var execTable = map[string]handler{}

var intSuffix = map[string]int{"b": 1, "w": 2, "l": 4}
var fltSuffix = map[string]int{"f": 4, "d": 8}

func init() {
	for s, size := range intSuffix {
		size := size
		execTable["mov"+s] = movInt(size)
		execTable["clr"+s] = clrInt(size)
		execTable["tst"+s] = tstInt(size)
		execTable["cmp"+s] = cmpInt(size)
		execTable["inc"+s] = incInt(size, 1)
		execTable["dec"+s] = incInt(size, -1)
		execTable["mneg"+s] = unaryInt(size, func(v int64) int64 { return -v })
		execTable["mcom"+s] = unaryInt(size, func(v int64) int64 { return ^v })
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
			execTable[bin.name+s+"2"] = binInt2(size, bin.f)
			execTable[bin.name+s+"3"] = binInt3(size, bin.f)
		}
	}
	for s, size := range fltSuffix {
		size := size
		execTable["mov"+s] = movFloat(size)
		execTable["clr"+s] = clrFloat(size)
		execTable["tst"+s] = tstFloat(size)
		execTable["cmp"+s] = cmpFloat(size)
		execTable["mneg"+s] = unaryFloat(size, func(v float64) float64 { return -v })
		for _, bin := range []struct {
			name string
			f    func(a, b float64) (float64, error)
		}{
			{"add", func(a, b float64) (float64, error) { return b + a, nil }},
			{"sub", func(a, b float64) (float64, error) { return b - a, nil }},
			{"mul", func(a, b float64) (float64, error) { return b * a, nil }},
			{"div", divFloat},
		} {
			execTable[bin.name+s+"2"] = binFloat2(size, bin.f)
			execTable[bin.name+s+"3"] = binFloat3(size, bin.f)
		}
	}
	// Unsigned widening moves.
	execTable["movzbw"] = movz(1, 2)
	execTable["movzbl"] = movz(1, 4)
	execTable["movzwl"] = movz(2, 4)
	// Conversions, including the cross products the grammar needs (§6.4).
	suffixes := map[string]int{"b": 1, "w": 2, "l": 4, "f": 4, "d": 8}
	isFloat := map[string]bool{"f": true, "d": true}
	for from, fs := range suffixes {
		for to, ts := range suffixes {
			if from == to {
				continue
			}
			execTable["cvt"+from+to] = cvt(fs, ts, isFloat[from], isFloat[to])
		}
	}
	execTable["ashl"] = ashl
	execTable["extzv"] = extzv
	execTable["pushl"] = pushl
	execTable["movab"] = mova(1)
	execTable["movaw"] = mova(2)
	execTable["moval"] = mova(4)
	execTable["movaq"] = mova(8)
	execTable["jbr"] = jbr
	for name, cond := range branchConds {
		execTable[name] = branch(cond)
	}
	execTable["calls"] = calls
	execTable["ret"] = ret
	execTable["aoblss"] = aob(func(index, limit int64) bool { return index < limit })
	execTable["aobleq"] = aob(func(index, limit int64) bool { return index <= limit })
}

func (m *Machine) setNZInt(v int64, size int) {
	t := simcore.Extend(uint64(v), size, false)
	m.N, m.Z, m.V, m.C = t < 0, t == 0, false, false
}

func (m *Machine) setNZFloat(v float64) {
	m.N, m.Z, m.V, m.C = v < 0, v == 0, false, false
}

func movInt(size int) handler {
	return func(m *Machine, in *Instr) error {
		if err := in.WantOps(2); err != nil {
			return err
		}
		src, err := m.resolve(&in.Ops[0], size)
		if err != nil {
			return err
		}
		v, err := m.readInt(src, size, false)
		if err != nil {
			return err
		}
		dst, err := m.resolve(&in.Ops[1], size)
		if err != nil {
			return err
		}
		m.setNZInt(v, size)
		return m.writeInt(dst, size, v)
	}
}

func movFloat(size int) handler {
	return func(m *Machine, in *Instr) error {
		if err := in.WantOps(2); err != nil {
			return err
		}
		src, err := m.resolve(&in.Ops[0], size)
		if err != nil {
			return err
		}
		v, err := m.readFloat(src, size)
		if err != nil {
			return err
		}
		dst, err := m.resolve(&in.Ops[1], size)
		if err != nil {
			return err
		}
		m.setNZFloat(v)
		return m.writeFloat(dst, size, v)
	}
}

func movz(fromSize, toSize int) handler {
	return func(m *Machine, in *Instr) error {
		if err := in.WantOps(2); err != nil {
			return err
		}
		src, err := m.resolve(&in.Ops[0], fromSize)
		if err != nil {
			return err
		}
		v, err := m.readInt(src, fromSize, true)
		if err != nil {
			return err
		}
		dst, err := m.resolve(&in.Ops[1], toSize)
		if err != nil {
			return err
		}
		m.setNZInt(v, toSize)
		return m.writeInt(dst, toSize, v)
	}
}

func cvt(fromSize, toSize int, fromF, toF bool) handler {
	return func(m *Machine, in *Instr) error {
		if err := in.WantOps(2); err != nil {
			return err
		}
		src, err := m.resolve(&in.Ops[0], fromSize)
		if err != nil {
			return err
		}
		dst, err := m.resolve(&in.Ops[1], toSize)
		if err != nil {
			return err
		}
		switch {
		case fromF && toF:
			v, err := m.readFloat(src, fromSize)
			if err != nil {
				return err
			}
			m.setNZFloat(v)
			return m.writeFloat(dst, toSize, v)
		case fromF && !toF:
			v, err := m.readFloat(src, fromSize)
			if err != nil {
				return err
			}
			iv := int64(v) // CVTfL truncates toward zero
			m.setNZInt(iv, toSize)
			return m.writeInt(dst, toSize, iv)
		case !fromF && toF:
			v, err := m.readInt(src, fromSize, false)
			if err != nil {
				return err
			}
			fv := float64(v)
			m.setNZFloat(fv)
			return m.writeFloat(dst, toSize, fv)
		default:
			v, err := m.readInt(src, fromSize, false)
			if err != nil {
				return err
			}
			m.setNZInt(v, toSize)
			return m.writeInt(dst, toSize, v)
		}
	}
}

func clrInt(size int) handler {
	return func(m *Machine, in *Instr) error {
		if err := in.WantOps(1); err != nil {
			return err
		}
		dst, err := m.resolve(&in.Ops[0], size)
		if err != nil {
			return err
		}
		m.setNZInt(0, size)
		return m.writeInt(dst, size, 0)
	}
}

func clrFloat(size int) handler {
	return func(m *Machine, in *Instr) error {
		if err := in.WantOps(1); err != nil {
			return err
		}
		dst, err := m.resolve(&in.Ops[0], size)
		if err != nil {
			return err
		}
		m.setNZFloat(0)
		return m.writeFloat(dst, size, 0)
	}
}

func tstInt(size int) handler {
	return func(m *Machine, in *Instr) error {
		if err := in.WantOps(1); err != nil {
			return err
		}
		src, err := m.resolve(&in.Ops[0], size)
		if err != nil {
			return err
		}
		v, err := m.readInt(src, size, false)
		if err != nil {
			return err
		}
		m.setNZInt(v, size)
		return nil
	}
}

func tstFloat(size int) handler {
	return func(m *Machine, in *Instr) error {
		if err := in.WantOps(1); err != nil {
			return err
		}
		src, err := m.resolve(&in.Ops[0], size)
		if err != nil {
			return err
		}
		v, err := m.readFloat(src, size)
		if err != nil {
			return err
		}
		m.setNZFloat(v)
		return nil
	}
}

func cmpInt(size int) handler {
	return func(m *Machine, in *Instr) error {
		if err := in.WantOps(2); err != nil {
			return err
		}
		la, err := m.resolve(&in.Ops[0], size)
		if err != nil {
			return err
		}
		a, err := m.readInt(la, size, false)
		if err != nil {
			return err
		}
		lb, err := m.resolve(&in.Ops[1], size)
		if err != nil {
			return err
		}
		b, err := m.readInt(lb, size, false)
		if err != nil {
			return err
		}
		au, bu := uint64(a)&sizeMask(size), uint64(b)&sizeMask(size)
		m.N, m.Z, m.V, m.C = a < b, a == b, false, au < bu
		return nil
	}
}

func cmpFloat(size int) handler {
	return func(m *Machine, in *Instr) error {
		if err := in.WantOps(2); err != nil {
			return err
		}
		la, err := m.resolve(&in.Ops[0], size)
		if err != nil {
			return err
		}
		a, err := m.readFloat(la, size)
		if err != nil {
			return err
		}
		lb, err := m.resolve(&in.Ops[1], size)
		if err != nil {
			return err
		}
		b, err := m.readFloat(lb, size)
		if err != nil {
			return err
		}
		m.N, m.Z, m.V, m.C = a < b, a == b, false, a < b
		return nil
	}
}

func sizeMask(size int) uint64 {
	return 1<<(8*size) - 1
}

func incInt(size int, delta int64) handler {
	return func(m *Machine, in *Instr) error {
		if err := in.WantOps(1); err != nil {
			return err
		}
		dst, err := m.resolve(&in.Ops[0], size)
		if err != nil {
			return err
		}
		v, err := m.readInt(dst, size, false)
		if err != nil {
			return err
		}
		v += delta
		m.setNZInt(v, size)
		return m.writeInt(dst, size, v)
	}
}

func unaryInt(size int, f func(int64) int64) handler {
	return func(m *Machine, in *Instr) error {
		if err := in.WantOps(2); err != nil {
			return err
		}
		src, err := m.resolve(&in.Ops[0], size)
		if err != nil {
			return err
		}
		v, err := m.readInt(src, size, false)
		if err != nil {
			return err
		}
		dst, err := m.resolve(&in.Ops[1], size)
		if err != nil {
			return err
		}
		r := f(v)
		m.setNZInt(r, size)
		return m.writeInt(dst, size, r)
	}
}

func unaryFloat(size int, f func(float64) float64) handler {
	return func(m *Machine, in *Instr) error {
		if err := in.WantOps(2); err != nil {
			return err
		}
		src, err := m.resolve(&in.Ops[0], size)
		if err != nil {
			return err
		}
		v, err := m.readFloat(src, size)
		if err != nil {
			return err
		}
		dst, err := m.resolve(&in.Ops[1], size)
		if err != nil {
			return err
		}
		r := f(v)
		m.setNZFloat(r)
		return m.writeFloat(dst, size, r)
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
func binInt2(size int, f func(a, b int64) (int64, error)) handler {
	return func(m *Machine, in *Instr) error {
		if err := in.WantOps(2); err != nil {
			return err
		}
		ls, err := m.resolve(&in.Ops[0], size)
		if err != nil {
			return err
		}
		a, err := m.readInt(ls, size, false)
		if err != nil {
			return err
		}
		ld, err := m.resolve(&in.Ops[1], size)
		if err != nil {
			return err
		}
		b, err := m.readInt(ld, size, false)
		if err != nil {
			return err
		}
		r, err := f(a, b)
		if err != nil {
			return err
		}
		m.setNZInt(r, size)
		return m.writeInt(ld, size, r)
	}
}

// binInt3 implements op3 a,b,dst: dst = b OP a (the VAX operand order, in
// which subl3 computes minuend-from-the-second-operand).
func binInt3(size int, f func(a, b int64) (int64, error)) handler {
	return func(m *Machine, in *Instr) error {
		if err := in.WantOps(3); err != nil {
			return err
		}
		la, err := m.resolve(&in.Ops[0], size)
		if err != nil {
			return err
		}
		a, err := m.readInt(la, size, false)
		if err != nil {
			return err
		}
		lb, err := m.resolve(&in.Ops[1], size)
		if err != nil {
			return err
		}
		b, err := m.readInt(lb, size, false)
		if err != nil {
			return err
		}
		r, err := f(a, b)
		if err != nil {
			return err
		}
		ld, err := m.resolve(&in.Ops[2], size)
		if err != nil {
			return err
		}
		m.setNZInt(r, size)
		return m.writeInt(ld, size, r)
	}
}

func binFloat2(size int, f func(a, b float64) (float64, error)) handler {
	return func(m *Machine, in *Instr) error {
		if err := in.WantOps(2); err != nil {
			return err
		}
		ls, err := m.resolve(&in.Ops[0], size)
		if err != nil {
			return err
		}
		a, err := m.readFloat(ls, size)
		if err != nil {
			return err
		}
		ld, err := m.resolve(&in.Ops[1], size)
		if err != nil {
			return err
		}
		b, err := m.readFloat(ld, size)
		if err != nil {
			return err
		}
		r, err := f(a, b)
		if err != nil {
			return err
		}
		m.setNZFloat(r)
		return m.writeFloat(ld, size, r)
	}
}

func binFloat3(size int, f func(a, b float64) (float64, error)) handler {
	return func(m *Machine, in *Instr) error {
		if err := in.WantOps(3); err != nil {
			return err
		}
		la, err := m.resolve(&in.Ops[0], size)
		if err != nil {
			return err
		}
		a, err := m.readFloat(la, size)
		if err != nil {
			return err
		}
		lb, err := m.resolve(&in.Ops[1], size)
		if err != nil {
			return err
		}
		b, err := m.readFloat(lb, size)
		if err != nil {
			return err
		}
		r, err := f(a, b)
		if err != nil {
			return err
		}
		ld, err := m.resolve(&in.Ops[2], size)
		if err != nil {
			return err
		}
		m.setNZFloat(r)
		return m.writeFloat(ld, size, r)
	}
}

// ashl cnt,src,dst: arithmetic shift of a long; positive counts shift left,
// negative right.
func ashl(m *Machine, in *Instr) error {
	if err := in.WantOps(3); err != nil {
		return err
	}
	lc, err := m.resolve(&in.Ops[0], 1)
	if err != nil {
		return err
	}
	cnt, err := m.readInt(lc, 1, false)
	if err != nil {
		return err
	}
	ls, err := m.resolve(&in.Ops[1], 4)
	if err != nil {
		return err
	}
	v, err := m.readInt(ls, 4, false)
	if err != nil {
		return err
	}
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
	ld, err := m.resolve(&in.Ops[2], 4)
	if err != nil {
		return err
	}
	m.setNZInt(r, 4)
	return m.writeInt(ld, 4, r)
}

// extzv pos,size,base,dst: extract a zero-extended bit field. The code
// generators use it for unsigned right shifts.
func extzv(m *Machine, in *Instr) error {
	if err := in.WantOps(4); err != nil {
		return err
	}
	lp, err := m.resolve(&in.Ops[0], 4)
	if err != nil {
		return err
	}
	pos, err := m.readInt(lp, 4, false)
	if err != nil {
		return err
	}
	lsz, err := m.resolve(&in.Ops[1], 4)
	if err != nil {
		return err
	}
	size, err := m.readInt(lsz, 4, false)
	if err != nil {
		return err
	}
	if pos < 0 || size < 0 || size > 32 || pos+size > 32 {
		return fmt.Errorf("extzv field [%d,%d) out of range", pos, pos+size)
	}
	lb, err := m.resolve(&in.Ops[2], 4)
	if err != nil {
		return err
	}
	base, err := m.readInt(lb, 4, true)
	if err != nil {
		return err
	}
	var r int64
	if size > 0 {
		r = int64(uint32(base) >> uint(pos))
		if size < 32 {
			r &= (1 << uint(size)) - 1
		}
	}
	ld, err := m.resolve(&in.Ops[3], 4)
	if err != nil {
		return err
	}
	m.setNZInt(r, 4)
	return m.writeInt(ld, 4, r)
}

func pushl(m *Machine, in *Instr) error {
	if err := in.WantOps(1); err != nil {
		return err
	}
	src, err := m.resolve(&in.Ops[0], 4)
	if err != nil {
		return err
	}
	v, err := m.readInt(src, 4, false)
	if err != nil {
		return err
	}
	m.setNZInt(v, 4)
	m.Push32(uint32(v))
	return nil
}

// mova src,dst: dst receives the address of src; the instruction's data
// size scales an index in the source mode (movab by 1, movaw by 2, moval
// by 4, movaq by 8). The destination is always a longword.
func mova(size int) handler {
	return func(m *Machine, in *Instr) error {
		if err := in.WantOps(2); err != nil {
			return err
		}
		src, err := m.resolve(&in.Ops[0], size)
		if err != nil {
			return err
		}
		if src.kind != locMem {
			return fmt.Errorf("mova source has no address")
		}
		dst, err := m.resolve(&in.Ops[1], 4)
		if err != nil {
			return err
		}
		v := int64(int32(src.addr))
		m.setNZInt(v, 4)
		return m.writeInt(dst, 4, v)
	}
}

// branchConds are the PCC-style jump pseudo-instructions and their
// condition code tests. Signed tests follow a cmp or arithmetic result;
// the unsigned forms test the carry (borrow) flag.
var branchConds = map[string]func(m *Machine) bool{
	"jeql":  func(m *Machine) bool { return m.Z },
	"jneq":  func(m *Machine) bool { return !m.Z },
	"jlss":  func(m *Machine) bool { return m.N },
	"jleq":  func(m *Machine) bool { return m.N || m.Z },
	"jgtr":  func(m *Machine) bool { return !m.N && !m.Z },
	"jgeq":  func(m *Machine) bool { return !m.N },
	"jlssu": func(m *Machine) bool { return m.C },
	"jlequ": func(m *Machine) bool { return m.C || m.Z },
	"jgtru": func(m *Machine) bool { return !m.C && !m.Z },
	"jgequ": func(m *Machine) bool { return !m.C },
}

func target(m *Machine, o *Operand) (int, error) {
	if o.Mode != MLabel && o.Mode != MAbs {
		return 0, fmt.Errorf("bad branch target %s", o)
	}
	if idx, ok := m.Prog.Labels[o.Sym]; ok {
		return idx, nil
	}
	return 0, fmt.Errorf("undefined code label %q", o.Sym)
}

func jbr(m *Machine, in *Instr) error {
	if err := in.WantOps(1); err != nil {
		return err
	}
	t, err := target(m, &in.Ops[0])
	if err != nil {
		return err
	}
	m.Next = t
	return nil
}

func branch(cond func(*Machine) bool) handler {
	return func(m *Machine, in *Instr) error {
		if err := in.WantOps(1); err != nil {
			return err
		}
		t, err := target(m, &in.Ops[0])
		if err != nil {
			return err
		}
		if cond(m) {
			m.Next = t
		}
		return nil
	}
}

// aob implements the add-one-and-branch loop instructions
// `aobxxx limit,index,target`: the index is incremented by one, the
// condition codes are set from the (wrapped) sum, and control transfers
// while the signed comparison against the limit still holds — aoblss
// branches on index < limit, aobleq on index <= limit.
func aob(cont func(index, limit int64) bool) handler {
	return func(m *Machine, in *Instr) error {
		if err := in.WantOps(3); err != nil {
			return err
		}
		ll, err := m.resolve(&in.Ops[0], 4)
		if err != nil {
			return err
		}
		limit, err := m.readInt(ll, 4, false)
		if err != nil {
			return err
		}
		li, err := m.resolve(&in.Ops[1], 4)
		if err != nil {
			return err
		}
		index, err := m.readInt(li, 4, false)
		if err != nil {
			return err
		}
		index = simcore.Extend(uint64(index+1), 4, false)
		m.setNZInt(index, 4)
		if err := m.writeInt(li, 4, index); err != nil {
			return err
		}
		t, err := target(m, &in.Ops[2])
		if err != nil {
			return err
		}
		if cont(index, limit) {
			m.Next = t
		}
		return nil
	}
}

// builtins are library routines known not to modify any register except the
// result (§5.3.2): unsigned division and remainder.
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
// simcore's PushFrame); the unsigned division builtins return at once.
func calls(m *Machine, in *Instr) error {
	if err := in.WantOps(2); err != nil {
		return err
	}
	if in.Ops[0].Mode != MImm {
		return fmt.Errorf("calls needs an immediate argument count")
	}
	n := uint32(in.Ops[0].Imm)
	sym := in.Ops[1].Sym
	if f, ok := builtins[sym]; ok {
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
	entry, err := target(m, &in.Ops[1])
	if err != nil {
		return err
	}
	m.PushFrame(n, sym, entry)
	return nil
}

func ret(m *Machine, in *Instr) error {
	if err := in.WantOps(0); err != nil {
		return err
	}
	return m.PopFrame()
}
