package riscsim

import (
	"errors"
	"fmt"
	"math"

	"ggcg/internal/simcore"
)

// exec is a decoded instruction. The step loop advances control to
// m.Next, which control transfers overwrite.
type exec = simcore.Exec[*Machine]

// decoder checks an instruction's operands and returns its exec with
// them bound.
type decoder = func(in *Instr) exec

// table is the instruction table (simcore.ISA.Ops): each mnemonic's
// decoder, class and data size. The assembler also consults it to reject
// unknown instructions at parse time.
var table = make(map[string]simcore.Op[Operand, *Machine], 160) // room for every entry

// def enters mn in the table.
func def(mn string, cls simcore.Class, size int, d decoder) {
	table[mn] = simcore.Op[Operand, *Machine]{Info: simcore.Info{Class: cls, Size: size}, Decode: d}
}

var fail = simcore.Fail[*Machine]

// sizes maps the integer size suffixes to byte widths.
var sizes = map[byte]int{'b': 1, 'w': 2, 'l': 4}

// fsizes maps the floating suffixes to byte widths.
var fsizes = map[byte]int{'f': 4, 'd': 8}

func init() {
	// Data movement.
	def("li", 0, 0, li)
	def("lfi", 0, 0, lfi)
	def("la", 0, 0, la)
	def("mv", simcore.Move, 0, mv)
	for s, n := range sizes {
		def("ld"+string(s), 0, n, loadInt(n))
		def("st"+string(s), 0, n, storeInt(n))
	}
	def("ldf", 0, 4, ldf)
	def("ldd", 0, 8, ldd)
	def("stf", 0, 4, stf)
	def("std", 0, 8, std)

	// Integer arithmetic: three-register, destination first. Producers
	// write per-size extended results; consumers re-extend, so only the
	// low bits carry meaning between instructions.
	for s, n := range sizes {
		def("add"+string(s), 0, n, binSigned(n, func(a, b int64) (int64, error) { return a + b, nil }))
		def("sub"+string(s), 0, n, binSigned(n, func(a, b int64) (int64, error) { return a - b, nil }))
		def("mul"+string(s), 0, n, binSigned(n, func(a, b int64) (int64, error) { return a * b, nil }))
		def("div"+string(s), 0, n, binSigned(n, func(a, b int64) (int64, error) {
			if b == 0 {
				return 0, fmt.Errorf("divide by zero")
			}
			return a / b, nil
		}))
		def("rem"+string(s), 0, n, binSigned(n, func(a, b int64) (int64, error) {
			if b == 0 {
				return 0, fmt.Errorf("modulus by zero")
			}
			return a % b, nil
		}))
		def("divu"+string(s), 0, n, binUnsigned(n, func(a, b int64) (int64, error) {
			if b == 0 {
				return 0, fmt.Errorf("divide by zero")
			}
			return a / b, nil
		}))
		def("remu"+string(s), 0, n, binUnsigned(n, func(a, b int64) (int64, error) {
			if b == 0 {
				return 0, fmt.Errorf("modulus by zero")
			}
			return a % b, nil
		}))
		def("and"+string(s), 0, n, binSigned(n, func(a, b int64) (int64, error) { return a & b, nil }))
		def("or"+string(s), 0, n, binSigned(n, func(a, b int64) (int64, error) { return a | b, nil }))
		def("xor"+string(s), 0, n, binSigned(n, func(a, b int64) (int64, error) { return a ^ b, nil }))
		def("sll"+string(s), 0, n, binSigned(n, func(a, b int64) (int64, error) { return shiftLeft(a, b), nil }))
		def("sllu"+string(s), 0, n, binUnsigned(n, func(a, b int64) (int64, error) { return shiftLeft(a, b), nil }))
		def("sra"+string(s), 0, n, binSigned(n, func(a, b int64) (int64, error) { return shiftLeft(a, -b), nil }))
		def("srl"+string(s), 0, n, binUnsigned(n, func(a, b int64) (int64, error) {
			if b >= 32 || b < 0 {
				return 0, nil
			}
			return int64(uint32(a) >> uint(b)), nil
		}))
		def("neg"+string(s), 0, n, unSigned(n, func(a int64) int64 { return -a }))
		def("not"+string(s), 0, n, unSigned(n, func(a int64) int64 { return ^a }))
	}
	def("addi", 0, 0, addi)

	// Floating arithmetic; f-forms round through float32.
	for s, n := range fsizes {
		f := s == 'f'
		def("add"+string(s), 0, n, binFloat(f, func(a, b float64) (float64, error) { return a + b, nil }))
		def("sub"+string(s), 0, n, binFloat(f, func(a, b float64) (float64, error) { return a - b, nil }))
		def("mul"+string(s), 0, n, binFloat(f, func(a, b float64) (float64, error) { return a * b, nil }))
		def("div"+string(s), 0, n, binFloat(f, func(a, b float64) (float64, error) {
			if b == 0 {
				return 0, fmt.Errorf("floating divide by zero")
			}
			return a / b, nil
		}))
		def("neg"+string(s), 0, n, unFloat(func(a float64) float64 { return -a }))
	}

	// Conversions. Integer pairs read the source size signed (or, in the
	// u-forms, unsigned) and write per the destination size.
	intSuf := []byte{'b', 'w', 'l'}
	for _, from := range intSuf {
		for _, to := range intSuf {
			if from == to {
				continue
			}
			def("cvt"+string(from)+string(to), 0, sizes[to], cvtInt(sizes[from], sizes[to], false))
			if sizes[from] < sizes[to] {
				def("cvtu"+string(from)+string(to), 0, sizes[to], cvtInt(sizes[from], sizes[to], true))
			}
		}
		for to, n := range fsizes {
			def("cvt"+string(from)+string(to), 0, n, cvtIntFloat(sizes[from], to == 'f', false))
			def("cvtu"+string(from)+string(to), 0, n, cvtIntFloat(sizes[from], to == 'f', true))
		}
		def("cvtf"+string(from), 0, sizes[from], cvtFloatInt(sizes[from]))
		def("cvtd"+string(from), 0, sizes[from], cvtFloatInt(sizes[from]))
	}
	def("cvtfd", 0, 8, cvtFF(false))
	def("cvtdf", 0, 4, cvtFF(true))

	// Compare-and-branch, each with the branch taken exactly when it is
	// not (the floating pairs assume no NaN, which the machine never
	// produces). eq/ne need no unsigned variant: equality of the low bits
	// is equality under either extension.
	for _, c := range []struct {
		cond, inverse string
		cmp           func(a, b int64) bool
		fcmp          func(a, b float64) bool
	}{
		{"eq", "ne", func(a, b int64) bool { return a == b }, func(a, b float64) bool { return a == b }},
		{"ne", "eq", func(a, b int64) bool { return a != b }, func(a, b float64) bool { return a != b }},
		{"lt", "ge", func(a, b int64) bool { return a < b }, func(a, b float64) bool { return a < b }},
		{"le", "gt", func(a, b int64) bool { return a <= b }, func(a, b float64) bool { return a <= b }},
		{"gt", "le", func(a, b int64) bool { return a > b }, func(a, b float64) bool { return a > b }},
		{"ge", "lt", func(a, b int64) bool { return a >= b }, func(a, b float64) bool { return a >= b }},
	} {
		for s, n := range sizes {
			branch("b"+c.cond+string(s), "b"+c.inverse+string(s), n, branchInt(n, false, c.cmp))
			if c.cond != "eq" && c.cond != "ne" {
				branch("b"+c.cond+"u"+string(s), "b"+c.inverse+"u"+string(s), n, branchInt(n, true, c.cmp))
			}
		}
		for s, n := range fsizes {
			branch("b"+c.cond+string(s), "b"+c.inverse+string(s), n, branchFloat(c.fcmp))
		}
	}
	def("jmp", simcore.Jump|simcore.Transfer, 0, jmp)

	// Calls and the stack.
	def("push", 0, 0, push)
	def("pushd", 0, 8, pushd)
	def("call", simcore.Transfer, 0, call)
	def("ret", simcore.Transfer, 0, ret)
	def("enter", 0, 0, enter)
}

// branch enters a conditional branch and its inverse in the table.
func branch(mn, inverse string, size int, d decoder) {
	table[mn] = simcore.Op[Operand, *Machine]{
		Info:   simcore.Info{Class: simcore.CondBranch | simcore.Transfer, Inverse: inverse, Size: size},
		Decode: d,
	}
}

// shiftLeft mirrors the reference interpreter's shift semantics (which in
// turn model the VAX ashl): negative counts shift right, with the count
// clamped at ±32.
func shiftLeft(v, cnt int64) int64 {
	if cnt >= 32 {
		return 0
	}
	if cnt <= -32 {
		return v >> 31
	}
	if cnt < 0 {
		return v >> uint(-cnt)
	}
	return v << uint(cnt)
}

// target decodes a code-transfer operand to an instruction index.
func target(o *Operand) (int, error) {
	if o.Mode != MLabel && o.Mode != MAbs {
		return 0, fmt.Errorf("bad code target %s", o)
	}
	if !o.IsCode {
		return 0, fmt.Errorf("undefined code target %q", o.Sym)
	}
	return o.Code, nil
}

// regs checks that in has n operands, all registers, and returns their
// numbers.
func regs(in *Instr, n int) ([3]int, error) {
	if err := in.WantOps(n); err != nil {
		return [3]int{}, err
	}
	return regsOf(in.Ops)
}

// regsOf checks that the operands are registers and returns their
// numbers.
func regsOf(ops []Operand) (r [3]int, err error) {
	for i := range ops {
		if r[i], err = decodeReg(&ops[i]); err != nil {
			return r, err
		}
	}
	return r, nil
}

// regMem decodes `op rN,mem`.
func regMem(in *Instr) (int, mem, error) {
	if err := in.WantOps(2); err != nil {
		return 0, mem{}, err
	}
	r, err := decodeReg(&in.Ops[0])
	if err != nil {
		return 0, mem{}, err
	}
	a, err := decodeMem(&in.Ops[1])
	return r, a, err
}

// regImm decodes `op rN,$imm`, the immediate integer unless float, and
// failing with what when it is not an immediate of that kind.
func regImm(in *Instr, float bool, what string) (int, *Operand, error) {
	if err := in.WantOps(2); err != nil {
		return 0, nil, err
	}
	r, err := decodeReg(&in.Ops[0])
	if err != nil {
		return 0, nil, err
	}
	if o := &in.Ops[1]; o.Mode == MImm && (float || !o.IsF) {
		return r, o, nil
	}
	return 0, nil, errors.New(what)
}

func li(in *Instr) exec {
	rd, o, err := regImm(in, false, "li needs an integer immediate")
	if err != nil {
		return fail(err)
	}
	v := uint64(o.Imm)
	return func(m *Machine) error {
		m.ModeCounts[MReg]++
		m.ModeCounts[MImm]++
		m.R[rd] = v
		return nil
	}
}

func lfi(in *Instr) exec {
	rd, o, err := regImm(in, true, "lfi needs an immediate")
	if err != nil {
		return fail(err)
	}
	v := float64(o.Imm)
	if o.IsF {
		v = o.FImm
	}
	return func(m *Machine) error {
		m.ModeCounts[MReg]++
		m.ModeCounts[MImm]++
		m.setF(rd, v)
		return nil
	}
}

func la(in *Instr) exec {
	rd, a, err := regMem(in)
	if err != nil {
		return fail(err)
	}
	return func(m *Machine) error {
		m.ModeCounts[MReg]++
		m.setInt(rd, 4, int64(int32(m.at(a))))
		return nil
	}
}

func mv(in *Instr) exec {
	r, err := regs(in, 2)
	if err != nil {
		return fail(err)
	}
	rd, rs := r[0], r[1]
	return func(m *Machine) error {
		m.ModeCounts[MReg] += 2
		m.R[rd] = m.R[rs]
		return nil
	}
}

func loadInt(size int) decoder {
	return func(in *Instr) exec {
		rd, a, err := regMem(in)
		if err != nil {
			return fail(err)
		}
		return func(m *Machine) error {
			m.ModeCounts[MReg]++
			m.setInt(rd, size, simcore.Extend(m.Mem.Load(m.at(a), size), size, false))
			return nil
		}
	}
}

func storeInt(size int) decoder {
	return func(in *Instr) exec {
		rs, a, err := regMem(in)
		if err != nil {
			return fail(err)
		}
		return func(m *Machine) error {
			m.ModeCounts[MReg]++
			m.Mem.Store(m.at(a), size, m.R[rs])
			return nil
		}
	}
}

func ldf(in *Instr) exec {
	rd, a, err := regMem(in)
	if err != nil {
		return fail(err)
	}
	return func(m *Machine) error {
		m.ModeCounts[MReg]++
		m.setF(rd, float64(math.Float32frombits(uint32(m.Mem.Load(m.at(a), 4)))))
		return nil
	}
}

func ldd(in *Instr) exec {
	rd, a, err := regMem(in)
	if err != nil {
		return fail(err)
	}
	return func(m *Machine) error {
		m.ModeCounts[MReg]++
		m.R[rd] = m.Mem.Load(m.at(a), 8)
		return nil
	}
}

func stf(in *Instr) exec {
	rs, a, err := regMem(in)
	if err != nil {
		return fail(err)
	}
	return func(m *Machine) error {
		m.ModeCounts[MReg]++
		m.Mem.Store(m.at(a), 4, uint64(math.Float32bits(float32(m.fval(rs)))))
		return nil
	}
}

func std(in *Instr) exec {
	rs, a, err := regMem(in)
	if err != nil {
		return fail(err)
	}
	return func(m *Machine) error {
		m.ModeCounts[MReg]++
		m.Mem.Store(m.at(a), 8, m.R[rs])
		return nil
	}
}

func addi(in *Instr) exec {
	if err := in.WantOps(3); err != nil {
		return fail(err)
	}
	r, err := regsOf(in.Ops[:2])
	if err != nil {
		return fail(err)
	}
	o := &in.Ops[2]
	if o.Mode != MImm || o.IsF {
		return fail(fmt.Errorf("addi needs an integer immediate"))
	}
	rd, ra, v := r[0], r[1], uint32(o.Imm)
	return func(m *Machine) error {
		m.ModeCounts[MReg] += 2
		m.ModeCounts[MImm]++
		m.setInt(rd, 4, int64(int32(uint32(m.R[ra])+v)))
		return nil
	}
}

func binSigned(size int, f func(a, b int64) (int64, error)) decoder {
	return func(in *Instr) exec {
		r, err := regs(in, 3)
		if err != nil {
			return fail(err)
		}
		rd, ra, rb := r[0], r[1], r[2]
		return func(m *Machine) error {
			m.ModeCounts[MReg] += 3
			v, err := f(m.sx(ra, size), m.sx(rb, size))
			if err != nil {
				return err
			}
			m.setInt(rd, size, v)
			return nil
		}
	}
}

func binUnsigned(size int, f func(a, b int64) (int64, error)) decoder {
	return func(in *Instr) exec {
		r, err := regs(in, 3)
		if err != nil {
			return fail(err)
		}
		rd, ra, rb := r[0], r[1], r[2]
		return func(m *Machine) error {
			m.ModeCounts[MReg] += 3
			v, err := f(m.zx(ra, size), m.zx(rb, size))
			if err != nil {
				return err
			}
			m.setUint(rd, size, v)
			return nil
		}
	}
}

func binFloat(round bool, f func(a, b float64) (float64, error)) decoder {
	return func(in *Instr) exec {
		r, err := regs(in, 3)
		if err != nil {
			return fail(err)
		}
		rd, ra, rb := r[0], r[1], r[2]
		return func(m *Machine) error {
			m.ModeCounts[MReg] += 3
			v, err := f(m.fval(ra), m.fval(rb))
			if err != nil {
				return err
			}
			if round {
				v = float64(float32(v))
			}
			m.setF(rd, v)
			return nil
		}
	}
}

// unary decodes `op rD,rA` into the exec that sets rD to f(rA).
func unary(f func(m *Machine, ra int) uint64) decoder {
	return func(in *Instr) exec {
		r, err := regs(in, 2)
		if err != nil {
			return fail(err)
		}
		rd, ra := r[0], r[1]
		return func(m *Machine) error {
			m.ModeCounts[MReg] += 2
			m.R[rd] = f(m, ra)
			return nil
		}
	}
}

func unSigned(size int, f func(a int64) int64) decoder {
	return unary(func(m *Machine, ra int) uint64 {
		return uint64(simcore.Extend(uint64(f(m.sx(ra, size))), size, false))
	})
}

func unFloat(f func(a float64) float64) decoder {
	return unary(func(m *Machine, ra int) uint64 { return math.Float64bits(f(m.fval(ra))) })
}

func cvtInt(from, to int, unsigned bool) decoder {
	return unary(func(m *Machine, ra int) uint64 {
		return uint64(simcore.Extend(uint64(simcore.Extend(m.R[ra], from, unsigned)), to, false))
	})
}

func cvtIntFloat(from int, toF, unsigned bool) decoder {
	return unary(func(m *Machine, ra int) uint64 {
		v := float64(simcore.Extend(m.R[ra], from, unsigned))
		if toF {
			v = float64(float32(v))
		}
		return math.Float64bits(v)
	})
}

func cvtFloatInt(to int) decoder {
	return unary(func(m *Machine, ra int) uint64 {
		return uint64(simcore.Extend(uint64(int64(m.fval(ra))), to, false)) // truncates toward zero
	})
}

func cvtFF(round bool) decoder {
	return unary(func(m *Machine, ra int) uint64 {
		v := m.fval(ra)
		if round {
			v = float64(float32(v))
		}
		return math.Float64bits(v)
	})
}

// compareBranch decodes `op rA,rB,target`.
func compareBranch(in *Instr) (ra, rb, t int, err error) {
	if err = in.WantOps(3); err != nil {
		return
	}
	if ra, err = decodeReg(&in.Ops[0]); err != nil {
		return
	}
	if rb, err = decodeReg(&in.Ops[1]); err != nil {
		return
	}
	t, err = target(&in.Ops[2])
	return
}

func branchInt(size int, unsigned bool, cmp func(a, b int64) bool) decoder {
	return func(in *Instr) exec {
		ra, rb, t, err := compareBranch(in)
		if err != nil {
			return fail(err)
		}
		return func(m *Machine) error {
			m.ModeCounts[MReg] += 2
			m.ModeCounts[MLabel]++
			var a, b int64
			if unsigned {
				a, b = m.zx(ra, size), m.zx(rb, size)
			} else {
				a, b = m.sx(ra, size), m.sx(rb, size)
			}
			if cmp(a, b) {
				m.Next = t
			}
			return nil
		}
	}
}

func branchFloat(cmp func(a, b float64) bool) decoder {
	return func(in *Instr) exec {
		ra, rb, t, err := compareBranch(in)
		if err != nil {
			return fail(err)
		}
		return func(m *Machine) error {
			m.ModeCounts[MReg] += 2
			m.ModeCounts[MLabel]++
			if cmp(m.fval(ra), m.fval(rb)) {
				m.Next = t
			}
			return nil
		}
	}
}

func jmp(in *Instr) exec {
	if err := in.WantOps(1); err != nil {
		return fail(err)
	}
	t, err := target(&in.Ops[0])
	if err != nil {
		return fail(err)
	}
	return func(m *Machine) error {
		m.ModeCounts[MLabel]++
		m.Next = t
		return nil
	}
}

func push(in *Instr) exec {
	if err := in.WantOps(1); err != nil {
		return fail(err)
	}
	o := &in.Ops[0]
	if o.Mode == MImm {
		if o.IsF {
			return fail(fmt.Errorf("push needs an integer operand"))
		}
		v := uint32(o.Imm)
		return func(m *Machine) error {
			m.ModeCounts[MImm]++
			m.Push32(v)
			return nil
		}
	}
	rs, err := decodeReg(o)
	if err != nil {
		return fail(err)
	}
	return func(m *Machine) error {
		m.ModeCounts[MReg]++
		m.Push32(uint32(m.R[rs]))
		return nil
	}
}

// pushd pushes an 8-byte floating value as two argument words, low word
// at the lower address, matching the reference interpreter's argument
// marshalling for doubles.
func pushd(in *Instr) exec {
	if err := in.WantOps(1); err != nil {
		return fail(err)
	}
	o := &in.Ops[0]
	if o.Mode == MImm {
		v := float64(o.Imm)
		if o.IsF {
			v = o.FImm
		}
		bits := math.Float64bits(v)
		return func(m *Machine) error {
			m.ModeCounts[MImm]++
			m.push64(bits)
			return nil
		}
	}
	rs, err := decodeReg(o)
	if err != nil {
		return fail(err)
	}
	return func(m *Machine) error {
		m.ModeCounts[MReg]++
		m.push64(m.R[rs])
		return nil
	}
}

func (m *Machine) push64(bits uint64) {
	m.R[simcore.SP] = uint64(m.addr(simcore.SP) - 8)
	m.Mem.Store(m.addr(simcore.SP), 8, bits)
}

// call $n,_sym transfers to a function, building the same stack frame
// vaxsim's calls does: argument count, saved ap, fp and return pc, with
// r6..r11 preserved across the call.
func call(in *Instr) exec {
	if err := in.WantOps(2); err != nil {
		return fail(err)
	}
	if in.Ops[0].Mode != MImm {
		return fail(fmt.Errorf("call needs an immediate argument count"))
	}
	n := uint32(in.Ops[0].Imm)
	entry, err := target(&in.Ops[1])
	if err != nil {
		return fail(err)
	}
	sym := in.Ops[1].Sym
	return func(m *Machine) error {
		m.ModeCounts[MImm]++
		m.ModeCounts[MLabel]++
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

// enter $n reserves n bytes of frame space for locals and spills.
func enter(in *Instr) exec {
	if err := in.WantOps(1); err != nil {
		return fail(err)
	}
	o := &in.Ops[0]
	if o.Mode != MImm || o.IsF {
		return fail(fmt.Errorf("enter needs an integer immediate"))
	}
	n := uint32(o.Imm)
	return func(m *Machine) error {
		m.ModeCounts[MImm]++
		m.R[simcore.SP] = uint64(m.addr(simcore.SP) - n)
		return nil
	}
}
