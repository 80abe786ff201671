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

// decoders maps mnemonics to decoders. The assembler also consults it to
// reject unknown instructions at parse time.
var decoders = map[string]decoder{}

var fail = simcore.Fail[*Machine]

// sizes maps the integer size suffixes to byte widths.
var sizes = map[byte]int{'b': 1, 'w': 2, 'l': 4}

func init() {
	// Data movement.
	decoders["li"] = li
	decoders["lfi"] = lfi
	decoders["la"] = la
	decoders["mv"] = mv
	for s, n := range sizes {
		decoders["ld"+string(s)] = loadInt(n)
		decoders["st"+string(s)] = storeInt(n)
	}
	decoders["ldf"] = ldf
	decoders["ldd"] = ldd
	decoders["stf"] = stf
	decoders["std"] = std

	// Integer arithmetic: three-register, destination first. Producers
	// write per-size extended results; consumers re-extend, so only the
	// low bits carry meaning between instructions.
	for s, n := range sizes {
		decoders["add"+string(s)] = binSigned(n, func(a, b int64) (int64, error) { return a + b, nil })
		decoders["sub"+string(s)] = binSigned(n, func(a, b int64) (int64, error) { return a - b, nil })
		decoders["mul"+string(s)] = binSigned(n, func(a, b int64) (int64, error) { return a * b, nil })
		decoders["div"+string(s)] = binSigned(n, func(a, b int64) (int64, error) {
			if b == 0 {
				return 0, fmt.Errorf("divide by zero")
			}
			return a / b, nil
		})
		decoders["rem"+string(s)] = binSigned(n, func(a, b int64) (int64, error) {
			if b == 0 {
				return 0, fmt.Errorf("modulus by zero")
			}
			return a % b, nil
		})
		decoders["divu"+string(s)] = binUnsigned(n, func(a, b int64) (int64, error) {
			if b == 0 {
				return 0, fmt.Errorf("divide by zero")
			}
			return a / b, nil
		})
		decoders["remu"+string(s)] = binUnsigned(n, func(a, b int64) (int64, error) {
			if b == 0 {
				return 0, fmt.Errorf("modulus by zero")
			}
			return a % b, nil
		})
		decoders["and"+string(s)] = binSigned(n, func(a, b int64) (int64, error) { return a & b, nil })
		decoders["or"+string(s)] = binSigned(n, func(a, b int64) (int64, error) { return a | b, nil })
		decoders["xor"+string(s)] = binSigned(n, func(a, b int64) (int64, error) { return a ^ b, nil })
		decoders["sll"+string(s)] = binSigned(n, func(a, b int64) (int64, error) { return shiftLeft(a, b), nil })
		decoders["sllu"+string(s)] = binUnsigned(n, func(a, b int64) (int64, error) { return shiftLeft(a, b), nil })
		decoders["sra"+string(s)] = binSigned(n, func(a, b int64) (int64, error) { return shiftLeft(a, -b), nil })
		decoders["srl"+string(s)] = binUnsigned(n, func(a, b int64) (int64, error) {
			if b >= 32 || b < 0 {
				return 0, nil
			}
			return int64(uint32(a) >> uint(b)), nil
		})
		decoders["neg"+string(s)] = unSigned(n, func(a int64) int64 { return -a })
		decoders["not"+string(s)] = unSigned(n, func(a int64) int64 { return ^a })
	}
	decoders["addi"] = addi

	// Floating arithmetic; f-forms round through float32.
	for _, s := range []byte{'f', 'd'} {
		f := s == 'f'
		decoders["add"+string(s)] = binFloat(f, func(a, b float64) (float64, error) { return a + b, nil })
		decoders["sub"+string(s)] = binFloat(f, func(a, b float64) (float64, error) { return a - b, nil })
		decoders["mul"+string(s)] = binFloat(f, func(a, b float64) (float64, error) { return a * b, nil })
		decoders["div"+string(s)] = binFloat(f, func(a, b float64) (float64, error) {
			if b == 0 {
				return 0, fmt.Errorf("floating divide by zero")
			}
			return a / b, nil
		})
	}
	decoders["negf"] = unFloat(func(a float64) float64 { return -a })
	decoders["negd"] = unFloat(func(a float64) float64 { return -a })

	// Conversions. Integer pairs read the source size signed (or, in the
	// u-forms, unsigned) and write per the destination size.
	intSuf := []byte{'b', 'w', 'l'}
	for _, from := range intSuf {
		for _, to := range intSuf {
			if from == to {
				continue
			}
			decoders["cvt"+string(from)+string(to)] = cvtInt(sizes[from], sizes[to], false)
			if sizes[from] < sizes[to] {
				decoders["cvtu"+string(from)+string(to)] = cvtInt(sizes[from], sizes[to], true)
			}
		}
		for _, to := range []byte{'f', 'd'} {
			decoders["cvt"+string(from)+string(to)] = cvtIntFloat(sizes[from], to == 'f', false)
			decoders["cvtu"+string(from)+string(to)] = cvtIntFloat(sizes[from], to == 'f', true)
		}
		decoders["cvtf"+string(from)] = cvtFloatInt(sizes[from])
		decoders["cvtd"+string(from)] = cvtFloatInt(sizes[from])
	}
	decoders["cvtfd"] = cvtFF(false)
	decoders["cvtdf"] = cvtFF(true)

	// Compare-and-branch. eq/ne need no unsigned variant: equality of the
	// low bits is equality under either extension.
	conds := map[string]func(a, b int64) bool{
		"eq": func(a, b int64) bool { return a == b },
		"ne": func(a, b int64) bool { return a != b },
		"lt": func(a, b int64) bool { return a < b },
		"le": func(a, b int64) bool { return a <= b },
		"gt": func(a, b int64) bool { return a > b },
		"ge": func(a, b int64) bool { return a >= b },
	}
	fconds := map[string]func(a, b float64) bool{
		"eq": func(a, b float64) bool { return a == b },
		"ne": func(a, b float64) bool { return a != b },
		"lt": func(a, b float64) bool { return a < b },
		"le": func(a, b float64) bool { return a <= b },
		"gt": func(a, b float64) bool { return a > b },
		"ge": func(a, b float64) bool { return a >= b },
	}
	for cond, cmp := range conds {
		for s, n := range sizes {
			decoders["b"+cond+string(s)] = branchInt(n, false, cmp)
			if cond != "eq" && cond != "ne" {
				decoders["b"+cond+"u"+string(s)] = branchInt(n, true, cmp)
			}
		}
	}
	for cond, cmp := range fconds {
		decoders["b"+cond+"f"] = branchFloat(cmp)
		decoders["b"+cond+"d"] = branchFloat(cmp)
	}
	decoders["jmp"] = jmp

	// Calls and the stack.
	decoders["push"] = push
	decoders["pushd"] = pushd
	decoders["call"] = call
	decoders["ret"] = ret
	decoders["enter"] = enter
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
