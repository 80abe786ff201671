package riscsim

import (
	"fmt"
	"math"

	"ggcg/internal/simcore"
)

// handler executes one instruction.
type handler = func(*Machine, *Instr) error

// execTable maps mnemonics to handlers. The assembler also consults it to
// reject unknown instructions at parse time.
var execTable = map[string]handler{}

// sizes maps the integer size suffixes to byte widths.
var sizes = map[byte]int{'b': 1, 'w': 2, 'l': 4}

func init() {
	// Data movement.
	execTable["li"] = li
	execTable["lfi"] = lfi
	execTable["la"] = la
	execTable["mv"] = mv
	for s, n := range sizes {
		execTable["ld"+string(s)] = loadInt(n)
		execTable["st"+string(s)] = storeInt(n)
	}
	execTable["ldf"] = ldf
	execTable["ldd"] = ldd
	execTable["stf"] = stf
	execTable["std"] = std

	// Integer arithmetic: three-register, destination first. Producers
	// write per-size extended results; consumers re-extend, so only the
	// low bits carry meaning between instructions.
	for s, n := range sizes {
		execTable["add"+string(s)] = binSigned(n, func(a, b int64) (int64, error) { return a + b, nil })
		execTable["sub"+string(s)] = binSigned(n, func(a, b int64) (int64, error) { return a - b, nil })
		execTable["mul"+string(s)] = binSigned(n, func(a, b int64) (int64, error) { return a * b, nil })
		execTable["div"+string(s)] = binSigned(n, func(a, b int64) (int64, error) {
			if b == 0 {
				return 0, fmt.Errorf("divide by zero")
			}
			return a / b, nil
		})
		execTable["rem"+string(s)] = binSigned(n, func(a, b int64) (int64, error) {
			if b == 0 {
				return 0, fmt.Errorf("modulus by zero")
			}
			return a % b, nil
		})
		execTable["divu"+string(s)] = binUnsigned(n, func(a, b int64) (int64, error) {
			if b == 0 {
				return 0, fmt.Errorf("divide by zero")
			}
			return a / b, nil
		})
		execTable["remu"+string(s)] = binUnsigned(n, func(a, b int64) (int64, error) {
			if b == 0 {
				return 0, fmt.Errorf("modulus by zero")
			}
			return a % b, nil
		})
		execTable["and"+string(s)] = binSigned(n, func(a, b int64) (int64, error) { return a & b, nil })
		execTable["or"+string(s)] = binSigned(n, func(a, b int64) (int64, error) { return a | b, nil })
		execTable["xor"+string(s)] = binSigned(n, func(a, b int64) (int64, error) { return a ^ b, nil })
		execTable["sll"+string(s)] = binSigned(n, func(a, b int64) (int64, error) { return shiftLeft(a, b), nil })
		execTable["sllu"+string(s)] = binUnsigned(n, func(a, b int64) (int64, error) { return shiftLeft(a, b), nil })
		execTable["sra"+string(s)] = binSigned(n, func(a, b int64) (int64, error) { return shiftLeft(a, -b), nil })
		execTable["srl"+string(s)] = binUnsigned(n, func(a, b int64) (int64, error) {
			if b >= 32 || b < 0 {
				return 0, nil
			}
			return int64(uint32(a) >> uint(b)), nil
		})
		execTable["neg"+string(s)] = unSigned(n, func(a int64) int64 { return -a })
		execTable["not"+string(s)] = unSigned(n, func(a int64) int64 { return ^a })
	}
	execTable["addi"] = addi

	// Floating arithmetic; f-forms round through float32.
	for _, s := range []byte{'f', 'd'} {
		f := s == 'f'
		execTable["add"+string(s)] = binFloat(f, func(a, b float64) (float64, error) { return a + b, nil })
		execTable["sub"+string(s)] = binFloat(f, func(a, b float64) (float64, error) { return a - b, nil })
		execTable["mul"+string(s)] = binFloat(f, func(a, b float64) (float64, error) { return a * b, nil })
		execTable["div"+string(s)] = binFloat(f, func(a, b float64) (float64, error) {
			if b == 0 {
				return 0, fmt.Errorf("floating divide by zero")
			}
			return a / b, nil
		})
	}
	execTable["negf"] = unFloat(func(a float64) float64 { return -a })
	execTable["negd"] = unFloat(func(a float64) float64 { return -a })

	// Conversions. Integer pairs read the source size signed (or, in the
	// u-forms, unsigned) and write per the destination size.
	intSuf := []byte{'b', 'w', 'l'}
	for _, from := range intSuf {
		for _, to := range intSuf {
			if from == to {
				continue
			}
			execTable["cvt"+string(from)+string(to)] = cvtInt(sizes[from], sizes[to], false)
			if sizes[from] < sizes[to] {
				execTable["cvtu"+string(from)+string(to)] = cvtInt(sizes[from], sizes[to], true)
			}
		}
		for _, to := range []byte{'f', 'd'} {
			execTable["cvt"+string(from)+string(to)] = cvtIntFloat(sizes[from], to == 'f', false)
			execTable["cvtu"+string(from)+string(to)] = cvtIntFloat(sizes[from], to == 'f', true)
		}
		execTable["cvtf"+string(from)] = cvtFloatInt(sizes[from])
		execTable["cvtd"+string(from)] = cvtFloatInt(sizes[from])
	}
	execTable["cvtfd"] = cvtFF(false)
	execTable["cvtdf"] = cvtFF(true)

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
			execTable["b"+cond+string(s)] = branchInt(n, false, cmp)
			if cond != "eq" && cond != "ne" {
				execTable["b"+cond+"u"+string(s)] = branchInt(n, true, cmp)
			}
		}
	}
	for cond, cmp := range fconds {
		execTable["b"+cond+"f"] = branchFloat(cmp)
		execTable["b"+cond+"d"] = branchFloat(cmp)
	}
	execTable["jmp"] = jmp

	// Calls and the stack.
	execTable["push"] = push
	execTable["pushd"] = pushd
	execTable["call"] = call
	execTable["ret"] = ret
	execTable["enter"] = enter
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

// target resolves a code-transfer operand to an instruction index.
func target(m *Machine, o *Operand) (int, error) {
	if o.Mode != MLabel && o.Mode != MAbs {
		return 0, fmt.Errorf("bad code target %s", o)
	}
	m.ModeCounts[MLabel]++
	e, ok := m.Prog.Labels[o.Sym]
	if !ok {
		return 0, fmt.Errorf("undefined code target %q", o.Sym)
	}
	return e, nil
}

func li(m *Machine, in *Instr) error {
	if err := in.WantOps(2); err != nil {
		return err
	}
	rd, err := m.reg(&in.Ops[0])
	if err != nil {
		return err
	}
	o := &in.Ops[1]
	if o.Mode != MImm || o.IsF {
		return fmt.Errorf("li needs an integer immediate")
	}
	m.ModeCounts[MImm]++
	m.R[rd] = uint64(o.Imm)
	return nil
}

func lfi(m *Machine, in *Instr) error {
	if err := in.WantOps(2); err != nil {
		return err
	}
	rd, err := m.reg(&in.Ops[0])
	if err != nil {
		return err
	}
	o := &in.Ops[1]
	if o.Mode != MImm {
		return fmt.Errorf("lfi needs an immediate")
	}
	m.ModeCounts[MImm]++
	v := float64(o.Imm)
	if o.IsF {
		v = o.FImm
	}
	m.setF(rd, v)
	return nil
}

func la(m *Machine, in *Instr) error {
	if err := in.WantOps(2); err != nil {
		return err
	}
	rd, err := m.reg(&in.Ops[0])
	if err != nil {
		return err
	}
	a, err := m.memAddr(&in.Ops[1])
	if err != nil {
		return err
	}
	m.setInt(rd, 4, int64(int32(a)))
	return nil
}

func mv(m *Machine, in *Instr) error {
	if err := in.WantOps(2); err != nil {
		return err
	}
	rd, err := m.reg(&in.Ops[0])
	if err != nil {
		return err
	}
	rs, err := m.reg(&in.Ops[1])
	if err != nil {
		return err
	}
	m.R[rd] = m.R[rs]
	return nil
}

func loadInt(size int) handler {
	return func(m *Machine, in *Instr) error {
		if err := in.WantOps(2); err != nil {
			return err
		}
		rd, err := m.reg(&in.Ops[0])
		if err != nil {
			return err
		}
		a, err := m.memAddr(&in.Ops[1])
		if err != nil {
			return err
		}
		m.setInt(rd, size, simcore.Extend(m.Mem.Load(a, size), size, false))
		return nil
	}
}

func storeInt(size int) handler {
	return func(m *Machine, in *Instr) error {
		if err := in.WantOps(2); err != nil {
			return err
		}
		rs, err := m.reg(&in.Ops[0])
		if err != nil {
			return err
		}
		a, err := m.memAddr(&in.Ops[1])
		if err != nil {
			return err
		}
		m.Mem.Store(a, size, m.R[rs])
		return nil
	}
}

func ldf(m *Machine, in *Instr) error {
	if err := in.WantOps(2); err != nil {
		return err
	}
	rd, err := m.reg(&in.Ops[0])
	if err != nil {
		return err
	}
	a, err := m.memAddr(&in.Ops[1])
	if err != nil {
		return err
	}
	m.setF(rd, float64(math.Float32frombits(uint32(m.Mem.Load(a, 4)))))
	return nil
}

func ldd(m *Machine, in *Instr) error {
	if err := in.WantOps(2); err != nil {
		return err
	}
	rd, err := m.reg(&in.Ops[0])
	if err != nil {
		return err
	}
	a, err := m.memAddr(&in.Ops[1])
	if err != nil {
		return err
	}
	m.R[rd] = m.Mem.Load(a, 8)
	return nil
}

func stf(m *Machine, in *Instr) error {
	if err := in.WantOps(2); err != nil {
		return err
	}
	rs, err := m.reg(&in.Ops[0])
	if err != nil {
		return err
	}
	a, err := m.memAddr(&in.Ops[1])
	if err != nil {
		return err
	}
	m.Mem.Store(a, 4, uint64(math.Float32bits(float32(m.fval(rs)))))
	return nil
}

func std(m *Machine, in *Instr) error {
	if err := in.WantOps(2); err != nil {
		return err
	}
	rs, err := m.reg(&in.Ops[0])
	if err != nil {
		return err
	}
	a, err := m.memAddr(&in.Ops[1])
	if err != nil {
		return err
	}
	m.Mem.Store(a, 8, m.R[rs])
	return nil
}

func addi(m *Machine, in *Instr) error {
	if err := in.WantOps(3); err != nil {
		return err
	}
	rd, err := m.reg(&in.Ops[0])
	if err != nil {
		return err
	}
	ra, err := m.reg(&in.Ops[1])
	if err != nil {
		return err
	}
	o := &in.Ops[2]
	if o.Mode != MImm || o.IsF {
		return fmt.Errorf("addi needs an integer immediate")
	}
	m.ModeCounts[MImm]++
	m.setInt(rd, 4, int64(int32(uint32(m.R[ra])+uint32(o.Imm))))
	return nil
}

// threeRegs parses `op rD,rA,rB`.
func threeRegs(m *Machine, in *Instr) (rd, ra, rb int, err error) {
	if err = in.WantOps(3); err != nil {
		return
	}
	if rd, err = m.reg(&in.Ops[0]); err != nil {
		return
	}
	if ra, err = m.reg(&in.Ops[1]); err != nil {
		return
	}
	rb, err = m.reg(&in.Ops[2])
	return
}

func binSigned(size int, f func(a, b int64) (int64, error)) handler {
	return func(m *Machine, in *Instr) error {
		rd, ra, rb, err := threeRegs(m, in)
		if err != nil {
			return err
		}
		v, err := f(m.sx(ra, size), m.sx(rb, size))
		if err != nil {
			return err
		}
		m.setInt(rd, size, v)
		return nil
	}
}

func binUnsigned(size int, f func(a, b int64) (int64, error)) handler {
	return func(m *Machine, in *Instr) error {
		rd, ra, rb, err := threeRegs(m, in)
		if err != nil {
			return err
		}
		v, err := f(m.zx(ra, size), m.zx(rb, size))
		if err != nil {
			return err
		}
		m.setUint(rd, size, v)
		return nil
	}
}

func binFloat(round bool, f func(a, b float64) (float64, error)) handler {
	return func(m *Machine, in *Instr) error {
		rd, ra, rb, err := threeRegs(m, in)
		if err != nil {
			return err
		}
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

// twoRegs parses `op rD,rA`.
func twoRegs(m *Machine, in *Instr) (rd, ra int, err error) {
	if err = in.WantOps(2); err != nil {
		return
	}
	if rd, err = m.reg(&in.Ops[0]); err != nil {
		return
	}
	ra, err = m.reg(&in.Ops[1])
	return
}

func unSigned(size int, f func(a int64) int64) handler {
	return func(m *Machine, in *Instr) error {
		rd, ra, err := twoRegs(m, in)
		if err != nil {
			return err
		}
		m.setInt(rd, size, f(m.sx(ra, size)))
		return nil
	}
}

func unFloat(f func(a float64) float64) handler {
	return func(m *Machine, in *Instr) error {
		rd, ra, err := twoRegs(m, in)
		if err != nil {
			return err
		}
		m.setF(rd, f(m.fval(ra)))
		return nil
	}
}

func cvtInt(from, to int, unsigned bool) handler {
	return func(m *Machine, in *Instr) error {
		rd, ra, err := twoRegs(m, in)
		if err != nil {
			return err
		}
		m.setInt(rd, to, simcore.Extend(m.R[ra], from, unsigned))
		return nil
	}
}

func cvtIntFloat(from int, toF, unsigned bool) handler {
	return func(m *Machine, in *Instr) error {
		rd, ra, err := twoRegs(m, in)
		if err != nil {
			return err
		}
		v := float64(simcore.Extend(m.R[ra], from, unsigned))
		if toF {
			v = float64(float32(v))
		}
		m.setF(rd, v)
		return nil
	}
}

func cvtFloatInt(to int) handler {
	return func(m *Machine, in *Instr) error {
		rd, ra, err := twoRegs(m, in)
		if err != nil {
			return err
		}
		m.setInt(rd, to, int64(m.fval(ra))) // truncates toward zero
		return nil
	}
}

func cvtFF(round bool) handler {
	return func(m *Machine, in *Instr) error {
		rd, ra, err := twoRegs(m, in)
		if err != nil {
			return err
		}
		v := m.fval(ra)
		if round {
			v = float64(float32(v))
		}
		m.setF(rd, v)
		return nil
	}
}

func branchInt(size int, unsigned bool, cmp func(a, b int64) bool) handler {
	return func(m *Machine, in *Instr) error {
		if err := in.WantOps(3); err != nil {
			return err
		}
		ra, err := m.reg(&in.Ops[0])
		if err != nil {
			return err
		}
		rb, err := m.reg(&in.Ops[1])
		if err != nil {
			return err
		}
		t, err := target(m, &in.Ops[2])
		if err != nil {
			return err
		}
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

func branchFloat(cmp func(a, b float64) bool) handler {
	return func(m *Machine, in *Instr) error {
		if err := in.WantOps(3); err != nil {
			return err
		}
		ra, err := m.reg(&in.Ops[0])
		if err != nil {
			return err
		}
		rb, err := m.reg(&in.Ops[1])
		if err != nil {
			return err
		}
		t, err := target(m, &in.Ops[2])
		if err != nil {
			return err
		}
		if cmp(m.fval(ra), m.fval(rb)) {
			m.Next = t
		}
		return nil
	}
}

func jmp(m *Machine, in *Instr) error {
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

func push(m *Machine, in *Instr) error {
	if err := in.WantOps(1); err != nil {
		return err
	}
	o := &in.Ops[0]
	if o.Mode == MImm {
		if o.IsF {
			return fmt.Errorf("push needs an integer operand")
		}
		m.ModeCounts[MImm]++
		m.Push32(uint32(o.Imm))
		return nil
	}
	rs, err := m.reg(o)
	if err != nil {
		return err
	}
	m.Push32(uint32(m.R[rs]))
	return nil
}

// pushd pushes an 8-byte floating value as two argument words, low word
// at the lower address, matching the reference interpreter's argument
// marshalling for doubles.
func pushd(m *Machine, in *Instr) error {
	if err := in.WantOps(1); err != nil {
		return err
	}
	o := &in.Ops[0]
	var bits uint64
	if o.Mode == MImm {
		m.ModeCounts[MImm]++
		v := float64(o.Imm)
		if o.IsF {
			v = o.FImm
		}
		bits = math.Float64bits(v)
	} else {
		rs, err := m.reg(o)
		if err != nil {
			return err
		}
		bits = m.R[rs]
	}
	m.R[simcore.SP] = uint64(m.addr(simcore.SP) - 8)
	m.Mem.Store(m.addr(simcore.SP), 8, bits)
	return nil
}

// call $n,_sym transfers to a function, building the same stack frame
// vaxsim's calls does: argument count, saved ap, fp and return pc, with
// r6..r11 preserved across the call.
func call(m *Machine, in *Instr) error {
	if err := in.WantOps(2); err != nil {
		return err
	}
	if in.Ops[0].Mode != MImm {
		return fmt.Errorf("call needs an immediate argument count")
	}
	m.ModeCounts[MImm]++
	n := uint32(in.Ops[0].Imm)
	entry, err := target(m, &in.Ops[1])
	if err != nil {
		return err
	}
	m.PushFrame(n, in.Ops[1].Sym, entry)
	return nil
}

func ret(m *Machine, in *Instr) error {
	if err := in.WantOps(0); err != nil {
		return err
	}
	return m.PopFrame()
}

// enter $n reserves n bytes of frame space for locals and spills.
func enter(m *Machine, in *Instr) error {
	if err := in.WantOps(1); err != nil {
		return err
	}
	o := &in.Ops[0]
	if o.Mode != MImm || o.IsF {
		return fmt.Errorf("enter needs an integer immediate")
	}
	m.ModeCounts[MImm]++
	m.R[simcore.SP] = uint64(m.addr(simcore.SP) - uint32(o.Imm))
	return nil
}
