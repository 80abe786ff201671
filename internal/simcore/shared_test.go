package simcore_test

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ggcg/internal/obs"
	"ggcg/internal/riscsim"
	"ggcg/internal/simcore"
	"ggcg/internal/vaxsim"
)

// machine is the surface both simulators take from the core.
type machine interface {
	Call(string, ...int64) (int64, error)
	CallPreservingState(string, ...int64) (int64, error)
	Global(string) (uint32, bool)
	ReadGlobal(string, int) (int64, error)
	ReadGlobalFloat(string, int) (float64, error)
	Profile() obs.SimProfile
	EnableFuncProfile()
}

// sim is one simulator under the shared behaviour table, with the
// programs the table runs spelled in its instruction set.
type sim struct {
	name string // the message prefix
	// assemble assembles src once and returns a constructor of machines
	// that all run that one Program.
	assemble func(src string) (func() machine, error)
	// handBuilt returns a machine for a program the assembler would
	// reject: at _f, on line 3, instruction mn writing 1 to register 99.
	handBuilt func(mn string) machine
	move      string // the mnemonic handBuilt can execute
	jump      string // unconditional jump, a format for its target
	ret       string // function return

	// args: _add returns 4(ap)+8(ap) and clobbers r6-r11; _f(a, b) sets
	// r6-r11 to 1..6, returns _add(a, b) plus r6-r11.
	args string
	// counter: _inc increments the global _n and returns it.
	counter string
	// div0: _f divides by zero at pc 1, line 4, failing with div0Err.
	div0, div0Err string
	// countdown: _g(n) loops n times.
	countdown string
	// undef: _f(x) returns 0 when x is 0 and otherwise reads the
	// undefined absolute symbol _nope, at pc 3.
	undef string
}

// each expands an instruction template once for each of r6-r11: {r} is
// the register and {v} its number less five.
func each(tmpl string) string {
	var b strings.Builder
	for r := 6; r <= 11; r++ {
		b.WriteString("\t" + strings.NewReplacer("{r}", "r"+strconv.Itoa(r), "{v}", strconv.Itoa(r-5)).Replace(tmpl) + "\n")
	}
	return b.String()
}

var sims = []sim{
	{
		name: "vaxsim",
		assemble: func(src string) (func() machine, error) {
			p, err := vaxsim.Assemble(src)
			if err != nil {
				return nil, err
			}
			return func() machine { return vaxsim.New(p) }, nil
		},
		handBuilt: func(mn string) machine {
			return vaxsim.New(&vaxsim.Program{
				Instrs: []vaxsim.Instr{{Mn: mn, Line: 3, Ops: []vaxsim.Operand{
					{Mode: vaxsim.MImm, Imm: 1, Index: -1}, {Mode: vaxsim.MReg, Reg: 99, Index: -1}}}},
				Labels: map[string]int{"_f": 0},
			})
		},
		move: "movl",
		jump: "jbr %s",
		ret:  "ret",
		args: "_add:\t.word 0\n" + each("movl $100,{r}") + "\taddl3 4(ap),8(ap),r0\n\tret\n" +
			"_f:\t.word 0\n" + each("movl ${v},{r}") + "\tpushl 8(ap)\n\tpushl 4(ap)\n\tcalls $2,_add\n" +
			each("addl2 {r},r0") + "\tret\n",
		counter:   "_inc:\t.word 0\n\tincl _n\n\tmovl _n,r0\n\tret\n",
		div0:      "_f:\t.word 0\n\tmovl $1,r1\n\tdivl3 $0,r1,r0\n\tret\n",
		div0Err:   "integer divide by zero",
		countdown: "_g:\t.word 0\n\tmovl 4(ap),r0\nL2:\tdecl r0\n\tjgtr L2\n\tret\n",
		undef:     "_f:\t.word 0\n\tclrl r0\n\ttstl 4(ap)\n\tjeql L1\n\tmovl _nope,r0\nL1:\tret\n",
	},
	{
		name: "riscsim",
		assemble: func(src string) (func() machine, error) {
			p, err := riscsim.Assemble(src)
			if err != nil {
				return nil, err
			}
			return func() machine { return riscsim.New(p) }, nil
		},
		handBuilt: func(mn string) machine {
			return riscsim.New(&riscsim.Program{
				Instrs: []riscsim.Instr{{Mn: mn, Line: 3, Ops: []riscsim.Operand{
					{Mode: riscsim.MReg, Reg: 99}, {Mode: riscsim.MImm, Imm: 1}}}},
				Labels: map[string]int{"_f": 0},
			})
		},
		move: "li",
		jump: "jmp %s",
		ret:  "ret",
		args: "_add:\n" + each("li {r},$100") + "\tldl r0,4(ap)\n\tldl r1,8(ap)\n\taddl r0,r0,r1\n\tret\n" +
			"_f:\n" + each("li {r},${v}") + "\tldl r1,8(ap)\n\tpush r1\n\tldl r1,4(ap)\n\tpush r1\n\tcall $2,_add\n" +
			each("addl r0,r0,{r}") + "\tret\n",
		counter:   "_inc:\n\tldl r0,_n\n\taddi r0,r0,$1\n\tstl r0,_n\n\tret\n",
		div0:      "_f:\n\tli r1,$0\n\tdivl r0,r1,r1\n\tret\n",
		div0Err:   "divide by zero",
		countdown: "_g:\n\tldl r0,4(ap)\n\tli r1,$0\nL2:\taddi r0,r0,$-1\n\tbgtl r0,r1,L2\n\tret\n",
		undef:     "_f:\n\tldl r1,4(ap)\n\tli r0,$0\n\tbeql r1,r0,L1\n\tldl r0,_nope\nL1:\tret\n",
	},
}

func (s sim) must(t *testing.T, src string) machine {
	t.Helper()
	newM, err := s.assemble(src)
	if err != nil {
		t.Fatalf("%s: assemble: %v", s.name, err)
	}
	return newM()
}

func labels(m machine) map[string]int {
	switch m := m.(type) {
	case *vaxsim.Machine:
		return m.Prog.Labels
	case *riscsim.Machine:
		return m.Prog.Labels
	}
	panic(fmt.Sprintf("unknown machine %T", m))
}

// refs returns what the assembler resolved of the symbols of the
// operands of every instruction with mnemonic mn, in program order.
func refs(m machine, mn string) []simcore.Ref {
	var out []simcore.Ref
	switch m := m.(type) {
	case *vaxsim.Machine:
		for _, in := range m.Prog.Instrs {
			if in.Mn != mn {
				continue
			}
			for _, o := range in.Ops {
				out = append(out, o.Ref)
			}
		}
	case *riscsim.Machine:
		for _, in := range m.Prog.Instrs {
			if in.Mn != mn {
				continue
			}
			for _, o := range in.Ops {
				out = append(out, o.Ref)
			}
		}
	}
	return out
}

func setMaxSteps(m machine, n int64) {
	switch m := m.(type) {
	case *vaxsim.Machine:
		m.MaxSteps = n
	case *riscsim.Machine:
		m.MaxSteps = n
	}
}

// TestDirectives: the data directives lay out and initialise static data
// identically on both machines.
func TestDirectives(t *testing.T) {
	const data = `
.data
_tab:	.long 10,20,30	# 0x1000
_b:	.byte 7		# 0x100c
_m1:	.byte -1
	.align 2
_s:	.space 6	# 0x1010
	.comm _c,4	# aligned up to 0x1018
_pi:	.long 1078530011
.globl _f
.text
_f:	.word 0
`
	for _, s := range sims {
		m := s.must(t, data+"\t"+s.ret+"\n")
		if _, err := m.Call("_f"); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for sym, want := range map[string]uint32{
			"_tab": 0x1000, "_b": 0x100c, "_m1": 0x100d, "_s": 0x1010, "_c": 0x1018, "_pi": 0x101c,
		} {
			if a, ok := m.Global(sym); !ok || a != want {
				t.Errorf("%s: %s at %#x, %v; want %#x", s.name, sym, a, ok, want)
			}
		}
		for _, c := range []struct {
			sym  string
			size int
			want int64
		}{{"_tab", 4, 10}, {"_b", 1, 7}, {"_m1", 1, -1}, {"_c", 4, 0}} {
			if v, err := m.ReadGlobal(c.sym, c.size); err != nil || v != c.want {
				t.Errorf("%s: %s = %d, %v; want %d", s.name, c.sym, v, err, c.want)
			}
		}
		if v, _ := m.ReadGlobalFloat("_pi", 4); v != float64(float32(math.Pi)) {
			t.Errorf("%s: _pi = %v", s.name, v)
		}
		want := s.name + `: no global "_nope"`
		if _, err := m.ReadGlobal("_nope", 4); err == nil || err.Error() != want {
			t.Errorf("%s: ReadGlobal(_nope) = %v, want %q", s.name, err, want)
		}
	}
}

// TestAssemblerRejects: malformed directives and operands, unknown
// mnemonics and undefined code targets fail assembly with the line.
func TestAssemblerRejects(t *testing.T) {
	for _, s := range sims {
		for _, c := range []struct{ line, want string }{
			{".align", ".align needs an argument"},
			{".align x", `bad .align "x"`},
			{".align 13", `bad .align "13"`},
			{".comm _x", `bad .comm ".comm _x"`},
			{".comm _x,0", `bad .comm size "0"`},
			{".space", ".space needs a size"},
			{".space -1", `bad .space "-1"`},
			{".long 1,zz", `bad .long value "zz"`},
			{".bogus 3", `unknown directive ".bogus"`},
			{"frob r0", `unknown instruction "frob"`},
			{fmt.Sprintf(s.jump, "$$"), `bad immediate "$$"`},
			{fmt.Sprintf(s.jump, "4(zz)"), `bad base register in "4(zz)"`},
			{fmt.Sprintf(s.jump, "_x+y"), `bad symbol offset "_x+y"`},
			{fmt.Sprintf(s.jump, "L99"), `undefined target "L99"`},
		} {
			_, err := s.assemble("_f:\n" + c.line + "\n")
			if want := s.name + ": line 2: " + c.want; err == nil || err.Error() != want {
				t.Errorf("%s: %q: err = %v, want %q", s.name, c.line, err, want)
			}
		}
	}
}

// TestLabels: several labels may share a line, comments are ignored, and
// a code label defined after its use resolves.
func TestLabels(t *testing.T) {
	for _, s := range sims {
		m := s.must(t, "_f:\t.word 0\t# entry\n\t"+fmt.Sprintf(s.jump, "L2")+"\nL1: L2:\t"+s.ret+" # two labels\n")
		if got := labels(m); got["_f"] != 0 || got["L1"] != 1 || got["L2"] != 1 {
			t.Errorf("%s: labels = %v", s.name, got)
		}
		if _, err := m.Call("_f"); err != nil {
			t.Errorf("%s: %v", s.name, err)
		}
		if got := m.Profile().Steps; got != 2 {
			t.Errorf("%s: steps = %d, want 2", s.name, got)
		}
	}
}

// TestArgumentsAndSavedRegisters: arguments arrive at 4(ap), 8(ap), ...
// both from Call and from a simulated call, and r6-r11 survive a call.
func TestArgumentsAndSavedRegisters(t *testing.T) {
	for _, s := range sims {
		m := s.must(t, ".text\n"+s.args)
		if r, err := m.Call("_add", 30, 12); err != nil || r != 42 {
			t.Errorf("%s: add(30, 12) = %d, %v; want 42", s.name, r, err)
		}
		if r, err := m.Call("_f", 30, 12); err != nil || r != 42+21 {
			t.Errorf("%s: f(30, 12) = %d, %v; want 63", s.name, r, err)
		}
		want := s.name + `: no function "_nope"`
		if _, err := m.Call("_nope"); err == nil || err.Error() != want {
			t.Errorf("%s: Call(_nope) = %v, want %q", s.name, err, want)
		}
	}
}

// TestCallPreservingState: Call clears memory and reapplies data
// initialisation, and CallPreservingState keeps memory from the call
// before.
func TestCallPreservingState(t *testing.T) {
	for _, s := range sims {
		for data, n0 := range map[string]int64{"_n:\t.long 5": 5, ".comm _n,4": 0} {
			m := s.must(t, ".data\n"+data+"\n.text\n"+s.counter)
			for i, c := range []struct {
				preserve bool
				want     int64
			}{{false, 1}, {true, 2}, {true, 3}, {false, 1}} {
				call := m.Call
				if c.preserve {
					call = m.CallPreservingState
				}
				if r, err := call("_inc"); err != nil || r != n0+c.want {
					t.Errorf("%s: %s: call %d = %d, %v; want %d", s.name, data, i, r, err, n0+c.want)
				}
			}
		}
	}
}

// TestExecError: a runtime fault is one *simcore.ExecError, carrying the
// pc, line and disassembly under the simulator's prefix, and unwrapping to
// its cause; a panicking exec and an unknown mnemonic fault the same way.
func TestExecError(t *testing.T) {
	for _, s := range sims {
		_, err := s.must(t, ".text\n"+s.div0).Call("_f")
		var ee *simcore.ExecError
		if !errors.As(err, &ee) {
			t.Fatalf("%s: error %v is %T, want *simcore.ExecError", s.name, err, err)
		}
		want := fmt.Sprintf("%s: pc 1, line 4 (%s): %s", s.name, ee.Instr, s.div0Err)
		if err.Error() != want || !strings.HasPrefix(ee.Instr, "div") {
			t.Errorf("%s: message = %q, want %q", s.name, err, want)
		}
		if ee.Unwrap() == nil || ee.Unwrap().Error() != s.div0Err {
			t.Errorf("%s: Unwrap() = %v", s.name, ee.Unwrap())
		}

		for mn, cause := range map[string]string{s.move: "panic:", "frob": `unknown instruction "frob"`} {
			_, err := s.handBuilt(mn).Call("_f")
			if !errors.As(err, &ee) {
				t.Fatalf("%s: %s: error %v is %T, want *simcore.ExecError", s.name, mn, err, err)
			}
			if ee.PC != 0 || ee.Line != 3 || !strings.HasPrefix(err.Error(), s.name+": pc 0, line 3 (") ||
				!strings.Contains(err.Error(), cause) {
				t.Errorf("%s: %s: %v, want a fault at pc 0, line 3 naming %q", s.name, mn, err, cause)
			}
		}
	}
}

// TestStepLimit: MaxSteps bounds each call, not the machine's lifetime —
// a reused machine runs calls whose sum exceeds it — while Steps keeps
// counting across calls, and an infinite loop still fails. The step that
// exceeds the limit counts in Steps but runs nothing, so no function is
// charged with it.
func TestStepLimit(t *testing.T) {
	for _, s := range sims {
		m := s.must(t, ".text\n"+s.countdown+"_f:\t.word 0\nL1:\t"+fmt.Sprintf(s.jump, "L1")+"\n")
		m.EnableFuncProfile()
		setMaxSteps(m, 100)
		var per int64
		for i := 0; i < 5; i++ {
			if r, err := m.Call("_g", 30); err != nil || r != 0 {
				t.Fatalf("%s: call %d = %d, %v", s.name, i, r, err)
			}
			if i == 0 {
				per = m.Profile().Steps
			}
		}
		if per >= 100 || 5*per <= 100 {
			t.Fatalf("%s: %d steps per call do not straddle the limit", s.name, per)
		}
		if got := m.Profile().Steps; got != 5*per {
			t.Errorf("%s: Steps = %d after five calls of %d", s.name, got, per)
		}
		want := s.name + ": step limit 100 exceeded"
		if _, err := m.Call("_f"); err == nil || err.Error() != want {
			t.Errorf("%s: infinite loop: err = %v, want %q", s.name, err, want)
		}
		p := m.Profile()
		if p.Steps != 5*per+101 || p.FuncSteps["_g"] != 5*per || p.FuncSteps["_f"] != 100 {
			t.Errorf("%s: after the limit, Steps = %d and func steps %v; want %d, _g %d and _f 100",
				s.name, p.Steps, p.FuncSteps, 5*per+101, 5*per)
		}
		if _, err := m.Call("_g", 30); err != nil {
			t.Errorf("%s: call after a step-limit failure: %v", s.name, err)
		}
	}
}

// TestNewAllocatesNothingPerInstruction: instructions are decoded at
// assembly, so making a machine for a program costs the same whatever
// the program's length.
func TestNewAllocatesNothingPerInstruction(t *testing.T) {
	for _, s := range sims {
		allocs := func(n int) float64 {
			newM, err := s.assemble(".text\n_f:\t.word 0\n" +
				strings.Repeat("\t"+fmt.Sprintf(s.jump, "L1")+"\n", n) + "L1:\t" + s.ret + "\n")
			if err != nil {
				t.Fatalf("%s: assemble: %v", s.name, err)
			}
			return testing.AllocsPerRun(20, func() { newM() })
		}
		if one, many := allocs(1), allocs(1000); one != many {
			t.Errorf("%s: a machine allocates %v times for 1 instruction, %v for 1000", s.name, one, many)
		}
	}
}

// TestSharedProgram: machines only read their Program, so one assembled
// Program runs on several machines at once (the race detector checks
// it) with the same results and step counts as on one.
func TestSharedProgram(t *testing.T) {
	for _, s := range sims {
		newM, err := s.assemble(".data\n_n:\t.long 5\n.text\n" + s.args + s.countdown + s.counter)
		if err != nil {
			t.Fatalf("%s: assemble: %v", s.name, err)
		}
		type run struct {
			results []int64
			steps   int64
		}
		runs := make([]run, 4)
		var wg sync.WaitGroup
		for i := range runs {
			wg.Add(1)
			go func(r *run) {
				defer wg.Done()
				m := newM()
				for _, c := range []struct {
					fn   string
					args []int64
				}{{"_f", []int64{30, 12}}, {"_g", []int64{500}}, {"_inc", nil}} {
					v, err := m.Call(c.fn, c.args...)
					if err != nil {
						t.Errorf("%s: %s: %v", s.name, c.fn, err)
					}
					r.results = append(r.results, v)
				}
				r.steps = m.Profile().Steps
			}(&runs[i])
		}
		wg.Wait()
		for i, r := range runs {
			if fmt.Sprint(r) != fmt.Sprint(runs[0]) {
				t.Errorf("%s: machine %d ran %v, machine 0 %v", s.name, i, r, runs[0])
			}
		}
		if want := []int64{63, 0, 6}; fmt.Sprint(runs[0].results) != fmt.Sprint(want) {
			t.Errorf("%s: results %v, want %v", s.name, runs[0].results, want)
		}
	}
}

// TestLinking: the assembler resolves each operand's symbol once. A call
// names its function's code label and a data operand its global's
// address; an absolute operand naming no symbol at all still assembles,
// runs while it is not executed, and faults with "undefined symbol" when
// it is.
func TestLinking(t *testing.T) {
	for _, s := range sims {
		m := s.must(t, ".data\n_n:\t.long 5\n.text\n"+s.args+s.counter)
		call := "calls"
		if s.name == "riscsim" {
			call = "call"
		}
		if rs := refs(m, call); len(rs) != 2 || !rs[1].IsCode || rs[1].Code != labels(m)["_add"] || rs[1].IsData {
			t.Errorf("%s: %s operands resolved to %+v, want code index %d", s.name, call, rs, labels(m)["_add"])
		}
		n, _ := m.Global("_n")
		var data []simcore.Ref
		for _, mn := range []string{"incl", "movl", "ldl", "stl"} {
			for _, r := range refs(m, mn) {
				if r.IsData {
					data = append(data, r)
				}
			}
		}
		if len(data) != 2 || data[0].Addr != n || data[1].Addr != n {
			t.Errorf("%s: data operands resolved to %+v, want two at %#x", s.name, data, n)
		}

		m = s.must(t, ".text\n"+s.undef)
		if r, err := m.Call("_f", 0); err != nil || r != 0 {
			t.Errorf("%s: f(0) = %d, %v; want 0", s.name, r, err)
		}
		_, err := m.Call("_f", 1)
		var ee *simcore.ExecError
		if !errors.As(err, &ee) {
			t.Fatalf("%s: f(1): error %v is %T, want *simcore.ExecError", s.name, err, err)
		}
		if ee.PC != 3 || ee.Unwrap().Error() != `undefined symbol "_nope"` {
			t.Errorf("%s: f(1) = %v, want undefined symbol \"_nope\" at pc 3", s.name, err)
		}
	}
}
