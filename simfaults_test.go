package ggcg

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"ggcg/internal/riscsim"
	"ggcg/internal/simcore"
	"ggcg/internal/vaxsim"
)

// faultRecord is what one instruction does when executed: its fault
// (ExecError.Error() with the PC and Line) or, when it runs clean, the
// result of the function around it.
type faultRecord struct {
	Fault  string `json:"fault,omitempty"`
	PC     int    `json:"pc,omitempty"`
	Line   int    `json:"line,omitempty"`
	Result int64  `json:"result,omitempty"`
}

func newFaultRecord(r int64, err error) faultRecord {
	if err == nil {
		return faultRecord{Result: r}
	}
	rec := faultRecord{Fault: err.Error()}
	var ee *simcore.ExecError
	if errors.As(err, &ee) {
		rec.PC, rec.Line = ee.PC, ee.Line
	}
	return rec
}

// faultSim is one simulator under the fault table.
type faultSim struct {
	name      string
	mnemonics []string
	move      string // sets a register: a format of register and value
	jump      string // unconditional jump, a format of its target
	result    string // copies r1 to r0
	// forms are the operands, as text, that replace one operand slot of a
	// well-formed instruction.
	forms []string
	// run assembles src and calls _f. When hand is set, operand slot of
	// the instruction at pc is first replaced by hand ("r99" or "L99"),
	// an operand only a Program built by hand can hold.
	run func(src string, pc, slot int, hand string) (faultRecord, error)
}

// faultHand are the operands the assembler rejects: a register number
// past the register file, and an undefined code label.
var faultHand = []string{"r99", "L99"}

// sortedMnemonics returns the mnemonics of an instruction table, sorted.
func sortedMnemonics(instrs map[string]simcore.Info) []string {
	var mns []string
	for mn := range instrs {
		mns = append(mns, mn)
	}
	sort.Strings(mns)
	return mns
}

var faultSims = []faultSim{
	{
		name:      "vax",
		mnemonics: sortedMnemonics(vaxsim.Instrs()),
		move:      "movl $%d,%s",
		jump:      "jbr %s",
		result:    "movl r1,r0",
		forms:     []string{"$7", "_g", "_nope", "r1[r2]"},
		run: func(src string, pc, slot int, hand string) (faultRecord, error) {
			p, err := vaxsim.Assemble(src)
			if err != nil {
				return faultRecord{}, err
			}
			if hand != "" {
				q := &vaxsim.Program{Instrs: slices.Clone(p.Instrs), Labels: p.Labels, Globals: p.Globals}
				in := &q.Instrs[pc]
				in.Ops = slices.Clone(in.Ops)
				in.Ops[slot] = vaxsim.Operand{Mode: vaxsim.MReg, Reg: 99, Index: -1}
				if hand == "L99" {
					in.Ops[slot] = vaxsim.Operand{Mode: vaxsim.MLabel, Sym: hand, Index: -1}
				}
				p = q
			}
			return newFaultRecord(vaxsim.New(p).Call("_f")), nil
		},
	},
	{
		name:      "risc",
		mnemonics: sortedMnemonics(riscsim.Instrs()),
		move:      "li %[2]s,$%[1]d",
		jump:      "jmp %s",
		result:    "mv r0,r1",
		forms:     []string{"$7", "_g", "_nope"},
		run: func(src string, pc, slot int, hand string) (faultRecord, error) {
			p, err := riscsim.Assemble(src)
			if err != nil {
				return faultRecord{}, err
			}
			if hand != "" {
				q := &riscsim.Program{Instrs: slices.Clone(p.Instrs), Labels: p.Labels, Globals: p.Globals}
				in := &q.Instrs[pc]
				in.Ops = slices.Clone(in.Ops)
				in.Ops[slot] = riscsim.Operand{Mode: riscsim.MReg, Reg: 99}
				if hand == "L99" {
					in.Ops[slot] = riscsim.Operand{Mode: riscsim.MLabel, Sym: hand}
				}
				p = q
			}
			return newFaultRecord(riscsim.New(p).Call("_f")), nil
		},
	},
}

// faultBase are the operands a well-formed instruction is built from, in
// the order they are tried.
var faultBase = []string{"r1", "$1", "_g", "L1"}

// program places instr at pc 2 of _f, after r1 = 3 and r2 = 5, and
// before L1, which returns r1. With skip the instruction is at pc 3,
// jumped over to L2, which returns 0.
func (s faultSim) program(instr string, skip bool) (string, int) {
	src := ".data\n_g:\t.space 64\n.text\n_f:\t.word 0\n\t" +
		fmt.Sprintf(s.move, 3, "r1") + "\n\t" + fmt.Sprintf(s.move, 5, "r2") + "\n"
	pc := 2
	if skip {
		src += "\t" + fmt.Sprintf(s.jump, "L2") + "\n"
		pc = 3
	}
	return src + "\t" + instr + "\nL1:\t" + s.result + "\n\tret\nL2:\tret\n", pc
}

// wellFormed returns the first operand list, fewest operands first, with
// which mn runs clean.
func (s faultSim) wellFormed(t *testing.T, mn string) ([]string, bool) {
	for n := 0; n <= 4; n++ {
		ops := make([]string, n)
		var try func(i int) bool
		try = func(i int) bool {
			if i == n {
				src, _ := s.program(mn+" "+strings.Join(ops, ","), false)
				rec, err := s.run(src, 0, 0, "")
				if err != nil {
					t.Fatalf("%s: %s: %v", s.name, mn, err)
				}
				return rec.Fault == ""
			}
			for _, o := range faultBase {
				ops[i] = o
				if try(i + 1) {
					return true
				}
			}
			return false
		}
		if try(0) {
			return ops, true
		}
	}
	return nil, false
}

// simFaults runs, for every mnemonic of both simulators, its well-formed
// instruction and every ill-formed shape around it: one operand too few
// or too many, and each operand slot in turn holding an immediate, an
// absolute data operand, an undefined data symbol, on the VAX an indexed
// register, and (built by hand) register 99 and an undefined code label.
// It keys each record by target and instruction text. Every shape that
// faults must run clean when it is jumped over.
func simFaults(t *testing.T) map[string]faultRecord {
	t.Helper()
	out := make(map[string]faultRecord)
	for _, s := range faultSims {
		for _, mn := range s.mnemonics {
			base, ok := s.wellFormed(t, mn)
			if !ok {
				t.Errorf("%s: %s: no well-formed operand list", s.name, mn)
				continue
			}
			type shape struct {
				ops  []string
				slot int
				hand string
			}
			shapes := []shape{{ops: base}, {ops: append(slices.Clone(base), "r1")}}
			if len(base) > 0 {
				shapes = append(shapes, shape{ops: base[:len(base)-1]})
			}
			for i := range base {
				for _, f := range s.forms {
					ops := slices.Clone(base)
					ops[i] = f
					shapes = append(shapes, shape{ops: ops})
				}
				for _, h := range faultHand {
					ops := slices.Clone(base)
					ops[i] = h
					shapes = append(shapes, shape{ops: ops, slot: i, hand: h})
				}
			}
			for _, sh := range shapes {
				text := strings.TrimSpace(mn + " " + strings.Join(sh.ops, ","))
				key := s.name + "/" + text
				if _, dup := out[key]; dup {
					continue
				}
				asm := text
				if sh.hand != "" {
					// Assemble a register where the hand-built operand goes.
					ops := slices.Clone(sh.ops)
					ops[sh.slot] = "r1"
					asm = mn + " " + strings.Join(ops, ",")
				}
				for _, skip := range []bool{false, true} {
					src, pc := s.program(asm, skip)
					rec, err := s.run(src, pc, sh.slot, sh.hand)
					if err != nil {
						t.Fatalf("%s: assemble: %v", key, err)
					}
					if !skip {
						out[key] = rec
					} else if rec.Fault != "" || rec.Result != 0 {
						t.Errorf("%s: faults when jumped over: %+v", key, rec)
					}
					if rec.Fault == "" {
						break
					}
				}
			}
		}
	}
	return out
}

// TestSimFaultGolden: every instruction shape in simFaults faults with
// exactly the error, PC and line recorded in testdata/sim_faults.json, or
// runs clean with the recorded result, so moving the simulators' operand
// checks cannot change what a malformed instruction does, or when.
func TestSimFaultGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "sim_faults.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]faultRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got := simFaults(t)
	if !bytes.Equal(data, encodeFaults(got)) {
		for key, w := range want {
			if g, ok := got[key]; !ok {
				t.Errorf("%s: not run", key)
			} else if g != w {
				t.Errorf("%s:\n got %+v\nwant %+v", key, g, w)
			}
		}
		for key := range got {
			if _, ok := want[key]; !ok {
				t.Errorf("%s: not recorded", key)
			}
		}
	}
}

// encodeFaults renders the records as testdata/sim_faults.json holds
// them: one sorted key per line.
func encodeFaults(recs map[string]faultRecord) []byte {
	keys := make([]string, 0, len(recs))
	for k := range recs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteString("{\n")
	for i, k := range keys {
		kj, _ := json.Marshal(k)
		vj, _ := json.Marshal(recs[k])
		b.WriteString("  " + string(kj) + ": " + string(vj))
		if i < len(keys)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return b.Bytes()
}
