package ggcg

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"ggcg/internal/corpus"
)

// simRecord is one program's run on one target's simulator: the result
// and the whole dynamic profile, func steps included.
type simRecord struct {
	Result    int64            `json:"result"`
	Err       string           `json:"err,omitempty"`
	Steps     int64            `json:"steps"`
	Opcodes   map[string]int64 `json:"opcodes"`
	Modes     map[string]int64 `json:"modes"`
	FuncSteps map[string]int64 `json:"func_steps"`
}

// simProfiles runs every corpus program and every examples/c program on
// both targets with per-function profiling on, keyed target/program.
func simProfiles(t *testing.T) map[string]simRecord {
	t.Helper()
	type prog struct {
		name string
		src  string
		args []int64
	}
	var progs []prog
	for _, p := range corpus.Programs() {
		progs = append(progs, prog{"corpus/" + p.Name, p.Src, p.Args})
	}
	srcs := exampleSources(t)
	names := make([]string, 0, len(srcs))
	for n := range srcs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		progs = append(progs, prog{"examples/" + n, srcs[n], nil})
	}

	out := make(map[string]simRecord)
	for _, tgt := range []string{"vax", "risc"} {
		for _, p := range progs {
			key := tgt + "/" + p.name
			res, err := Compile(p.src, Config{Target: tgt})
			if err != nil {
				t.Fatalf("%s: compile: %v", key, err)
			}
			run := func(funcProfile bool) simRecord {
				s, err := NewSim(tgt, res.Asm)
				if err != nil {
					t.Fatalf("%s: assemble: %v", key, err)
				}
				if funcProfile {
					s.EnableFuncProfile()
				}
				var r simRecord
				if r.Result, err = s.Call("_main", p.args...); err != nil {
					r.Err = err.Error()
				}
				prof := s.Profile()
				r.Steps, r.Opcodes, r.Modes, r.FuncSteps = s.Steps(), prof.Opcodes, prof.Modes, prof.FuncSteps
				if prof.Steps != r.Steps {
					t.Errorf("%s: Profile().Steps = %d, Steps() = %d", key, prof.Steps, r.Steps)
				}
				return r
			}
			r := run(true)
			plain := run(false)
			if plain.FuncSteps != nil {
				t.Errorf("%s: func steps without EnableFuncProfile: %v", key, plain.FuncSteps)
			}
			plain.FuncSteps = r.FuncSteps
			if !reflect.DeepEqual(plain, r) {
				t.Errorf("%s: EnableFuncProfile changed the run:\n%+v\n%+v", key, plain, r)
			}
			out[key] = r
		}
	}
	return out
}

// TestSimProfileGolden: every program's result, step count and profile
// (opcode, addressing-mode and per-function counts) on both simulators
// match the recorded testdata/sim_profiles.json exactly, so a change to
// how the simulators execute cannot silently change what they count.
func TestSimProfileGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "sim_profiles.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]simRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got := simProfiles(t)
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: not run", key)
			continue
		}
		if !reflect.DeepEqual(g, w) {
			gj, _ := json.Marshal(g)
			wj, _ := json.Marshal(w)
			t.Errorf("%s:\n got %s\nwant %s", key, gj, wj)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: no recorded profile", key)
		}
	}
}
