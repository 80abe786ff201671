package ggcg

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ggcg/internal/cfront"
	"ggcg/internal/codegen"
	"ggcg/internal/corpus"
	"ggcg/internal/ir"
	"ggcg/internal/pcc"
	"ggcg/internal/peep"
	"ggcg/internal/progen"
	"ggcg/internal/target"
)

// peepGoldenUnit is one source unit of the peephole golden set.
type peepGoldenUnit struct {
	name string
	src  string
}

// peepGoldenUnits lists the golden set's units: the validation corpus,
// five corpus.Large sizes and progen seeds 1..seeds.
func peepGoldenUnits(seeds int) []peepGoldenUnit {
	var units []peepGoldenUnit
	for _, p := range corpus.Programs() {
		units = append(units, peepGoldenUnit{"corpus/" + p.Name, p.Src})
	}
	for _, n := range []int{3, 12, 20, 40, 60} {
		units = append(units, peepGoldenUnit{"large/" + strconv.Itoa(n), corpus.Large(n)})
	}
	for s := 1; s <= seeds; s++ {
		units = append(units, peepGoldenUnit{"progen/" + strconv.Itoa(s), progen.Generate(int64(s)).Render()})
	}
	return units
}

// peepDigest hashes one optimized unit: its assembly and every Stats field.
func peepDigest(asm string, st peep.Stats) string {
	h := sha256.New()
	h.Write([]byte(asm))
	fmt.Fprintf(h, "\x00%+v", st)
	return hex.EncodeToString(h.Sum(nil))
}

// peepGolden optimizes every golden unit three ways — vax -O, risc -O,
// and the pcc baseline through peep.Optimize — keyed generator/unit.
func peepGolden(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, u := range peepGoldenUnits(400) {
		unit, err := cfront.Compile(u.src)
		if err != nil {
			t.Fatalf("%s: %v", u.name, err)
		}
		for _, tgt := range []string{"vax", "risc"} {
			mach, err := target.Lookup(tgt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := codegen.Compile(unit, codegen.Options{Target: mach, Peephole: true})
			if err != nil {
				t.Fatalf("%s/%s: %v", tgt, u.name, err)
			}
			out[tgt+"/"+u.name] = peepDigest(res.Asm, res.Stats.Peephole)
		}
		base, err := pcc.Compile(unit)
		if err != nil {
			t.Fatalf("pcc/%s: %v", u.name, err)
		}
		out["pcc/"+u.name] = peepDigest(peep.Optimize(base.Asm))
	}
	return out
}

// TestPeepGolden: the peephole output and statistics of every golden unit
// match testdata/peep_golden.json, recorded from the optimizer's earlier
// line-list implementation, so a change to how the peephole represents a
// unit cannot change what it produces or counts.
func TestPeepGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "peep_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got := peepGolden(t)
	for key, w := range want {
		if g, ok := got[key]; !ok {
			t.Errorf("%s: not run", key)
		} else if g != w {
			t.Errorf("%s: digest %s, want %s", key, g, w)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: no recorded digest", key)
		}
	}
}

// peepInput is one generator's unoptimized output and the peephole pass
// that generator runs over it.
type peepInput struct {
	name     string
	asm      string
	optimize func(string) (string, peep.Stats)
}

// peepInputs compiles u without the peephole for vax, risc and the pcc
// baseline.
func peepInputs(tb testing.TB, u *ir.Unit) []peepInput {
	tb.Helper()
	var ins []peepInput
	for _, tgt := range []string{"vax", "risc"} {
		mach, err := target.Lookup(tgt)
		if err != nil {
			tb.Fatal(err)
		}
		res, err := codegen.Compile(u, codegen.Options{Target: mach})
		if err != nil {
			tb.Fatal(err)
		}
		ins = append(ins, peepInput{tgt, res.Asm, mach.Peephole})
	}
	base, err := pcc.Compile(u)
	if err != nil {
		tb.Fatal(err)
	}
	return append(ins, peepInput{"pcc", base.Asm, peep.Optimize})
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestPeepholeAllocBudget: one peephole call over a generator's
// corpus.Large(40) output, on warmed pools, allocates a handful of objects
// — the returned text and whatever strings a firing rule builds — however
// many lines the unit has.
func TestPeepholeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under the race detector")
	}
	u, err := cfront.Compile(corpus.Large(40))
	if err != nil {
		t.Fatal(err)
	}
	const budget = 8
	for _, p := range peepInputs(t, u) {
		p.optimize(p.asm) // warm the pools and the class table
		avg := testing.AllocsPerRun(20, func() { p.optimize(p.asm) })
		if avg > budget {
			t.Errorf("%s: peephole allocations: %.0f allocs/op, budget %d", p.name, avg, budget)
		}
	}
}

// TestAsmLinesMatchAsm: Stats.AsmLines counts exactly the instruction
// lines of the returned assembly, for every generator with the peephole on
// and off — the line count the optimizer subtracts is the one the
// emitters added, so it can never go negative.
func TestAsmLinesMatchAsm(t *testing.T) {
	configs := []Config{{Target: "vax"}, {Target: "risc"}, {Baseline: true}}
	for _, u := range peepGoldenUnits(100) {
		if strings.HasPrefix(u.name, "large/") {
			continue
		}
		for _, cfg := range configs {
			for _, opt := range []bool{false, true} {
				cfg.Peephole = opt
				out, err := Compile(u.src, cfg)
				if err != nil {
					t.Fatalf("%s %+v: %v", u.name, cfg, err)
				}
				if n := instrLines(out.Asm); out.Stats.AsmLines != n {
					t.Errorf("%s target=%s baseline=%v peephole=%v: AsmLines = %d, assembly has %d instructions",
						u.name, cfg.Target, cfg.Baseline, opt, out.Stats.AsmLines, n)
				}
			}
		}
	}
}

// instrLines counts the instruction lines of assembly text: tab-indented
// lines that are not directives.
func instrLines(asm string) int {
	n := 0
	for _, l := range strings.Split(asm, "\n") {
		if strings.HasPrefix(l, "\t") && !strings.HasPrefix(l, "\t.") {
			n++
		}
	}
	return n
}
