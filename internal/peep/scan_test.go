package peep_test

import (
	"strings"
	"sync"
	"testing"

	"ggcg/internal/cfront"
	"ggcg/internal/codegen"
	"ggcg/internal/corpus"
	"ggcg/internal/pcc"
	"ggcg/internal/peep"
	_ "ggcg/internal/risc" // registers the RISC target
	"ggcg/internal/target"
)

// refLine, refParse and refRender are the line-list parser and renderer
// the record scanner replaced, kept as the reference its normalization
// must reproduce.
type refLine struct {
	label bool
	raw   string // directive text, or label name
	mn    string
	ops   []string
}

func refParse(src string) []refLine {
	var out []refLine
	for _, raw := range strings.Split(src, "\n") {
		text := strings.TrimRight(raw, " \t")
		if text == "" {
			continue
		}
		trimmed := strings.TrimSpace(text)
		for {
			colon := strings.IndexByte(trimmed, ':')
			if colon <= 0 || strings.ContainsAny(trimmed[:colon], " \t,$(") {
				break
			}
			out = append(out, refLine{label: true, raw: trimmed[:colon]})
			trimmed = strings.TrimSpace(trimmed[colon+1:])
		}
		if trimmed == "" {
			continue
		}
		if strings.HasPrefix(trimmed, ".") {
			raw := text
			if len(out) > 0 && out[len(out)-1].label && !strings.HasPrefix(text, ".") {
				raw = "\t" + trimmed
			}
			out = append(out, refLine{raw: raw})
			continue
		}
		mn := trimmed
		var ops []string
		if i := strings.IndexAny(trimmed, " \t"); i >= 0 {
			mn = trimmed[:i]
			rest := strings.TrimSpace(trimmed[i+1:])
			if rest != "" {
				for _, o := range strings.Split(rest, ",") {
					ops = append(ops, strings.TrimSpace(o))
				}
			}
		}
		out = append(out, refLine{mn: mn, ops: ops})
	}
	return out
}

func refRender(lines []refLine) string {
	var b strings.Builder
	for _, l := range lines {
		switch {
		case l.label:
			b.WriteString(l.raw + ":")
		case l.mn == "":
			b.WriteString(l.raw)
		case len(l.ops) == 0:
			b.WriteString("\t" + l.mn)
		default:
			b.WriteString("\t" + l.mn + "\t" + strings.Join(l.ops, ","))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FuzzScanRender: on arbitrary bytes, scanning into records and rendering
// with no rule fired equals the reference normalization, and neither
// optimizer entry point panics.
func FuzzScanRender(f *testing.F) {
	for _, src := range corpusOutputs(f) {
		f.Add(src)
	}
	for _, src := range []string{
		"_f:\t.word 0\n\tret\n",
		"L1: L2:\tjbr\tL1\n  .word 0\nL3:\n  .align 2\n",
		".L1: .word\n\tmovl\t a , b ,\n\tret \t \n",
		"\u00a0\tmovl\u2003r0,r1\u00a0\n\u0085L1:\u00a0\n",
		"\tjbr\tL1+4\nL1:\t\tcmpl\tr0,$1,\n\n\r\n:x\n",
		"\tmovl r0,r1\n movl\tr0,r1\n\tret \n\tret\t\n  .text\nL9:\n .word 0\n",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if got, want := peep.ScanRender(src), refRender(refParse(src)); got != want {
			t.Fatalf("scan+render of %q:\n got %q\nwant %q", src, got, want)
		}
		peep.Optimize(src)
		peep.OptimizeRISC(src)
	})
}

// corpusOutputs returns the unoptimized vax, risc and pcc output of every
// corpus program.
func corpusOutputs(tb testing.TB) []string {
	tb.Helper()
	var outs []string
	for _, p := range corpus.Programs() {
		u, err := cfront.Compile(p.Src)
		if err != nil {
			tb.Fatalf("%s: %v", p.Name, err)
		}
		for _, tgt := range []string{"vax", "risc"} {
			mach, err := target.Lookup(tgt)
			if err != nil {
				tb.Fatal(err)
			}
			res, err := codegen.Compile(u, codegen.Options{Target: mach})
			if err != nil {
				tb.Fatalf("%s/%s: %v", tgt, p.Name, err)
			}
			outs = append(outs, res.Asm)
		}
		base, err := pcc.Compile(u)
		if err != nil {
			tb.Fatalf("pcc/%s: %v", p.Name, err)
		}
		outs = append(outs, base.Asm)
	}
	return outs
}

// TestConcurrentCalls: calls from several goroutines share the unit pool
// and the class tables, and each returns what a lone call returns.
func TestConcurrentCalls(t *testing.T) {
	srcs := corpusOutputs(t)
	type result struct {
		vax, risc string
	}
	want := make([]result, len(srcs))
	for i, src := range srcs {
		want[i].vax, _ = peep.Optimize(src)
		want[i].risc, _ = peep.OptimizeRISC(src)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range srcs {
				i := (k + g*len(srcs)/4) % len(srcs)
				if got, _ := peep.Optimize(srcs[i]); got != want[i].vax {
					t.Errorf("goroutine %d: Optimize of source %d differs from a lone call", g, i)
				}
				if got, _ := peep.OptimizeRISC(srcs[i]); got != want[i].risc {
					t.Errorf("goroutine %d: OptimizeRISC of source %d differs from a lone call", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
}
