package covguide

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"ggcg/internal/cfront"
	"ggcg/internal/irinterp"
	"ggcg/internal/progen"
)

// sweep scales a sweep's options for the build. Under the race detector,
// which makes every compile about ten times slower, it keeps a quarter of
// the candidate budget and a tenth of the default shrink budget (most of
// a short run's compiles minimize admitted entries); otherwise it changes
// nothing.
func sweep(o Options) Options {
	if raceEnabled {
		o.Budget /= 4
		o.ShrinkBudget = 25
	}
	return o
}

// TestGuidedBeatsRandom is the issue's acceptance comparison at a tier-1
// budget: with the same seed and candidate budget, the guided engine must
// cover strictly more productions than the random sweep. (CI repeats this
// at the full 2000-candidate budget via cmd/ggfuzz.)
func TestGuidedBeatsRandom(t *testing.T) {
	opt := sweep(Options{Seed: 1, Budget: 300})
	g, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RandomSweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	gp, rp := g.Prods.Count(), r.Prods.Count()
	if gp <= rp {
		t.Errorf("guided covered %d productions, random %d — guided must cover strictly more", gp, rp)
	}
	if gs, rs := g.States.Count(), r.States.Count(); gs <= rs {
		t.Errorf("guided entered %d states, random %d", gs, rs)
	}
	if len(g.Corpus) == 0 {
		t.Error("guided run admitted no corpus entries")
	}
}

// TestReplayDeterministic: same seed and budget twice → identical coverage
// bitmap, identical corpus, identical report. This is what lets CI cache
// and replay guided corpora meaningfully.
func TestReplayDeterministic(t *testing.T) {
	opt := sweep(Options{Seed: 9, Budget: 200})
	a, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if BitmapHash(a.Prods, a.States) != BitmapHash(b.Prods, b.States) {
		t.Error("coverage bitmaps differ between identical runs")
	}
	if CorpusHash(a.Corpus) != CorpusHash(b.Corpus) {
		t.Error("corpora differ between identical runs")
	}
	if a.Candidates != b.Candidates || a.CompileFailed != b.CompileFailed {
		t.Errorf("candidate accounting differs: (%d,%d) vs (%d,%d)",
			a.Candidates, a.CompileFailed, b.Candidates, b.CompileFailed)
	}
	var ja, jb bytes.Buffer
	if err := a.Report("guided", 9, opt.Budget).WriteJSON(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.Report("guided", 9, opt.Budget).WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Error("reports differ between identical runs")
	}
}

// TestCorpusRoundTrip: a corpus survives save/load exactly, and replaying
// it as the seed corpus restores its coverage contribution.
func TestCorpusRoundTrip(t *testing.T) {
	res, err := Run(sweep(Options{Seed: 3, Budget: 150}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Corpus) == 0 {
		t.Fatal("no corpus to round-trip")
	}
	path := filepath.Join(t.TempDir(), "corpus.json")
	if err := SaveCorpus(path, res.Corpus); err != nil {
		t.Fatal(err)
	}
	progs, err := LoadCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != len(res.Corpus) {
		t.Fatalf("loaded %d programs, saved %d", len(progs), len(res.Corpus))
	}
	for i, p := range progs {
		if p.Hash() != res.Corpus[i].Prog.Hash() {
			t.Fatalf("corpus entry %d does not round-trip", i)
		}
	}

	// Replaying just the corpus (budget = corpus size) must reproduce at
	// least every production the corpus entries were admitted for.
	replayOpt := sweep(Options{Seed: 3, InitialSeeds: 1, SeedCorpus: progs})
	replayOpt.Budget = len(progs)
	replay, err := Run(replayOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !covers(replay.Prods, res.Prods) {
		// The corpus holds minimized programs; together they must still
		// dominate the full run's production set minus what only
		// non-admitted candidates contributed — so check the corpus
		// entries' own union instead of the whole-run bitmap.
		var want Bitmap
		for _, en := range res.Corpus {
			pb, _, ok := measureAlone(en.Prog)
			if !ok {
				t.Fatalf("corpus entry no longer compiles")
			}
			want, _ = orInto(want, pb)
		}
		if !covers(replay.Prods, want) {
			t.Error("replayed corpus lost production coverage")
		}
	}

	if _, err := LoadCorpus(filepath.Join(t.TempDir(), "absent.json")); err != nil {
		t.Errorf("missing corpus file should be an empty corpus, got %v", err)
	}
}

// TestReportRoundTrip: report JSON save/load and the human table.
func TestReportRoundTrip(t *testing.T) {
	res, err := RandomSweep(Options{Seed: 2, Budget: 40})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report("random", 2, 40)
	if rep.Productions == 0 || rep.CoveredProds == 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	if len(rep.Prods) != rep.Productions {
		t.Errorf("report lists %d productions, universe is %d", len(rep.Prods), rep.Productions)
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := SaveReport(path, rep); err != nil {
		t.Fatal(err)
	}
	back, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.CoveredProds != rep.CoveredProds || back.Mode != rep.Mode || len(back.Prods) != len(rep.Prods) {
		t.Errorf("report does not round-trip: %+v vs %+v", back, rep)
	}
	var tbl bytes.Buffer
	rep.WriteTable(&tbl)
	for _, want := range []string{"productions covered:", "hottest productions:", "never fired"} {
		if !strings.Contains(tbl.String(), want) {
			t.Errorf("table missing %q:\n%s", want, tbl.String())
		}
	}
}

// TestCheckStopsRun: the oracle hook stops the run at the first failure
// and the partial result still comes back.
func TestCheckStopsRun(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	res, err := Run(sweep(Options{Seed: 1, Budget: 100, Check: func(p *progen.Prog, cand int) error {
		calls++
		if calls == 5 {
			return boom
		}
		return nil
	}}))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 5 {
		t.Errorf("check ran %d times, want 5", calls)
	}
	if res == nil || res.Candidates == 0 {
		t.Error("partial result missing")
	}
}

// TestMutantsCompile: every mutator, applied repeatedly across seeds,
// produces programs the front end accepts — an invalid mutant wastes
// budget, so validity is part of each mutator's contract.
func TestMutantsCompile(t *testing.T) {
	e := &engine{r: &rng{s: 12345}, res: &Result{}, seen: map[uint64]bool{}}
	e.corpus = []*Entry{{Prog: progen.Generate(11), Gain: 1}, {Prog: progen.Generate(12), Gain: 1}}
	e.res.Corpus = e.corpus
	for _, m := range mutators {
		applied, checked := 0, 0
		for seed := int64(0); seed < 8; seed++ {
			p := progen.Generate(seed)
			for k := 0; k < 6; k++ {
				q := p.Clone()
				if !m.fn(q, e.r, e) {
					continue
				}
				applied++
				if _, err := cfront.Compile(q.Render()); err != nil {
					t.Errorf("%s: mutant does not compile: %v\n%s", m.name, err, q.Render())
				} else {
					checked++
				}
			}
		}
		if applied == 0 {
			t.Errorf("%s: never applicable across 8 seeds", m.name)
		}
	}
}

// TestLoopBounded pins the splice-hazard regression: minimized corpus
// members may hold unreachable loops whose conditions shrank to
// constants, and splicing one into live code must be refused.
func TestLoopBounded(t *testing.T) {
	for stmt, want := range map[string]bool{
		"\t{ int w1 = 0; while (w1 < 5) {\n\tu1 |= 0;\n\tw1++; } }\n":   true,
		"\t{ int w1 = 0; while (0 < 5) {\n\tu1 |= 0;\n\tw1++; } }\n":    false,
		"\t{ int i2; for (i2 = 0; i2 < 3; i2++) {\n\tg0 = i2;\n\t} }\n": true,
		"\t{ int i2; for (i2 = 0; 0 < 3; i2++) {\n\tg0 = i2;\n\t} }\n":  false,
		"\tg0 = (g1 + 2);\n": true,
		"\t{ int w1 = 0; while (w1 < 5) {\n\twhile (0 < 2) { }\n\t} }\n":  false,
		"\t{ int w1 = 0; while (0 < 5) {\n\twhile (w1 < 2) { }\n\t} }\n":  false,
		"\t{ int w1 = 0; while (w1 < 5) {\n\twhile (w1 < 2) { }\n\t} }\n": true,
	} {
		if got := loopBounded(stmt); got != want {
			t.Errorf("loopBounded(%q) = %v, want %v", stmt, got, want)
		}
	}
}

// TestCorpusExecutable: every admitted corpus entry must run to
// completion under the reference interpreter — minimization may only
// strip a program down to something still executable, or it cannot serve
// as a mutation parent for oracle-checked candidates.
func TestCorpusExecutable(t *testing.T) {
	res, err := Run(sweep(Options{Seed: 1, Budget: 300}))
	if err != nil {
		t.Fatal(err)
	}
	for i, en := range res.Corpus {
		u, cerr := cfront.Compile(en.Prog.Render())
		if cerr != nil {
			t.Fatalf("corpus[%d] does not compile: %v", i, cerr)
		}
		if _, ierr := irinterp.New(u).Call("main"); ierr != nil {
			t.Errorf("corpus[%d] does not execute: %v\n%s", i, ierr, en.Prog.Render())
		}
	}
}

// Bitmap unit tests.
func TestBitmapOps(t *testing.T) {
	var b Bitmap
	b, gain := orInto(b, Bitmap{0b1011})
	if gain != 3 || b.Count() != 3 {
		t.Fatalf("orInto gain %d count %d", gain, b.Count())
	}
	b, gain = orInto(b, Bitmap{0b1100, 1})
	if gain != 2 || b.Count() != 5 {
		t.Fatalf("second orInto gain %d count %d", gain, b.Count())
	}
	if !covers(b, Bitmap{0b1000}) || covers(b, Bitmap{0b10000}) {
		t.Error("covers is wrong")
	}
	if d := andNot(Bitmap{0b1111}, Bitmap{0b0101}); d[0] != 0b1010 {
		t.Errorf("andNot = %b", d[0])
	}
}
