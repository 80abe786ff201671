// Ggfuzz drives the differential fuzzing harness: it generates seeded
// random programs (internal/progen) and cross-checks every execution path
// of the repository against every other (internal/diffexec) — reference
// interpreter, table-driven output, ad hoc baseline, peephole on/off,
// reverse operators on/off, and batch vs sequential compilation bytes. With -metamorphic each program is
// additionally rewritten through semantics-preserving transformations
// (operand commutes, strength rewrites, neutral elements, statement
// reorders, dead stores) whose outputs must execute to the same value.
//
// With -guided the random sweep is replaced by the coverage-guided
// mutation engine (internal/covguide): candidates are measured against
// the machine-description grammar, programs that reduce by productions no
// earlier candidate reached are kept (minimized) in a corpus, and corpus
// members are mutated with a bias toward grammar regions still at zero.
// The engine is deterministic: same -seed and -n → same coverage bitmap
// and same corpus, regardless of machine.
//
// A passing run ends with a summary line: the candidates, the time, and
// two rates, candidates per second and exec/s, the differential checks
// (one program through the plain or the metamorphic oracle lattice) per
// second.
//
// On a mismatch the failing program is shrunk to a minimal reproducer,
// written under -repro-dir, and printed with its seed. If the shrinker
// itself fails (the reduction no longer reproduces), ggfuzz says so
// explicitly, writes the original program as the reproducer, and still
// exits non-zero.
//
// Usage:
//
//	ggfuzz [flags]
//
//	-n N              number of candidates (seeds, or guided budget; default 1000)
//	-target name      backend under differential test (default vax; the
//	                  pcc oracles run only on the VAX)
//	-seed S           base seed (default 1)
//	-j W              parallel workers for the random sweep (0 = GOMAXPROCS)
//	-q                suppress the progress line
//	-guided           coverage-guided mutation engine instead of the random sweep
//	-metamorphic      also run the metamorphic oracle on every candidate
//	-check            cross-check candidates with the differential oracle (default true)
//	-corpus FILE      guided corpus to load before and save after the run
//	-cover-report F   write the per-production coverage report (JSON) to F
//	-cover-table      print the human-readable coverage table
//	-cover-floor F    fail if covered productions drop below the report in F
//	-repro-dir DIR    where failure reproducers are written (default ".")
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ggcg/internal/covguide"
	"ggcg/internal/diffexec"
	"ggcg/internal/obs"
	"ggcg/internal/progen"
)

func main() {
	var (
		n       = flag.Int("n", 1000, "number of candidates to check")
		tgt     = flag.String("target", "", "backend under differential test (default vax)")
		seed    = flag.Int64("seed", 1, "base seed")
		jobs    = flag.Int("j", 0, "parallel workers (0 = GOMAXPROCS)")
		quiet   = flag.Bool("q", false, "suppress the progress line")
		guided  = flag.Bool("guided", false, "coverage-guided mutation engine")
		meta    = flag.Bool("metamorphic", false, "run the metamorphic oracle on every candidate")
		check   = flag.Bool("check", true, "cross-check candidates with the differential oracle")
		corpus  = flag.String("corpus", "", "guided corpus file (loaded before, saved after)")
		report  = flag.String("cover-report", "", "write the coverage report (JSON) here")
		table   = flag.Bool("cover-table", false, "print the human-readable coverage table")
		floor   = flag.String("cover-floor", "", "fail if covered productions drop below this report")
		reproTo = flag.String("repro-dir", ".", "directory for failure reproducers")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "ggfuzz: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	start := time.Now()
	var rep *covguide.Report
	var err error
	if *guided {
		rep, err = runGuided(*seed, *n, *meta, *check, *corpus, *tgt)
	} else {
		rep, err = runRandom(*seed, *n, *jobs, *meta, *report != "" || *floor != "" || *table, *tgt)
	}
	if err != nil {
		fail(err, *reproTo)
	}

	if *report != "" {
		if err := covguide.SaveReport(*report, rep); err != nil {
			fmt.Fprintf(os.Stderr, "ggfuzz: writing %s: %v\n", *report, err)
			os.Exit(1)
		}
	}
	if *table && rep != nil {
		rep.WriteTable(os.Stdout)
	}
	if *floor != "" {
		f, err := covguide.LoadReport(*floor)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ggfuzz: loading coverage floor: %v\n", err)
			os.Exit(1)
		}
		if rep.CoveredProds < f.CoveredProds {
			fmt.Fprintf(os.Stderr,
				"ggfuzz: FAIL: coverage regression: %d productions covered, floor is %d (from %s)\n",
				rep.CoveredProds, f.CoveredProds, *floor)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Printf("ggfuzz: coverage floor ok: %d covered ≥ floor %d\n", rep.CoveredProds, f.CoveredProds)
		}
	}
	if !*quiet {
		el := time.Since(start)
		mode := "random"
		if *guided {
			mode = "guided"
		}
		cov := ""
		if rep != nil {
			cov = fmt.Sprintf(", %d/%d productions", rep.CoveredProds, rep.Productions)
		}
		fmt.Printf("ggfuzz: PASS: %s, %d candidates%s, %.1fs, %.0f cands/s, %.0f exec/s\n",
			mode, *n, cov, el.Seconds(), float64(*n)/el.Seconds(), float64(execs.Load())/el.Seconds())
	}
}

// execs counts the differential checks run, each one program through
// a diffexec oracle lattice (the plain or the metamorphic one). The
// summary line reports their rate as exec/s, the figure
// BenchmarkDiffExec measures over a fixed seed range.
var execs atomic.Int64

// fail prints the failure, writes a reproducer when the error carries
// source, and exits non-zero. A failed shrink is reported in its own
// words: the reproducer is then the original (unreduced) program, and
// treating it as minimal would be a lie.
func fail(err error, reproDir string) {
	fmt.Fprintf(os.Stderr, "ggfuzz: FAIL: %v\n", err)
	if f, ok := err.(*diffexec.Failure); ok {
		path := filepath.Join(reproDir, fmt.Sprintf("ggfuzz-repro-%d.c", f.Seed))
		if werr := os.WriteFile(path, []byte(f.Source), 0o644); werr != nil {
			fmt.Fprintf(os.Stderr, "ggfuzz: writing reproducer: %v\n", werr)
		} else if f.ShrinkFailed {
			fmt.Fprintf(os.Stderr, "ggfuzz: SHRINKER FAILED for seed %d: reproducer is the ORIGINAL program: %s\n",
				f.Seed, path)
		} else {
			fmt.Fprintf(os.Stderr, "ggfuzz: reproducer written: %s\n", path)
		}
	}
	os.Exit(1)
}

// candidateCheck composes the per-candidate oracles for the guided engine.
func candidateCheck(meta, check bool, target string) func(p *progen.Prog, cand int) error {
	if !meta && !check {
		return nil
	}
	return func(p *progen.Prog, cand int) error {
		if check {
			execs.Add(1)
			if err := diffexec.CheckProg(p, int64(cand), diffexec.Config{Target: target}); err != nil {
				return err
			}
		}
		if meta {
			execs.Add(1)
			if err := diffexec.CheckMetaProg(p, int64(cand), diffexec.Config{Target: target}); err != nil {
				return err
			}
		}
		return nil
	}
}

func runGuided(seed int64, n int, meta, check bool, corpusPath, target string) (*covguide.Report, error) {
	opt := covguide.Options{Seed: seed, Budget: n, Check: candidateCheck(meta, check, target)}
	if corpusPath != "" {
		progs, err := covguide.LoadCorpus(corpusPath)
		if err != nil {
			return nil, err
		}
		opt.SeedCorpus = progs
	}
	res, err := covguide.Run(opt)
	if err != nil {
		return nil, err
	}
	if corpusPath != "" {
		if err := covguide.SaveCorpus(corpusPath, res.Corpus); err != nil {
			return nil, fmt.Errorf("saving corpus: %w", err)
		}
	}
	return res.Report("guided", seed, n), nil
}

// runRandom is the classic parallel seed sweep. The seed set alone
// determines the outcome: worker count and scheduling affect only the
// order in which seeds are checked, and the lowest failing seed is the
// one reported. Coverage, when requested, is measured by per-worker
// observer shards on the same gg compiles that feed the oracle lattice
// and merged at the end — a union, so it is deterministic too.
func runRandom(seed int64, n, jobs int, meta, wantCover bool, target string) (*covguide.Report, error) {
	workers := jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var master *obs.Observer
	if wantCover {
		master = obs.New(obs.Config{})
	}

	var (
		next    atomic.Int64 // next seed offset to claim
		mu      sync.Mutex
		lowest  int64 // lowest failing seed
		anyFail bool
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh := master.Shard()
			defer func() {
				mu.Lock()
				master.Merge(sh)
				mu.Unlock()
			}()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				s := seed + i
				mu.Lock()
				stop := anyFail && s > lowest
				mu.Unlock()
				if stop {
					continue // a lower seed already failed; drain quickly
				}
				p := progen.Generate(s)
				execs.Add(1)
				err := diffexec.Check(p.Render(), diffexec.Config{Obs: sh, Target: target})
				if err == nil && meta {
					execs.Add(1)
					err = diffexec.CheckMetaProg(p, s, diffexec.Config{Target: target})
				}
				if err != nil {
					mu.Lock()
					if !anyFail || s < lowest {
						anyFail, lowest = true, s
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	if anyFail {
		// Re-run the lowest failing seed alone: the re-check shrinks it
		// to a minimal reproducer and formats seed + reduced source.
		err := diffexec.CheckSeed(lowest, diffexec.Config{Target: target})
		if err == nil && meta {
			err = diffexec.CheckMetaProg(progen.Generate(lowest), lowest, diffexec.Config{Target: target})
		}
		if err == nil {
			err = fmt.Errorf("seed %d failed during the sweep but not on re-check", lowest)
		}
		return nil, err
	}

	if master == nil {
		return nil, nil
	}
	pb, sb := master.CoverageBits()
	res := &covguide.Result{
		Prods:      covguide.Bitmap(pb),
		States:     covguide.Bitmap(sb),
		Candidates: n,
		Obs:        master,
	}
	return res.Report("random", seed, n), nil
}
