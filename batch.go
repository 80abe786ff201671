package ggcg

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// BatchConfig configures CompileBatch.
type BatchConfig struct {
	// Workers bounds the number of units compiled concurrently; <= 0
	// uses runtime.GOMAXPROCS(0).
	Workers int

	// Config is the per-unit compilation configuration, applied to every
	// unit of the batch. Config.Observer, if set, receives the merged
	// instrumentation of the whole batch: each worker records into a
	// private shard, folded back once when the pool drains. Shards never
	// inherit a trace sink — the shift/reduce listing is inherently
	// per-unit and would interleave across workers — so a batch writes no
	// listing; trace single units with Compile. Every
	// shard gets its own track id, so the observer's span events carry
	// which worker did what — exported through internal/obs/traceexport
	// (ggcc -tracefile), an 8-worker batch renders as eight parallel
	// timeline tracks. Config.Workers additionally parallelizes the
	// functions within each unit. With Config.Cache set, duplicate units
	// in the batch compile exactly once — concurrent duplicates coalesce
	// onto one in-flight compile, later ones hit the stored entry — and
	// their outputs stay byte-identical to an uncached run. A cache
	// shared across batches amortizes repeated traffic the same way.
	Config Config
}

// BatchError aggregates the per-unit failures of a batch. Units compile
// independently, so one bad unit does not stop the others.
type BatchError struct {
	// Failed maps the index of each failed source to its error.
	Failed map[int]error
}

func (e *BatchError) Error() string {
	// Report the lowest failed index first, like a sequential run would.
	first := -1
	for i := range e.Failed {
		if first < 0 || i < first {
			first = i
		}
	}
	msg := fmt.Sprintf("ggcg: batch: %d of the units failed; first: unit %d: %v",
		len(e.Failed), first, e.Failed[first])
	return msg
}

// Unwrap exposes the individual unit errors to errors.Is/As.
func (e *BatchError) Unwrap() []error {
	out := make([]error, 0, len(e.Failed))
	for _, err := range e.Failed {
		out = append(out, err)
	}
	return out
}

// CompileBatch compiles many source units concurrently on a bounded
// worker pool. The instruction-selection tables — the static half of the
// system (§3) — are constructed exactly once and shared read-only by
// every worker, so the per-unit cost is only the table-driven walk: the
// amortization argument of the paper, extended across concurrent
// compilations.
//
// Results are returned in input order and each unit's output is
// byte-identical to what a sequential Compile of the same source
// produces. If some units fail, their slots are nil and the returned
// error is a *BatchError collecting every failure; the remaining units
// are still compiled and returned.
//
// Each unit's IR is built in a node arena acquired from a process-wide
// pool and released when the unit's compile returns, so a worker churning
// through units keeps reusing the same warmed slabs; returned Compiled
// values never alias arena memory (see DESIGN.md, "Memory ownership and
// arenas").
func CompileBatch(srcs []string, cfg BatchConfig) ([]*Compiled, error) {
	out := make([]*Compiled, len(srcs))
	if len(srcs) == 0 {
		return out, nil
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(srcs) {
		workers = len(srcs)
	}

	// Build the shared tables up front (outside the timed span of any
	// one unit) so workers never race to construct them and the first
	// unit is not charged for the static half. The span puts the
	// once-per-batch static cost on the main track of a timeline trace,
	// where it would otherwise be invisible.
	parent := cfg.Config.Observer
	if !cfg.Config.Baseline {
		mach, err := resolveTarget(cfg.Config)
		if err != nil {
			return nil, err
		}
		tsp := parent.Start("tables")
		_, err = mach.Tables()
		tsp.End()
		if err != nil {
			return nil, err
		}
	}
	errs := make([]error, len(srcs))
	shards := make([]*Observer, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		shard := parent.Shard()
		shards[w] = shard
		wcfg := cfg.Config
		wcfg.Observer = shard
		wg.Add(1)
		go func(wcfg Config) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(srcs) {
					return
				}
				out[i], errs[i] = Compile(srcs[i], wcfg)
			}
		}(wcfg)
	}
	wg.Wait()
	for _, s := range shards {
		parent.Merge(s)
	}

	var failed map[int]error
	for i, err := range errs {
		if err != nil {
			if failed == nil {
				failed = make(map[int]error)
			}
			failed[i] = fmt.Errorf("unit %d: %w", i, err)
		}
	}
	if failed != nil {
		return out, &BatchError{Failed: failed}
	}
	return out, nil
}
