package ggcg

import (
	"ggcg/internal/compcache"
	"ggcg/internal/tablegen"
)

// Cache is a goroutine-safe, content-addressed compile-result cache: a
// bounded LRU keyed by the SHA-256 of the source bytes and a
// configuration fingerprint, with singleflight deduplication so N
// concurrent identical compilations run exactly once. Attach one via
// Config.Cache; a single Cache may be shared by any number of concurrent
// Compile and CompileBatch calls, which is the point — it is the
// serving-layer extension of the once-built tables' amortization
// argument. See internal/compcache for the key contract.
type Cache = compcache.Cache

// CacheConfig bounds a new Cache and optionally attaches a metrics sink;
// *Observer satisfies the Metrics field, so cache counters (cache.hits,
// cache.misses, cache.evictions, cache.inflight_coalesced) flow into the
// same instrumentation vocabulary as everything else.
type CacheConfig = compcache.Config

// CacheStats is a point-in-time snapshot of a Cache's counters.
type CacheStats = compcache.Stats

// NewCache returns an empty compile-result cache.
func NewCache(cfg CacheConfig) *Cache { return compcache.New(cfg) }

// compiledOverhead approximates the fixed per-entry cost (entry struct,
// LRU element, key, Compiled header) charged against CacheConfig
// .MaxBytes on top of the assembly text itself.
const compiledOverhead = 256

// cacheFingerprint derives the configuration half of a cache key from a
// Config: every knob that changes the output (Baseline, Peephole,
// NoReverseOps), the table wire-format version, and — for the
// table-driven generator — the target's name plus the content identity
// of its shared tables. Workers and Observer are deliberately
// excluded: parallel and instrumented compilations are guaranteed
// byte-identical to plain ones.
func cacheFingerprint(cfg Config) (compcache.Fingerprint, error) {
	fp := compcache.Fingerprint{
		Baseline:        cfg.Baseline,
		Peephole:        cfg.Peephole,
		NoReverseOps:    cfg.NoReverseOps,
		EncodingVersion: tablegen.EncodingVersion,
	}
	if !cfg.Baseline {
		mach, err := resolveTarget(cfg)
		if err != nil {
			return fp, err
		}
		id, err := mach.TableID()
		if err != nil {
			return fp, err
		}
		fp.Target = mach.Name()
		fp.TableID = id
	}
	return fp, nil
}

// compileCached serves src from cfg.Cache, compiling it at most once per
// key however many identical requests race. The stored *Compiled is
// shared and immutable; every caller gets a shallow copy with Cached set
// to how its own request was served.
func compileCached(src string, cfg Config) (*Compiled, error) {
	fp, err := cacheFingerprint(cfg)
	if err != nil {
		return nil, err
	}
	key := compcache.KeyFor(src, fp)
	v, hit, err := cfg.Cache.Do(key, func() (any, int64, error) {
		out, err := compile(src, cfg)
		if err != nil {
			return nil, 0, err
		}
		return out, int64(len(out.Asm)) + compiledOverhead, nil
	})
	if err != nil {
		return nil, err
	}
	out := *(v.(*Compiled))
	out.Cached = hit
	return &out, nil
}
