package ggcg

// Differential and concurrency guards for the compile cache: whatever
// the cache does, its observable output must be byte-identical to an
// uncached compile, batch error reporting must not change, and duplicate
// work must actually collapse.

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// exampleSources loads the examples/c/ correctness corpus.
func exampleSources(t testing.TB) map[string]string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join("examples", "c", "*.c"))
	if err != nil || len(names) == 0 {
		t.Fatalf("examples/c corpus: %v (found %d files)", err, len(names))
	}
	srcs := make(map[string]string, len(names))
	for _, n := range names {
		data, err := os.ReadFile(n)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(n)] = string(data)
	}
	return srcs
}

// A cached compile must be byte-identical to a fresh one, across every
// generator configuration, and the second request must be a hit.
func TestCompileCachedMatchesUncached(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Peephole: true},
		{NoReverseOps: true},
		{Baseline: true},
		{Baseline: true, Peephole: true},
	} {
		cache := NewCache(CacheConfig{})
		for name, src := range exampleSources(t) {
			fresh, err := Compile(src, cfg)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, cfg, err)
			}
			ccfg := cfg
			ccfg.Cache = cache
			first, err := Compile(src, ccfg)
			if err != nil {
				t.Fatalf("%s %+v cached: %v", name, cfg, err)
			}
			second, err := Compile(src, ccfg)
			if err != nil {
				t.Fatalf("%s %+v cached repeat: %v", name, cfg, err)
			}
			if first.Cached || !second.Cached {
				t.Errorf("%s %+v: Cached = %v, %v; want false, true", name, cfg, first.Cached, second.Cached)
			}
			if first.Asm != fresh.Asm || second.Asm != fresh.Asm {
				t.Errorf("%s %+v: cached output differs from fresh compile", name, cfg)
			}
			if first.Stats != fresh.Stats || second.Stats != fresh.Stats {
				t.Errorf("%s %+v: cached stats differ: fresh %+v, first %+v, second %+v",
					name, cfg, fresh.Stats, first.Stats, second.Stats)
			}
		}
	}
}

// A batch full of duplicate units compiles each distinct unit exactly
// once and stays byte-identical to an uncached batch over examples/c/.
func TestCompileBatchCachedDifferential(t *testing.T) {
	var srcs []string
	for _, src := range exampleSources(t) {
		srcs = append(srcs, src, src, src) // every unit in triplicate
	}
	unique := len(srcs) / 3

	plain, err := CompileBatch(srcs, BatchConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(CacheConfig{})
	cached, err := CompileBatch(srcs, BatchConfig{Workers: 4, Config: Config{Cache: cache}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range srcs {
		if cached[i].Asm != plain[i].Asm {
			t.Errorf("unit %d: cached batch output differs from uncached", i)
		}
	}
	st := cache.Stats()
	if st.Misses != int64(unique) {
		t.Errorf("misses = %d, want %d (one compile per distinct unit)", st.Misses, unique)
	}
	if want := int64(len(srcs) - unique); st.Hits != want {
		t.Errorf("hits = %d, want %d", st.Hits, want)
	}

	// A second identical batch through the same cache is all hits.
	again, err := CompileBatch(srcs, BatchConfig{Workers: 4, Config: Config{Cache: cache}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range srcs {
		if !again[i].Cached || again[i].Asm != plain[i].Asm {
			t.Errorf("unit %d of warm batch: Cached=%v, identical=%v", i, again[i].Cached, again[i].Asm == plain[i].Asm)
		}
	}
	if st := cache.Stats(); st.Misses != int64(unique) {
		t.Errorf("warm batch recompiled: misses = %d, want still %d", st.Misses, unique)
	}
}

// Different configurations must never share an entry, even through one
// shared cache.
func TestCacheSeparatesConfigurations(t *testing.T) {
	srcs := exampleSources(t)
	src := srcs["gcd.c"]
	if src == "" {
		t.Fatal("gcd.c missing from examples/c")
	}
	cache := NewCache(CacheConfig{})
	plainFresh, err := Compile(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	peepFresh, err := Compile(src, Config{Peephole: true})
	if err != nil {
		t.Fatal(err)
	}
	if plainFresh.Asm == peepFresh.Asm {
		t.Skip("peephole is a no-op on this input; separation unobservable")
	}
	for i := 0; i < 2; i++ {
		plain, err := Compile(src, Config{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		peep, err := Compile(src, Config{Peephole: true, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Asm != plainFresh.Asm || peep.Asm != peepFresh.Asm {
			t.Fatalf("round %d: configurations cross-contaminated through the cache", i)
		}
	}
}

// Compile errors pass through the cache uncached, and a batch with
// failing duplicate units reports the same first error either way.
func TestCacheBatchFirstErrorParity(t *testing.T) {
	good := `int main() { return 7; }`
	bad := `int main() { return x; }` // undeclared identifier
	srcs := []string{good, bad, bad, good, bad}

	_, plainErr := CompileBatch(srcs, BatchConfig{Workers: 4})
	if plainErr == nil {
		t.Fatal("uncached batch of bad units succeeded")
	}
	cache := NewCache(CacheConfig{})
	_, cachedErr := CompileBatch(srcs, BatchConfig{Workers: 4, Config: Config{Cache: cache}})
	if cachedErr == nil {
		t.Fatal("cached batch of bad units succeeded")
	}
	if plainErr.Error() != cachedErr.Error() {
		t.Errorf("first-error parity broken:\nuncached: %v\ncached:   %v", plainErr, cachedErr)
	}
	var be *BatchError
	if !errors.As(cachedErr, &be) || len(be.Failed) != 3 {
		t.Fatalf("cached batch error = %#v, want 3 failed units", cachedErr)
	}
	if st := cache.Stats(); st.Entries != 1 {
		t.Errorf("cache holds %d entries, want 1 (failures must not be stored)", st.Entries)
	}
	// A traced observer bypasses the cache entirely rather than
	// replaying a listing.
	var sb strings.Builder
	out, err := Compile(good, Config{Cache: cache, Observer: tracing(&sb)})
	if err != nil {
		t.Fatal(err)
	}
	if sb.Len() == 0 || out.Cached {
		t.Errorf("traced compile under an attached cache: listing %d bytes, cached %v", sb.Len(), out.Cached)
	}
}

// TestTracedCompileBypassesCache: an observer with a trace sink makes
// Compile skip the cache, so every call writes the full listing and none
// reports Cached, even for source the cache would serve.
func TestTracedCompileBypassesCache(t *testing.T) {
	const src = `int main() { int i = 1, s = 0; while (i <= 10) { s += i; i++; } return s; }`
	cache := NewCache(CacheConfig{MaxEntries: 8})
	if _, err := Compile(src, Config{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	var want string
	for i := 0; i < 2; i++ {
		var sb strings.Builder
		out, err := Compile(src, Config{Cache: cache, Observer: tracing(&sb)})
		if err != nil {
			t.Fatal(err)
		}
		if out.Cached {
			t.Errorf("call %d: traced compile reported Cached", i)
		}
		lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
		if lines[len(lines)-1] != "accept" || len(lines) != out.Stats.Shifts+out.Stats.Reduces+out.Stats.Trees {
			t.Errorf("call %d: %d listing lines ending %q, want %d shifts + %d reduces + %d accepts",
				i, len(lines), lines[len(lines)-1], out.Stats.Shifts, out.Stats.Reduces, out.Stats.Trees)
		}
		if i == 0 {
			want = sb.String()
		} else if sb.String() != want {
			t.Error("second traced compile wrote a different listing")
		}
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Errorf("cache saw %d hits and %d misses, want 0 and 1 (the untraced compile)", st.Hits, st.Misses)
	}
}
