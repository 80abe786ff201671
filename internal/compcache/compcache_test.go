package compcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func key(s string) Key { return KeyFor(s, Fingerprint{}) }

// put stores a value of the given cost under a synthetic key, asserting
// the call was a miss.
func put(t *testing.T, c *Cache, name string, bytes int64) {
	t.Helper()
	v, hit, err := c.Do(key(name), func() (any, int64, error) { return name, bytes, nil })
	if err != nil || hit || v != name {
		t.Fatalf("put %q: v=%v hit=%v err=%v", name, v, hit, err)
	}
}

// isHit reports whether a lookup of name is served from the cache
// without computing.
func isHit(t *testing.T, c *Cache, name string) bool {
	t.Helper()
	computed := false
	v, hit, err := c.Do(key(name), func() (any, int64, error) { computed = true; return name, 1, nil })
	if err != nil || v != name {
		t.Fatalf("get %q: v=%v err=%v", name, v, err)
	}
	if hit == computed {
		t.Fatalf("get %q: hit=%v but computed=%v", name, hit, computed)
	}
	return hit
}

func TestEntryBoundEviction(t *testing.T) {
	c := New(Config{MaxEntries: 2, MaxBytes: 1 << 20})
	put(t, c, "a", 1)
	put(t, c, "b", 1)
	put(t, c, "c", 1) // evicts a, the least recently used
	if isHit(t, c, "a") {
		t.Error("a survived an entry-bound eviction")
	}
	// b was evicted just now by re-inserting a; c must still be present.
	if !isHit(t, c, "c") {
		t.Error("c was evicted while newer than the bound")
	}
	st := c.Stats()
	if st.Entries != 2 {
		t.Errorf("Entries = %d, want 2", st.Entries)
	}
	if st.Evictions < 1 {
		t.Errorf("Evictions = %d, want >= 1", st.Evictions)
	}
}

func TestLRUTouchOrder(t *testing.T) {
	c := New(Config{MaxEntries: 2, MaxBytes: 1 << 20})
	put(t, c, "a", 1)
	put(t, c, "b", 1)
	if !isHit(t, c, "a") { // touch a: b becomes the LRU entry
		t.Fatal("a missing before eviction")
	}
	put(t, c, "c", 1) // must evict b, not a
	if !isHit(t, c, "a") {
		t.Error("a was evicted despite being recently used")
	}
	if isHit(t, c, "b") {
		t.Error("b survived despite being least recently used")
	}
}

func TestByteBoundEviction(t *testing.T) {
	c := New(Config{MaxEntries: 100, MaxBytes: 100})
	put(t, c, "a", 40)
	put(t, c, "b", 40)
	put(t, c, "c", 40) // 120 bytes: evicts a to get back under 100
	st := c.Stats()
	if st.Bytes > 100 {
		t.Errorf("Bytes = %d, want <= 100", st.Bytes)
	}
	if isHit(t, c, "a") {
		t.Error("a survived a byte-bound eviction")
	}
}

func TestOversizeValueNotStored(t *testing.T) {
	c := New(Config{MaxEntries: 100, MaxBytes: 100})
	put(t, c, "small", 10)
	v, hit, err := c.Do(key("huge"), func() (any, int64, error) { return "huge", 1000, nil })
	if err != nil || hit || v != "huge" {
		t.Fatalf("oversize compute: v=%v hit=%v err=%v", v, hit, err)
	}
	if isHit(t, c, "huge") {
		t.Error("a value over the whole byte budget was stored")
	}
	if !isHit(t, c, "small") {
		t.Error("storing an oversize value evicted an unrelated entry")
	}
	// small (10) plus the isHit probe's recompute of huge at cost 1,
	// which fits and is stored; the 1000-byte original never was.
	if st := c.Stats(); st.Bytes != 11 {
		t.Errorf("Bytes = %d, want 11", st.Bytes)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(Config{})
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 2; i++ {
		_, hit, err := c.Do(key("bad"), func() (any, int64, error) { calls++; return nil, 0, boom })
		if !errors.Is(err, boom) || hit {
			t.Fatalf("call %d: hit=%v err=%v", i, hit, err)
		}
	}
	if calls != 2 {
		t.Errorf("compute ran %d times, want 2 (errors must not be cached)", calls)
	}
	if st := c.Stats(); st.Entries != 0 || st.Misses != 2 {
		t.Errorf("stats after errors: %+v", st)
	}
}

// Every fingerprint knob must change the key; identical inputs must not.
func TestFingerprintSensitivity(t *testing.T) {
	base := Fingerprint{EncodingVersion: 2, TableID: "abc"}
	variants := map[string]Fingerprint{
		"baseline":  {Baseline: true, EncodingVersion: 2, TableID: "abc"},
		"peephole":  {Peephole: true, EncodingVersion: 2, TableID: "abc"},
		"noreverse": {NoReverseOps: true, EncodingVersion: 2, TableID: "abc"},
		"target":    {EncodingVersion: 2, TableID: "abc", Target: "risc"},
		"encoding":  {EncodingVersion: 3, TableID: "abc"},
		"table":     {EncodingVersion: 2, TableID: "abd"},
	}
	src := "int main() { return 0; }"
	k0 := KeyFor(src, base)
	if k0 != KeyFor(src, base) {
		t.Fatal("identical fingerprints produced different keys")
	}
	seen := map[Key]string{k0: "base"}
	for name, f := range variants {
		k := KeyFor(src, f)
		if prev, dup := seen[k]; dup {
			t.Errorf("fingerprint knob %q collides with %q", name, prev)
		}
		seen[k] = name
	}
	if k := KeyFor(src+" ", base); k == k0 {
		t.Error("different sources share a key")
	}
}

// Free-form fingerprint fields must not collide by concatenation.
func TestFingerprintNoConcatenationCollision(t *testing.T) {
	a := KeyFor("src", Fingerprint{TableID: "x", Target: "y"})
	b := KeyFor("src", Fingerprint{TableID: "xy", Target: ""})
	c := KeyFor("src", Fingerprint{TableID: "", Target: "xy"})
	if a == b || a == c || b == c {
		t.Error("table/target boundary ambiguity: distinct fingerprints share keys")
	}
}

// A waiter that arrives while a compute is in flight coalesces onto it:
// compute runs once, the waiter is counted. Deterministic: the leader's
// compute is gated until the waiter is observably parked on the flight.
func TestSingleflightCoalescing(t *testing.T) {
	c := New(Config{})
	k := key("shared")
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, hit, err := c.Do(k, func() (any, int64, error) {
			close(leaderIn)
			<-release
			return "v", 1, nil
		})
		if err != nil || hit || v != "v" {
			t.Errorf("leader: v=%v hit=%v err=%v", v, hit, err)
		}
	}()
	<-leaderIn

	wg.Add(1)
	go func() {
		defer wg.Done()
		v, hit, err := c.Do(k, func() (any, int64, error) {
			t.Error("waiter computed despite an in-flight leader")
			return nil, 0, nil
		})
		if err != nil || !hit || v != "v" {
			t.Errorf("waiter: v=%v hit=%v err=%v", v, hit, err)
		}
	}()
	for c.Stats().Coalesced != 1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	st := c.Stats()
	if st.Misses != 1 || st.Coalesced != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss, 1 coalesced, 1 hit", st)
	}
}

// N concurrent identical requests run exactly one compute, whatever the
// interleaving; the race detector watches the whole exchange.
func TestConcurrentDoComputesOnce(t *testing.T) {
	c := New(Config{})
	k := key("hot")
	var computes atomic.Int64
	const n = 32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, _, err := c.Do(k, func() (any, int64, error) {
				computes.Add(1)
				time.Sleep(10 * time.Millisecond)
				return 42, 8, nil
			})
			if err != nil || v != 42 {
				t.Errorf("v=%v err=%v", v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Errorf("compute ran %d times for %d concurrent requests, want 1", got, n)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != n-1 {
		t.Errorf("stats = %+v, want 1 miss and %d hits", st, n-1)
	}
}

// A leader whose compute fails must not poison its coalesced waiters'
// future: the error propagates to them, nothing is stored, and the next
// request computes afresh.
func TestSingleflightErrorPropagation(t *testing.T) {
	c := New(Config{})
	k := key("flaky")
	boom := errors.New("boom")
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.Do(k, func() (any, int64, error) {
			close(leaderIn)
			<-release
			return nil, 0, boom
		})
		if !errors.Is(err, boom) {
			t.Errorf("leader err = %v", err)
		}
	}()
	<-leaderIn
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, hit, err := c.Do(k, func() (any, int64, error) { return nil, 0, boom })
		if !errors.Is(err, boom) || hit {
			t.Errorf("waiter: hit=%v err=%v", hit, err)
		}
	}()
	for c.Stats().Coalesced != 1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if ok := isHit(t, c, "flaky"); ok {
		t.Error("failed compute was cached")
	}
}

// obsLike records counts like an *obs.Observer or *obs.Registry would.
type obsLike struct {
	mu sync.Mutex
	m  map[string]int64
}

func (o *obsLike) Count(name string, delta int64) {
	o.mu.Lock()
	o.m[name] += delta
	o.mu.Unlock()
}

func TestMetricsSink(t *testing.T) {
	sink := &obsLike{m: make(map[string]int64)}
	c := New(Config{MaxEntries: 1, Metrics: sink})
	put(t, c, "a", 1)
	if !isHit(t, c, "a") {
		t.Fatal("a missing")
	}
	put(t, c, "b", 1) // evicts a
	want := map[string]int64{"cache.hits": 1, "cache.misses": 2, "cache.evictions": 1}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for name, v := range want {
		if sink.m[name] != v {
			t.Errorf("%s = %d, want %d (all: %v)", name, sink.m[name], v, sink.m)
		}
	}
}

func TestDefaultBounds(t *testing.T) {
	c := New(Config{})
	if c.maxEntries != DefaultMaxEntries || c.maxBytes != DefaultMaxBytes {
		t.Errorf("defaults = (%d, %d), want (%d, %d)",
			c.maxEntries, c.maxBytes, DefaultMaxEntries, DefaultMaxBytes)
	}
	for i := 0; i < DefaultMaxEntries+10; i++ {
		put(t, c, fmt.Sprint("k", i), 1)
	}
	if st := c.Stats(); st.Entries != DefaultMaxEntries {
		t.Errorf("Entries = %d, want %d", st.Entries, DefaultMaxEntries)
	}
}

// TestKeySeparatesTargets is the retargeting regression: two backends
// must never share a cache entry, even in the pathological case where
// their table encodings hash identically — the Target name is keyed
// independently of TableID.
func TestKeySeparatesTargets(t *testing.T) {
	const src = `int main() { return 1; }`
	base := Fingerprint{EncodingVersion: 3, TableID: "same-id"}
	vaxFP, riscFP := base, base
	vaxFP.Target = "vax"
	riscFP.Target = "risc"
	if KeyFor(src, vaxFP) == KeyFor(src, riscFP) {
		t.Fatal("identical keys for different targets with the same table ID")
	}

	// End to end: a value stored under one target's key is invisible to
	// the other's, and each target hits its own entry.
	c := New(Config{})
	for _, fp := range []Fingerprint{vaxFP, riscFP} {
		fp := fp
		v, hit, err := c.Do(KeyFor(src, fp), func() (any, int64, error) {
			return fp.Target, 1, nil
		})
		if err != nil || hit {
			t.Fatalf("%s: first Do: v=%v hit=%v err=%v", fp.Target, v, hit, err)
		}
	}
	for _, fp := range []Fingerprint{vaxFP, riscFP} {
		v, hit, err := c.Do(KeyFor(src, fp), func() (any, int64, error) {
			return "recomputed", 1, nil
		})
		if err != nil || !hit || v != fp.Target {
			t.Fatalf("%s: repeat Do: v=%v hit=%v err=%v, want its own entry", fp.Target, v, hit, err)
		}
	}
}
