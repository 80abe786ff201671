// Package compcache is a goroutine-safe, content-addressed cache for
// compilation results: the serving-layer extension of the paper's
// economics. The tables amortize the static half of the system across
// every compilation; under production traffic the same translation units
// arrive over and over, so the compilation result itself becomes a
// once-built-many-reused artifact.
//
// A result is addressed by the SHA-256 of the source bytes combined with
// a configuration fingerprint (every knob that can change the output,
// plus the identity of the tables that drove it), so two requests share
// an entry exactly when their outputs are guaranteed byte-identical.
// The store is a bounded LRU (entry count and byte budget); concurrent
// identical requests are deduplicated by singleflight so N racing
// misses trigger exactly one compile.
package compcache

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"io"
	"sync"
)

// Metrics receives the cache's counters: cache.hits, cache.misses,
// cache.evictions and cache.inflight_coalesced. *obs.Observer satisfies
// it, so the same cache reports into a CLI instrumentation run or the
// observer behind a daemon's scrape endpoint.
type Metrics interface {
	Count(name string, delta int64)
}

// Default bounds applied when Config leaves a limit unset.
const (
	DefaultMaxEntries = 1024
	DefaultMaxBytes   = 64 << 20
)

// Config bounds a cache.
type Config struct {
	// MaxEntries caps the number of cached results; <= 0 uses
	// DefaultMaxEntries.
	MaxEntries int

	// MaxBytes caps the total cost (as reported by the compute
	// functions) of cached results; <= 0 uses DefaultMaxBytes. A single
	// result costing more than MaxBytes is returned but never stored.
	MaxBytes int64

	// Metrics, if non-nil, receives the cache counters.
	Metrics Metrics
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      int64 // requests served from a stored entry or a coalesced flight
	Misses    int64 // requests that ran the compute function
	Evictions int64 // entries dropped to stay within the bounds
	Coalesced int64 // requests that waited on another request's in-flight compute
	Entries   int   // stored entries right now
	Bytes     int64 // total stored cost right now
}

// Key addresses one cache entry: the hash of the source bytes and the
// configuration fingerprint together.
type Key [sha256.Size]byte

// Fingerprint is the configuration half of a cache key: every knob that
// can change a compilation's output. Two compilations may share a cache
// entry only if their fingerprints (and sources) are identical.
type Fingerprint struct {
	// Baseline, Peephole and NoReverseOps are the generator knobs; each
	// selects a different output for the same source.
	Baseline     bool
	Peephole     bool
	NoReverseOps bool

	// EncodingVersion pins the table wire format (tablegen
	// .EncodingVersion), so results cached against one table encoding
	// generation are never served against another.
	EncodingVersion int

	// TableID is a content hash identifying the constructed tables (the
	// machine description and everything derived from it). A changed
	// grammar produces different tables, different output, and — through
	// this field — different keys. Empty for the baseline generator,
	// which does not drive the tables.
	TableID string

	// Target names the backend the unit is generated for. It is keyed
	// independently of TableID: two targets whose descriptions somehow
	// hashed identically would still be different machines, and must
	// never share an entry.
	Target string
}

// KeyFor computes the cache key for source text compiled under a
// fingerprint.
func KeyFor(src string, f Fingerprint) Key {
	h := sha256.New()
	// The fingerprint is hashed in a canonical textual form; %q escapes
	// the free-form fields so no two fingerprints can collide by
	// concatenation.
	fmt.Fprintf(h, "baseline=%t peephole=%t noreverse=%t encoding=%d table=%q target=%q\n",
		f.Baseline, f.Peephole, f.NoReverseOps, f.EncodingVersion, f.TableID, f.Target)
	io.WriteString(h, src)
	var k Key
	h.Sum(k[:0])
	return k
}

// entry is one stored result.
type entry struct {
	key   Key
	val   any
	bytes int64
}

// flight is one in-progress compute that concurrent identical requests
// wait on.
type flight struct {
	done  chan struct{}
	val   any
	bytes int64
	err   error
}

// Cache is the bounded, singleflight-deduplicated store. All methods are
// safe for concurrent use. Cached values are shared across callers and
// must be treated as immutable.
type Cache struct {
	maxEntries int
	maxBytes   int64
	metrics    Metrics

	mu       sync.Mutex
	ll       *list.List // front = most recently used; stores *entry
	entries  map[Key]*list.Element
	inflight map[Key]*flight
	bytes    int64

	hits, misses, evictions, coalesced int64
}

// New returns an empty cache.
func New(cfg Config) *Cache {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	return &Cache{
		maxEntries: cfg.MaxEntries,
		maxBytes:   cfg.MaxBytes,
		metrics:    cfg.Metrics,
		ll:         list.New(),
		entries:    make(map[Key]*list.Element),
		inflight:   make(map[Key]*flight),
	}
}

func (c *Cache) count(name string, delta int64) {
	if c.metrics != nil {
		c.metrics.Count(name, delta)
	}
}

// Do returns the cached value for key, computing it with compute on a
// miss. compute returns the value and its storage cost in bytes; its
// result is stored only on success (errors are returned to every waiter
// but never cached, so a transient failure does not poison the key).
//
// Concurrent calls with the same key are deduplicated: exactly one runs
// compute, the rest block until it finishes and share its result. hit
// reports whether the caller's value came from the store or a coalesced
// flight rather than its own compute.
func (c *Cache) Do(key Key, compute func() (val any, bytes int64, err error)) (val any, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.ll.MoveToFront(e)
		c.hits++
		v := e.Value.(*entry).val
		c.mu.Unlock()
		c.count("cache.hits", 1)
		return v, true, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.coalesced++
		c.mu.Unlock()
		c.count("cache.inflight_coalesced", 1)
		<-f.done
		if f.err != nil {
			return nil, false, f.err
		}
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		c.count("cache.hits", 1)
		return f.val, true, nil
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.misses++
	c.mu.Unlock()
	c.count("cache.misses", 1)

	f.val, f.bytes, f.err = compute()
	close(f.done)

	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil && f.bytes <= c.maxBytes {
		// The flight may have raced a Do for the same key that started
		// after this one's compute finished; that call would have missed
		// and recomputed, so the key can already be present. Keep the
		// existing entry's recency.
		if _, ok := c.entries[key]; !ok {
			c.entries[key] = c.ll.PushFront(&entry{key: key, val: f.val, bytes: f.bytes})
			c.bytes += f.bytes
			c.evictLocked()
		}
	}
	c.mu.Unlock()
	return f.val, false, f.err
}

// evictLocked drops least-recently-used entries until both bounds hold.
// Caller holds c.mu.
func (c *Cache) evictLocked() {
	n := int64(0)
	for c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= e.bytes
		c.evictions++
		n++
	}
	if n > 0 {
		c.count("cache.evictions", n)
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Coalesced: c.coalesced,
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
	}
}
