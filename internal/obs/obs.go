// Package obs is the unified instrumentation layer of the repository: a
// zero-dependency (standard library only) observability package that the
// whole pipeline — front end, tree transformation, pattern matching,
// instruction generation, peephole optimization, assembly and simulated
// execution — reports into.
//
// It provides four kinds of signal, mirroring the measurement discipline of
// the paper's evaluation (per-phase cost §5/§8, table statistics §8,
// dynamic instruction behavior of the emitted code):
//
//   - hierarchical phase spans with wall time and (optionally) allocation
//     deltas;
//   - named counters and power-of-two bucketed histograms (tree depth,
//     parse-stack depth, spills, peephole rule hits);
//   - table coverage: which grammar productions fire and which SLR states
//     the matcher visits, making the paper's static §8 statistics dynamic;
//   - a simulator profile: per-opcode and per-addressing-mode execution
//     frequencies and per-function step counts.
//
// Everything is nil-safe: every method on a nil *Observer is a no-op, so
// instrumented code calls through a possibly-nil pointer without guards,
// and the hot paths (matcher shift/reduce, simulator step) additionally
// guard with an explicit nil check so a disabled observer costs one
// predictable branch.
//
// An Observer is safe for concurrent use: counters, histograms and
// coverage are recorded with atomic cells behind a read lock, so
// concurrent compilations may share one observer directly. For worker
// pools, Shard gives each goroutine a private child observer with
// lock-free recording on its own state; the parent folds every shard back
// in with Merge after the workers finish, so the hot paths never contend.
// The one concurrency caveat is span *nesting*: spans started concurrently
// on one shared observer serialize onto a single stack and may report
// interleaved paths — per-goroutine shards keep nesting exact.
//
// Signals export two ways: structured JSONL events on the configured
// Events writer (one JSON object per line, round-trippable through
// encoding/json; shards share the parent's locked encoder), and a
// human-readable report via WriteReport.
package obs

import (
	"encoding/json"
	"io"
	"math/bits"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Config configures an Observer.
type Config struct {
	// Events, if non-nil, receives one JSON object per line for every
	// span end, matcher trace action (with TraceEvents), and — on Flush —
	// counter, histogram, coverage and simulator-profile snapshots.
	Events io.Writer

	// TraceEvents includes per-action matcher trace events in the Events
	// stream. They are voluminous (one line per shift/reduce), so they
	// are off unless asked for.
	TraceEvents bool

	// TrackAllocs measures heap allocation deltas across spans using
	// runtime.ReadMemStats. Accurate but costly per span boundary; off by
	// default. The counter is process-global, so spans running in
	// parallel workers attribute each other's allocations.
	TrackAllocs bool
}

// Event is the JSONL wire format. One struct covers every event kind so a
// stream decodes into a single type; unused fields are omitted.
type Event struct {
	Kind    string           `json:"kind"`              // span|trace|counter|hist|coverage|simprofile
	Name    string           `json:"name,omitempty"`    // span/counter/histogram name
	Path    string           `json:"path,omitempty"`    // slash-joined span path
	Ts      int64            `json:"ts,omitempty"`      // start time, ns since the observer's epoch
	Track   int              `json:"track,omitempty"`   // worker track (0 = parent, shards count up)
	Ns      int64            `json:"ns,omitempty"`      // span wall time
	Bytes   int64            `json:"bytes,omitempty"`   // span allocation delta
	Depth   int              `json:"depth,omitempty"`   // span nesting depth
	Value   int64            `json:"value,omitempty"`   // counter value
	Count   int64            `json:"count,omitempty"`   // histogram observation count
	Sum     int64            `json:"sum,omitempty"`     // histogram sum
	Max     int64            `json:"max,omitempty"`     // histogram max
	P50     float64          `json:"p50,omitempty"`     // histogram quantile estimates
	P90     float64          `json:"p90,omitempty"`     //
	P99     float64          `json:"p99,omitempty"`     //
	Term    string           `json:"term,omitempty"`    // trace: shifted terminal
	Prod    int              `json:"prod,omitempty"`    // trace: reduced production index
	Rule    string           `json:"rule,omitempty"`    // trace: reduced production text
	Buckets map[string]int64 `json:"buckets,omitempty"` // histogram buckets
	Fired   map[string]int64 `json:"fired,omitempty"`   // coverage: production index -> count
	States  map[string]int64 `json:"states,omitempty"`  // coverage: state -> visits
	Opcodes map[string]int64 `json:"opcodes,omitempty"` // simprofile: mnemonic -> count
	Modes   map[string]int64 `json:"modes,omitempty"`   // simprofile: addressing mode -> count
	Funcs   map[string]int64 `json:"funcs,omitempty"`   // simprofile: function -> steps
}

// PhaseStat is the aggregate of all spans that ended with the same path.
type PhaseStat struct {
	Path  string
	Count int64
	Ns    int64
	Bytes int64
}

// encoder serializes concurrent JSONL emission: a parent observer and all
// its shards write through one locked json.Encoder so event lines never
// interleave.
type encoder struct {
	mu  sync.Mutex
	enc *json.Encoder
	w   io.Writer
	buf []byte // span's line, reused
}

func (e *encoder) encode(v any) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.enc.Encode(v) // best effort; a sink error must not abort compilation
	e.mu.Unlock()
}

// span writes a span event's line as encode would, by hand when its
// strings need no escaping. A span's event is written inside its parent
// span, so its cost is tracing overhead every enclosing span carries:
// the reflective encoder takes about 1 µs a line, ten times this.
func (e *encoder) span(ev Event) {
	if e == nil {
		return
	}
	if !plainJSON(ev.Name) || !plainJSON(ev.Path) {
		slow := ev // on the heap only on this path
		e.encode(&slow)
		return
	}
	e.mu.Lock()
	b := append(e.buf[:0], `{"kind":"span"`...)
	for _, f := range [...]struct {
		key string
		v   string
	}{{"name", ev.Name}, {"path", ev.Path}} {
		if f.v != "" {
			b = append(append(append(append(b, `,"`...), f.key...), `":"`...), f.v...)
			b = append(b, '"')
		}
	}
	for _, f := range [...]struct {
		key string
		v   int64
	}{{"ts", ev.Ts}, {"track", int64(ev.Track)}, {"ns", ev.Ns}, {"bytes", ev.Bytes}, {"depth", int64(ev.Depth)}} {
		if f.v != 0 {
			b = strconv.AppendInt(append(append(append(b, `,"`...), f.key...), `":`...), f.v, 10)
		}
	}
	b = append(b, "}\n"...)
	e.w.Write(b)
	e.buf = b
	e.mu.Unlock()
}

// plainJSON reports whether encoding/json writes s between its quotes
// unchanged: printable ASCII other than the quote, the backslash and the
// characters it escapes for HTML.
func plainJSON(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// Observer accumulates instrumentation for one pipeline run. The zero
// value is unusable; construct with New. A nil *Observer is a valid
// disabled observer: every method no-ops.
//
// mu is a structure lock: hot-path recording (Count, Observe, ProdReduced,
// StateVisited) takes it in read mode and bumps an atomic cell, while
// creating a new counter/histogram, growing a coverage vector, span
// bookkeeping, merging and reporting take it in write mode.
type Observer struct {
	cfg Config
	enc *encoder

	mu sync.RWMutex

	stack      []*Span
	phases     map[string]*PhaseStat
	phaseOrder []string

	counters     map[string]*atomic.Int64
	counterOrder []string
	hists        map[string]*hist
	histOrder    []string

	cov coverage
	sim SimProfile

	// traceSink is read once per matcher action, so it sits outside mu.
	traceSink atomic.Pointer[func(TraceEvent)]

	// Shards prefix their top-level span paths with the parent's open
	// span path at Shard time, so merged phase tables nest naturally.
	prefix    string
	baseDepth int

	// epoch anchors event timestamps: span events carry their start time
	// as nanoseconds since it, so events from a parent and all its shards
	// share one timeline (trace export aligns tracks by it). track is this
	// observer's worker track: 0 for a parent, unique positive ids for
	// shards, drawn from the allocator the whole observer family shares.
	epoch      time.Time
	track      int
	trackAlloc *atomic.Int64
}

// New returns an enabled Observer.
func New(cfg Config) *Observer {
	o := &Observer{
		cfg:        cfg,
		phases:     make(map[string]*PhaseStat),
		counters:   make(map[string]*atomic.Int64),
		hists:      make(map[string]*hist),
		epoch:      time.Now(),
		trackAlloc: new(atomic.Int64),
	}
	if cfg.Events != nil {
		o.enc = &encoder{enc: json.NewEncoder(cfg.Events), w: cfg.Events}
	}
	return o
}

// Enabled reports whether the observer records anything.
func (o *Observer) Enabled() bool { return o != nil }

// Track returns the observer's worker track id: 0 for a parent observer,
// a unique positive id for every shard of the same family. Span events
// carry it so a trace export can lay concurrent workers out as separate
// timeline tracks.
func (o *Observer) Track() int {
	if o == nil {
		return 0
	}
	return o.track
}

// sinceEpoch is the current event timestamp (ns since the family epoch).
func (o *Observer) sinceEpoch() int64 { return time.Since(o.epoch).Nanoseconds() }

func (o *Observer) emit(e *Event) { o.enc.encode(e) }

// Span is one timed region of the pipeline. A nil *Span (from a nil
// observer) ends harmlessly.
type Span struct {
	o          *Observer
	name, path string
	depth      int
	start      time.Time
	startAlloc uint64
	done       bool
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// Start opens a span nested under the innermost open span. Spans close in
// LIFO order via End. Concurrent spans on one shared observer serialize
// onto a single stack (use Shard for exact per-goroutine nesting).
func (o *Observer) Start(name string) *Span {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	path := o.prefix + name
	if n := len(o.stack); n > 0 {
		path = o.stack[n-1].path + "/" + name
	}
	s := &Span{o: o, name: name, path: path, depth: o.baseDepth + len(o.stack)}
	o.stack = append(o.stack, s)
	o.mu.Unlock()
	if o.cfg.TrackAllocs {
		s.startAlloc = totalAlloc()
	}
	s.start = time.Now()
	return s
}

// End closes the span, aggregates it into the phase table and emits a
// span event. End is idempotent, so it can be deferred and also called
// early on an error path.
func (s *Span) End() {
	if s == nil {
		return
	}
	ns := time.Since(s.start).Nanoseconds()
	o := s.o
	var delta int64
	if o.cfg.TrackAllocs {
		delta = int64(totalAlloc() - s.startAlloc)
	}
	o.mu.Lock()
	if s.done {
		o.mu.Unlock()
		return
	}
	s.done = true
	for i := len(o.stack) - 1; i >= 0; i-- {
		if o.stack[i] == s {
			o.stack = o.stack[:i]
			break
		}
	}
	ps := o.phases[s.path]
	if ps == nil {
		ps = &PhaseStat{Path: s.path}
		o.phases[s.path] = ps
		o.phaseOrder = append(o.phaseOrder, s.path)
	}
	ps.Count++
	ps.Ns += ns
	ps.Bytes += delta
	o.mu.Unlock()
	o.enc.span(Event{Kind: "span", Name: s.name, Path: s.path, Ns: ns, Bytes: delta, Depth: s.depth,
		Ts: s.start.Sub(o.epoch).Nanoseconds(), Track: o.track})
}

// Phases returns the aggregated spans in first-ended order.
func (o *Observer) Phases() []PhaseStat {
	if o == nil {
		return nil
	}
	o.mu.RLock()
	defer o.mu.RUnlock()
	out := make([]PhaseStat, 0, len(o.phaseOrder))
	for _, p := range o.phaseOrder {
		out = append(out, *o.phases[p])
	}
	return out
}

// Count adds delta to a named counter.
func (o *Observer) Count(name string, delta int64) {
	if o == nil {
		return
	}
	o.mu.RLock()
	c := o.counters[name]
	o.mu.RUnlock()
	if c == nil {
		o.mu.Lock()
		if c = o.counters[name]; c == nil {
			c = new(atomic.Int64)
			o.counters[name] = c
			o.counterOrder = append(o.counterOrder, name)
		}
		o.mu.Unlock()
	}
	c.Add(delta)
}

// Counter returns the current value of a named counter.
func (o *Observer) Counter(name string) int64 {
	if o == nil {
		return 0
	}
	o.mu.RLock()
	c := o.counters[name]
	o.mu.RUnlock()
	if c == nil {
		return 0
	}
	return c.Load()
}

// Hist is a snapshot of a power-of-two bucketed histogram of non-negative
// values: bucket 0 holds zeros, bucket i holds values in [2^(i-1), 2^i).
// P50/P90/P99 are interpolated quantile estimates (see Quantile), fixed
// at snapshot time.
type Hist struct {
	Count, Sum, Max int64
	P50, P90, P99   float64
	Buckets         [33]int64
}

// hist is the live recording cell behind a Hist snapshot; its fields are
// bumped with atomic operations under the observer's read lock.
type hist struct {
	count, sum, max int64
	buckets         [33]int64
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketLabel names bucket i ("0", "1", "2-3", "4-7", ...).
func BucketLabel(i int) string {
	switch i {
	case 0:
		return "0"
	case 1:
		return "1"
	}
	lo := int64(1) << (i - 1)
	return itoa(lo) + "-" + itoa(2*lo-1)
}

// itoa avoids strconv in the one place the core needs formatting.
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func (h *hist) observe(v int64) {
	atomic.AddInt64(&h.count, 1)
	atomic.AddInt64(&h.sum, v)
	for {
		m := atomic.LoadInt64(&h.max)
		if v <= m || atomic.CompareAndSwapInt64(&h.max, m, v) {
			break
		}
	}
	atomic.AddInt64(&h.buckets[bucketOf(v)], 1)
}

func (h *hist) snapshot() *Hist {
	s := &Hist{
		Count: atomic.LoadInt64(&h.count),
		Sum:   atomic.LoadInt64(&h.sum),
		Max:   atomic.LoadInt64(&h.max),
	}
	for i := range h.buckets {
		s.Buckets[i] = atomic.LoadInt64(&h.buckets[i])
	}
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
	return s
}

// Observe records one value into a named histogram.
func (o *Observer) Observe(name string, v int64) {
	if o == nil {
		return
	}
	o.mu.RLock()
	h := o.hists[name]
	o.mu.RUnlock()
	if h == nil {
		o.mu.Lock()
		if h = o.hists[name]; h == nil {
			h = &hist{}
			o.hists[name] = h
			o.histOrder = append(o.histOrder, name)
		}
		o.mu.Unlock()
	}
	h.observe(v)
}

// Histogram returns a snapshot of a named histogram, or nil.
func (o *Observer) Histogram(name string) *Hist {
	if o == nil {
		return nil
	}
	o.mu.RLock()
	h := o.hists[name]
	o.mu.RUnlock()
	if h == nil {
		return nil
	}
	return h.snapshot()
}

// TraceEvent is one pattern-matcher action, in the style of the action
// table in the paper's appendix. The matcher emits these straight into
// Trace; the appendix-style listing (String) and the JSONL trace events
// both render from them, so the two cannot drift apart.
type TraceEvent struct {
	Kind string // "shift", "reduce" or "accept"
	Term string // shifted terminal, for shifts
	Prod int    // production index, for reduces
	Rule string // production text, for reduces
}

// String renders the action in the style of the paper's appendix listing.
func (e TraceEvent) String() string {
	switch e.Kind {
	case "shift":
		return "shift  " + e.Term
	case "reduce":
		return "reduce " + itoa(int64(e.Prod)) + ": " + e.Rule
	case "accept":
		return "accept"
	}
	return "?"
}

// SetTraceSink installs a callback invoked for every matcher trace action
// routed through Trace, or removes it (fn == nil). The appendix-style
// listing is such a sink. Sinks are not inherited by shards: a sink
// typically writes to one io.Writer, which concurrent workers would
// interleave.
func (o *Observer) SetTraceSink(fn func(TraceEvent)) {
	if o == nil {
		return
	}
	if fn == nil {
		o.traceSink.Store(nil)
		return
	}
	o.traceSink.Store(&fn)
}

// WantsTrace reports whether routing matcher trace actions to this
// observer would have any effect, so callers can skip building them
// entirely.
func (o *Observer) WantsTrace() bool {
	if o == nil {
		return false
	}
	return o.traceSink.Load() != nil || (o.enc != nil && o.cfg.TraceEvents)
}

// Trace records one matcher action: it is fanned to the trace sink (the
// human listing) and, with TraceEvents, to the JSONL stream.
func (o *Observer) Trace(e TraceEvent) {
	if o == nil {
		return
	}
	if sink := o.traceSink.Load(); sink != nil {
		(*sink)(e)
	}
	if o.cfg.TraceEvents {
		o.emit(&Event{Kind: "trace", Name: e.Kind, Term: e.Term, Prod: e.Prod, Rule: e.Rule})
	}
}

// Shard returns a private child observer for one worker goroutine. The
// child records into its own state with the parent's configuration —
// sharing the parent's locked JSONL encoder, so event streams do not
// interleave — and its top-level spans are prefixed with the parent's
// innermost open span path, so merged phase tables nest as if the work
// had run inline. Fold a finished shard back with Merge; a shard of a nil
// observer is nil (and every shard method is nil-safe).
func (o *Observer) Shard() *Observer {
	if o == nil {
		return nil
	}
	s := New(o.cfg)
	s.enc = o.enc
	// Shards share the family epoch and track allocator so every worker's
	// span timestamps land on one timeline, each on its own track.
	s.epoch = o.epoch
	s.trackAlloc = o.trackAlloc
	s.track = int(o.trackAlloc.Add(1))
	o.mu.RLock()
	if n := len(o.stack); n > 0 {
		s.prefix = o.stack[n-1].path + "/"
		s.baseDepth = n
	}
	cov := &o.cov
	s.cov.universe = cov.universe
	s.cov.nStates = cov.nStates
	s.cov.prodName = cov.prodName
	o.mu.RUnlock()
	return s
}

// Merge folds everything a shard accumulated — phases, counters,
// histograms, coverage and simulator profile — into o. Merge a shard at
// most once, after its worker has stopped recording; merging it again
// double-counts.
func (o *Observer) Merge(s *Observer) {
	if o == nil || s == nil || o == s {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()

	for _, path := range s.phaseOrder {
		sp := s.phases[path]
		ps := o.phases[path]
		if ps == nil {
			ps = &PhaseStat{Path: path}
			o.phases[path] = ps
			o.phaseOrder = append(o.phaseOrder, path)
		}
		ps.Count += sp.Count
		ps.Ns += sp.Ns
		ps.Bytes += sp.Bytes
	}
	for _, name := range s.counterOrder {
		c := o.counters[name]
		if c == nil {
			c = new(atomic.Int64)
			o.counters[name] = c
			o.counterOrder = append(o.counterOrder, name)
		}
		c.Add(s.counters[name].Load())
	}
	for _, name := range s.histOrder {
		sh := s.hists[name]
		h := o.hists[name]
		if h == nil {
			h = &hist{}
			o.hists[name] = h
			o.histOrder = append(o.histOrder, name)
		}
		snap := sh.snapshot()
		atomic.AddInt64(&h.count, snap.Count)
		atomic.AddInt64(&h.sum, snap.Sum)
		if snap.Max > atomic.LoadInt64(&h.max) {
			atomic.StoreInt64(&h.max, snap.Max)
		}
		for i, n := range snap.Buckets {
			if n != 0 {
				atomic.AddInt64(&h.buckets[i], n)
			}
		}
	}
	o.cov.merge(&s.cov)
	o.sim.Add(s.sim)
}

// Flush emits snapshot events — counters, histograms, coverage and the
// simulator profile — to the Events stream. Call it once after the run;
// it may be called again after further work (each call snapshots current
// totals).
func (o *Observer) Flush() {
	if o == nil || o.enc == nil {
		return
	}
	now := o.sinceEpoch()
	o.mu.RLock()
	counterOrder := append([]string(nil), o.counterOrder...)
	histOrder := append([]string(nil), o.histOrder...)
	o.mu.RUnlock()
	for _, name := range counterOrder {
		o.emit(&Event{Kind: "counter", Name: name, Value: o.Counter(name), Ts: now})
	}
	for _, name := range histOrder {
		h := o.Histogram(name)
		if h == nil {
			continue
		}
		buckets := make(map[string]int64)
		for i, n := range h.Buckets {
			if n > 0 {
				buckets[BucketLabel(i)] = n
			}
		}
		o.emit(&Event{Kind: "hist", Name: name, Count: h.Count, Sum: h.Sum, Max: h.Max,
			P50: h.P50, P90: h.P90, P99: h.P99, Buckets: buckets, Ts: now})
	}
	o.mu.RLock()
	var cov *Event
	if o.cov.universe > 0 {
		cov = &Event{Kind: "coverage", Fired: o.cov.firedMap(), States: o.cov.stateMap(), Ts: now}
	}
	var sim *Event
	if o.sim.Steps > 0 {
		sim = &Event{Kind: "simprofile", Value: o.sim.Steps, Ts: now,
			Opcodes: copyMap(o.sim.Opcodes), Modes: copyMap(o.sim.Modes), Funcs: copyMap(o.sim.FuncSteps)}
	}
	o.mu.RUnlock()
	if cov != nil {
		o.emit(cov)
	}
	if sim != nil {
		o.emit(sim)
	}
}

func copyMap(m map[string]int64) map[string]int64 {
	if m == nil {
		return nil
	}
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
