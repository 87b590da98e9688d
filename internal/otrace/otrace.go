// Package otrace is a dependency-free distributed tracing subsystem for
// the oblivious FD-discovery stack. It provides 128-bit trace IDs with
// parent/child span links, a bounded per-process ring buffer with
// head-based sampling, and a fixed-size wire context that rides on every
// transport frame whether or not tracing is enabled.
//
// The wire format is deliberately constant-size and always present: a
// frame carries exactly WireSize bytes of trace context regardless of
// whether tracing is on, off, sampled, or unsampled. The adversary-visible
// message shape therefore never depends on tracing state (see DESIGN.md
// §14 for the leakage argument).
//
// Besides the ring, a Tracer keeps a running count and total duration per
// span name (Phases), exact however often the ring has wrapped: that is the
// per-phase table fddiscover prints under -telemetry.
//
// otrace is distinct from internal/trace (the adversary-view recorder used
// by the security tests) and from internal/telemetry (counters, gauges and
// latency histograms). Those answer "what does the server see" and "how
// many, how slow"; otrace answers "what happened, causally, on this
// request" and "where did the time go, by phase".
package otrace

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one causal tree of spans across processes.
type TraceID [16]byte

// SpanID identifies one span within a trace.
type SpanID [8]byte

var (
	zeroTrace TraceID
	zeroSpan  SpanID
)

// String renders the ID as lowercase hex.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// String renders the ID as lowercase hex.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the trace ID is unset.
func (id TraceID) IsZero() bool { return id == zeroTrace }

// SpanContext is the portable identity of a span: enough to create remote
// children and to correlate records across processes.
type SpanContext struct {
	Trace   TraceID
	Span    SpanID
	Sampled bool
}

// Valid reports whether the context names a real span.
func (c SpanContext) Valid() bool { return !c.Trace.IsZero() }

// WireSize is the exact number of bytes of trace context carried on every
// transport frame: 1 version byte + 16 trace ID + 8 span ID + 1 flags.
const WireSize = 26

const (
	wireVersion     = 1
	wireFlagSampled = 1
)

// Wire encodes the context into the fixed-size frame header: always exactly
// WireSize bytes, with a non-zero version byte even for the zero context.
// The frame codec copies the array in verbatim, so frame lengths are
// identical with tracing on or off, sampled or not, whatever the IDs.
func (c SpanContext) Wire() [WireSize]byte {
	var b [WireSize]byte
	b[0] = wireVersion
	copy(b[1:17], c.Trace[:])
	copy(b[17:25], c.Span[:])
	if c.Sampled {
		b[25] = wireFlagSampled
	}
	return b
}

// FromWire decodes a frame header produced by Wire; any header Wire cannot
// produce (unknown version, reserved flag bit, zero trace) is the zero context.
func FromWire(b [WireSize]byte) SpanContext {
	if b[0] != wireVersion || b[25]&^wireFlagSampled != 0 {
		return SpanContext{}
	}
	var c SpanContext
	copy(c.Trace[:], b[1:17])
	copy(c.Span[:], b[17:25])
	c.Sampled = b[25]&wireFlagSampled != 0
	if !c.Valid() {
		return SpanContext{}
	}
	return c
}

// Record is one finished span as it lands in the ring buffer and in
// exported artifacts. IDs are lowercase hex so records marshal to JSON
// without custom codecs and merge across processes by string equality.
type Record struct {
	Trace   string `json:"trace"`
	Span    string `json:"span"`
	Parent  string `json:"parent,omitempty"`
	Name    string `json:"name"`
	Service string `json:"service"`
	Start   int64  `json:"start_unix_ns"`
	Dur     int64  `json:"dur_ns"`
}

// MarshalRecords renders records as a JSON array (the TraceDump RPC body).
func MarshalRecords(recs []Record) ([]byte, error) { return json.Marshal(recs) }

// UnmarshalRecords parses a JSON array produced by MarshalRecords.
func UnmarshalRecords(b []byte) ([]Record, error) {
	var recs []Record
	if err := json.Unmarshal(b, &recs); err != nil {
		return nil, err
	}
	return recs, nil
}

// Config sizes and shapes a Tracer.
type Config struct {
	// Service labels every record from this tracer ("fdserver",
	// "fddiscover", ...). Exported artifacts group spans by it.
	Service string
	// Capacity bounds the ring buffer; older finished spans are
	// overwritten. Default 4096.
	Capacity int
	// SampleEvery keeps 1 of every N root traces (head-based: the
	// decision is made once at the root and propagated). 0 or 1 keeps
	// everything. Unsampled spans still flow through the full wire path
	// at constant size; they just never land in the ring.
	SampleEvery int
	// SlowSpan, when positive, invokes OnSlowSpan for any span (sampled
	// or not) whose duration meets the threshold. Use it to emit one
	// structured log line per slow span.
	SlowSpan   time.Duration
	OnSlowSpan func(Record)
}

const defaultCapacity = 4096

// ringRec is the compact in-ring form of a finished span: binary IDs, no
// allocation beyond the ring slot itself. Hex rendering and the service
// label are applied only when the ring is exported (Records), keeping the
// per-span recording cost off the request hot path.
type ringRec struct {
	trace  TraceID
	span   SpanID
	parent SpanID
	name   string
	start  int64
	dur    int64
}

// Tracer records finished spans into a bounded ring and into per-name
// totals. A nil *Tracer is a valid no-op tracer: every method is safe and
// free on nil.
//
// A tracer also holds one current span context: the parent of a span started
// without one (Start, or StartChild with the zero context; see SetCurrent).
// It is one value per tracer, not per goroutine, so a tracer follows one
// client traversal at a time; two traversals that must not nest under each
// other take a tracer each.
type Tracer struct {
	cfg   Config
	roots atomic.Uint64

	mu     sync.Mutex
	cur    SpanContext
	ring   []ringRec
	next   int
	total  uint64
	phases map[string]*phaseStat
}

// phaseStat is the running total of one span name.
type phaseStat struct {
	Phase
	first int64 // earliest start, unix ns: the order Phases reports in
}

// New builds a tracer. See Config for defaults.
func New(cfg Config) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = defaultCapacity
	}
	return &Tracer{cfg: cfg, ring: make([]ringRec, 0, cfg.Capacity), phases: make(map[string]*phaseStat)}
}

// Service returns the configured service label ("" on nil).
func (t *Tracer) Service() string {
	if t == nil {
		return ""
	}
	return t.cfg.Service
}

func (t *Tracer) sample() bool {
	every := t.cfg.SampleEvery
	if every <= 1 {
		return true
	}
	return (t.roots.Add(1)-1)%uint64(every) == 0
}

func (t *Tracer) record(r ringRec) {
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, r)
	} else {
		t.ring[t.next] = r
	}
	t.next = (t.next + 1) % cap(t.ring)
	t.total++
	st := t.phases[r.name]
	if st == nil {
		st = &phaseStat{Phase: Phase{Name: r.name}, first: r.start}
		t.phases[r.name] = st
	}
	st.Count++
	st.Total += time.Duration(r.dur)
	st.first = min(st.first, r.start)
	t.mu.Unlock()
}

// Records snapshots the ring in arrival order (oldest first).
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Record, 0, len(t.ring))
	if len(t.ring) == cap(t.ring) {
		for _, r := range t.ring[t.next:] {
			out = append(out, t.export(r))
		}
		for _, r := range t.ring[:t.next] {
			out = append(out, t.export(r))
		}
	} else {
		for _, r := range t.ring {
			out = append(out, t.export(r))
		}
	}
	return out
}

// export renders one ring slot in the portable Record form.
func (t *Tracer) export(r ringRec) Record {
	rec := Record{
		Trace:   r.trace.String(),
		Span:    r.span.String(),
		Name:    r.name,
		Service: t.cfg.Service,
		Start:   r.start,
		Dur:     r.dur,
	}
	if r.parent != zeroSpan {
		rec.Parent = r.parent.String()
	}
	return rec
}

// Recorded returns the lifetime count of spans recorded (including any
// since overwritten by ring wraparound).
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Reset drops all buffered records and phase totals (mainly for tests and
// per-run reuse).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring = t.ring[:0]
	t.next = 0
	t.total = 0
	clear(t.phases)
	t.mu.Unlock()
}

// Phase is the running total of one span name in a Tracer.
type Phase struct {
	Name  string        `json:"name"`
	Count int64         `json:"count"`
	Total time.Duration `json:"total_ns"`
}

// Mean returns the average span duration (0 when empty).
func (p Phase) Mean() time.Duration {
	if p.Count == 0 {
		return 0
	}
	return p.Total / time.Duration(p.Count)
}

// Phases returns the count and summed duration of every span name recorded
// (sampled spans only, like the ring), ordered by each name's earliest
// start, so an enclosing span precedes the spans it contains. The totals
// cover every span since New or Reset, including those the ring has since
// overwritten. Spans nest, so an outer phase's total includes its inner
// phases' time. Nil on a nil tracer.
func (t *Tracer) Phases() []Phase {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	all := make([]phaseStat, 0, len(t.phases))
	for _, st := range t.phases {
		all = append(all, *st)
	}
	t.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		return a.first < b.first || a.first == b.first && a.Name < b.Name
	})
	out := make([]Phase, len(all))
	for i := range all {
		out[i] = all[i].Phase
	}
	return out
}

// RenderPhases formats phases as an aligned breakdown table, with each
// phase's total as a percentage of wall (0 when wall is not positive).
func RenderPhases(phases []Phase, wall time.Duration) string {
	if len(phases) == 0 {
		return "(no phases recorded)\n"
	}
	nameW := len("phase")
	for _, p := range phases {
		nameW = max(nameW, len(p.Name))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s %10s %14s %14s %7s\n", nameW, "phase", "count", "total", "mean", "%wall")
	for _, p := range phases {
		pct := 0.0
		if wall > 0 {
			pct = 100 * float64(p.Total) / float64(wall)
		}
		fmt.Fprintf(&b, "%-*s %10d %14s %14s %6.1f%%\n",
			nameW, p.Name, p.Count,
			p.Total.Round(time.Microsecond), p.Mean().Round(time.Microsecond), pct)
	}
	return b.String()
}

func newTraceID() TraceID {
	var id TraceID
	mustRand(id[:])
	return id
}

func newSpanID() SpanID {
	var id SpanID
	mustRand(id[:])
	return id
}

func mustRand(b []byte) {
	if _, err := rand.Read(b); err != nil {
		// crypto/rand failure is unrecoverable for the whole stack (the
		// cipher layer depends on it too); surface it loudly.
		panic("otrace: crypto/rand failed: " + err.Error())
	}
}

// Span is one in-flight timed operation. A nil *Span is valid and free.
type Span struct {
	t      *Tracer
	name   string
	ctx    SpanContext
	parent SpanID
	start  time.Time
}

// StartRoot begins a new trace. The head-based sampling decision is made
// here and inherited by every descendant, local or remote.
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{
		t:    t,
		name: name,
		ctx: SpanContext{
			Trace:   newTraceID(),
			Span:    newSpanID(),
			Sampled: t.sample(),
		},
		start: time.Now(),
	}
}

// StartChild begins a span under parent, or, when parent is the zero
// context, under the tracer's current span — a new root when there is none.
// Every layer below the transport server passes its op's parent here, so a
// span started for a request nests under that request's span whichever
// goroutine runs it.
func (t *Tracer) StartChild(name string, parent SpanContext) *Span {
	if t == nil {
		return nil
	}
	if !parent.Valid() {
		t.mu.Lock()
		parent = t.cur
		t.mu.Unlock()
		if !parent.Valid() {
			return t.StartRoot(name)
		}
	}
	return &Span{
		t:    t,
		name: name,
		ctx: SpanContext{
			Trace:   parent.Trace,
			Span:    newSpanID(),
			Sampled: parent.Sampled,
		},
		parent: parent.Span,
		start:  time.Now(),
	}
}

// Start begins a span under the tracer's current span, or as a new root when
// there is none.
func (t *Tracer) Start(name string) *Span { return t.StartChild(name, SpanContext{}) }

// SetCurrent makes c the tracer's current span context and returns the one
// it replaces, for the caller to restore when its span ends:
//
//	up := tr.SetCurrent(sp.Context())
//	defer tr.SetCurrent(up)
//
// The zero context clears it. core.Discover sets the running discover, level
// and candidate span, so the RPCs a level issues, from however many worker
// goroutines, nest under it; a replicated primary sets its shipment's span
// while it ships. Zero on nil.
func (t *Tracer) SetCurrent(c SpanContext) SpanContext {
	if t == nil {
		return SpanContext{}
	}
	t.mu.Lock()
	prev := t.cur
	t.cur = c
	t.mu.Unlock()
	return prev
}

// Context returns the span's portable identity (zero on nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.ctx
}

// End finishes the span: sampled spans are recorded into the ring, and the
// slow-span hook fires (sampled or not) when the threshold is met.
func (s *Span) End() {
	if s == nil || s.t == nil {
		return
	}
	dur := time.Since(s.start)
	cfg := &s.t.cfg
	slow := cfg.SlowSpan > 0 && dur >= cfg.SlowSpan && cfg.OnSlowSpan != nil
	if !s.ctx.Sampled && !slow {
		return
	}
	rec := ringRec{
		trace:  s.ctx.Trace,
		span:   s.ctx.Span,
		parent: s.parent,
		name:   s.name,
		start:  s.start.UnixNano(),
		dur:    int64(dur),
	}
	if s.ctx.Sampled {
		s.t.record(rec)
	}
	if slow {
		cfg.OnSlowSpan(s.t.export(rec))
	}
}
