// Package telemetry is the operator's view of a run: a dependency-free
// metrics registry (atomic counters, gauges, and fixed-bucket latency
// histograms with quantile snapshots). Where the time went by phase
// (lattice level → candidate check → RPC) is internal/otrace's to answer:
// its Tracer keeps the per-span-name totals next to the causal ring.
//
// It is deliberately distinct from internal/trace, which records the
// *adversary's* view for obliviousness proofs. Telemetry observes only
// quantities already in the leakage profile L(DB) — operation names,
// counts, sizes, and timings of server-visible events — never plaintexts,
// keys, or which branch a comparison took (see DESIGN.md §9).
//
// Everything is nil-safe: a nil *Registry hands out nil metrics whose
// methods are no-ops, so instrumented code needs no "is telemetry on?"
// branches and the zero-telemetry path costs one nil check per site — no
// clock reads, no allocations.
package telemetry

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter ignores writes and reads as zero.
type Counter struct {
	series
	v atomic.Int64
}

// NewCounter returns a standalone (unregistered) counter, for components
// that keep per-instance counts even when no registry is configured.
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be non-negative for the Prometheus contract; Add does
// not enforce it).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. A nil *Gauge ignores writes and
// reads as zero.
type Gauge struct {
	series
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the value by n (negative deltas allowed).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// series is the identity shared by every metric kind: a base name plus a
// rendered label set, e.g. name "oblivfd_rpc_seconds", labels
// `op="ReadPath"`.
type series struct {
	name   string
	labels string // rendered `k="v",k2="v2"`, empty for unlabeled
}

// Name returns the metric's base name (empty for standalone metrics).
func (s *series) Name() string { return s.name }

// seriesKey uniquely identifies a series inside a registry.
func seriesKey(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// renderLabels turns alternating key/value pairs into the canonical label
// string. Pairs are sorted by key so the same set always yields the same
// series. Values are escaped per the Prometheus text format.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		kv = append(kv, "") // tolerate a dangling key rather than panic
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Registry is a concurrency-safe collection of metrics. Metrics are created
// on first use and live for the registry's lifetime; handles are cached by
// callers, so the map lookup happens at construction time, not on the hot
// path.
//
// A nil *Registry is the "telemetry off" state: every accessor returns a
// nil metric whose methods no-op.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]any
	order []string // registration order, for stable human-facing output
}

// New creates an empty registry.
func New() *Registry { return &Registry{byKey: make(map[string]any)} }

// Counter returns the counter for name and optional alternating label
// key/value pairs, creating it on first use. It panics if the series
// already exists with a different metric kind.
func (r *Registry) Counter(name string, kv ...string) *Counter {
	if r == nil {
		return nil
	}
	labels := renderLabels(kv)
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		c, ok := m.(*Counter)
		if !ok {
			panic("telemetry: series " + key + " already registered as a different kind")
		}
		return c
	}
	c := &Counter{series: series{name: name, labels: labels}}
	r.byKey[key] = c
	r.order = append(r.order, key)
	return c
}

// Gauge returns the gauge for name and optional label pairs, creating it on
// first use.
func (r *Registry) Gauge(name string, kv ...string) *Gauge {
	if r == nil {
		return nil
	}
	labels := renderLabels(kv)
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		g, ok := m.(*Gauge)
		if !ok {
			panic("telemetry: series " + key + " already registered as a different kind")
		}
		return g
	}
	g := &Gauge{series: series{name: name, labels: labels}}
	r.byKey[key] = g
	r.order = append(r.order, key)
	return g
}

// Histogram returns the latency histogram for name and optional label
// pairs, creating it with the default bucket bounds on first use.
func (r *Registry) Histogram(name string, kv ...string) *Histogram {
	if r == nil {
		return nil
	}
	labels := renderLabels(kv)
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		h, ok := m.(*Histogram)
		if !ok {
			panic("telemetry: series " + key + " already registered as a different kind")
		}
		return h
	}
	h := newHistogram(name, labels, DefaultBuckets)
	r.byKey[key] = h
	r.order = append(r.order, key)
	return h
}

// visit walks every registered metric sorted by (name, labels), which is
// the order the Prometheus text format wants series of one family grouped.
func (r *Registry) visit(fn func(key string, m any)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	keys := append([]string(nil), r.order...)
	byKey := make(map[string]any, len(r.byKey))
	for k, v := range r.byKey {
		byKey[k] = v
	}
	r.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		fn(k, byKey[k])
	}
}
