package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer aggregates named spans into per-phase wall-time totals. Phases
// are identified by hierarchical names ("lattice/level-03",
// "candidate/union", "oram/access"); nesting is expressed by the caller
// opening an inner span while an outer one is running, so totals of inner
// phases are included in their enclosing phase — exactly what a cost
// breakdown wants ("of the 12s in level 3, 11s were ORAM accesses").
//
// Start takes the tracer's mutex and looks the name up in its map on every
// span ("oram/access" included) and reads the clock; End is a clock read and
// two atomic adds. A nil *Tracer no-ops.
type Tracer struct {
	mu    sync.Mutex
	stats map[string]*phaseStat
	order []string // first-start order, for stable breakdown tables
}

type phaseStat struct {
	name  string
	count atomic.Int64
	total atomic.Int64 // nanoseconds
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{stats: make(map[string]*phaseStat)} }

// Span is one running phase measurement. The zero Span (from a nil tracer
// or registry) is valid and End on it is a no-op.
type Span struct {
	stat *phaseStat
	t0   time.Time
}

// Start opens a span for the named phase. Spans of the same name
// accumulate; concurrent spans of the same name are each counted.
func (t *Tracer) Start(name string) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	st, ok := t.stats[name]
	if !ok {
		st = &phaseStat{name: name}
		t.stats[name] = st
		t.order = append(t.order, name)
	}
	t.mu.Unlock()
	return Span{stat: st, t0: time.Now()}
}

// End closes the span, adding its wall time to the phase total.
func (s Span) End() {
	if s.stat == nil {
		return
	}
	s.stat.count.Add(1)
	s.stat.total.Add(int64(time.Since(s.t0)))
}

// Phase is one aggregated phase in a breakdown.
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

// Phases returns the aggregated phases in first-start order.
func (t *Tracer) Phases() []Phase {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	names := append([]string(nil), t.order...)
	stats := make([]*phaseStat, len(names))
	for i, n := range names {
		stats[i] = t.stats[n]
	}
	t.mu.Unlock()
	out := make([]Phase, len(stats))
	for i, st := range stats {
		out[i] = Phase{Name: st.name, Count: st.count.Load(), Total: time.Duration(st.total.Load())}
	}
	return out
}

// RenderPhases formats phases as an aligned breakdown table. Percentages
// are relative to wall when positive, else to the largest top-level total.
func RenderPhases(phases []Phase, wall time.Duration) string {
	if len(phases) == 0 {
		return "(no phases recorded)\n"
	}
	base := wall
	if base <= 0 {
		for _, p := range phases {
			if p.Total > base {
				base = p.Total
			}
		}
	}
	nameW := len("phase")
	for _, p := range phases {
		if len(p.Name) > nameW {
			nameW = len(p.Name)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s %10s %14s %14s %7s\n", nameW, "phase", "count", "total", "mean", "%wall")
	for _, p := range phases {
		pct := 0.0
		if base > 0 {
			pct = 100 * float64(p.Total) / float64(base)
		}
		fmt.Fprintf(&b, "%-*s %10d %14s %14s %6.1f%%\n",
			nameW, p.Name, p.Count,
			p.Total.Round(time.Microsecond), p.Mean().Round(time.Microsecond), pct)
	}
	return b.String()
}

// Breakdown renders the registry's full operator view: the phase table,
// non-zero counters and gauges, and latency histogram quantiles. This is
// what fddiscover/fdbench print under -telemetry.
func (r *Registry) Breakdown(wall time.Duration) string {
	if r == nil {
		return "(telemetry disabled)\n"
	}
	var b strings.Builder
	b.WriteString(RenderPhases(r.Tracer().Phases(), wall))

	type row struct{ key, val string }
	var counters, hists []row
	r.visit(func(key string, m any) {
		switch v := m.(type) {
		case *Counter:
			if n := v.Value(); n != 0 {
				counters = append(counters, row{key, fmt.Sprintf("%d", n)})
			}
		case *Gauge:
			if n := v.Value(); n != 0 {
				counters = append(counters, row{key, fmt.Sprintf("%d", n)})
			}
		case *Histogram:
			s := v.Snapshot()
			if s.Count == 0 {
				return
			}
			hists = append(hists, row{key, fmt.Sprintf(
				"count=%d p50=%s p95=%s p99=%s max=%s",
				s.Count,
				s.P50.Round(time.Microsecond), s.P95.Round(time.Microsecond),
				s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond))})
		}
	})
	if len(counters) > 0 {
		b.WriteString("\ncounters:\n")
		sort.Slice(counters, func(i, j int) bool { return counters[i].key < counters[j].key })
		for _, c := range counters {
			fmt.Fprintf(&b, "  %-52s %s\n", c.key, c.val)
		}
	}
	if len(hists) > 0 {
		b.WriteString("\nlatency:\n")
		for _, h := range hists {
			fmt.Fprintf(&b, "  %-52s %s\n", h.key, h.val)
		}
	}
	return b.String()
}
