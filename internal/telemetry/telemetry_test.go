package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	if c != nil {
		t.Fatalf("nil registry returned non-nil counter")
	}
	c.Inc()
	c.Add(5)
	if got := c.Value(); got != 0 {
		t.Fatalf("nil counter Value = %d, want 0", got)
	}
	g := r.Gauge("x")
	g.Set(3)
	g.Add(-1)
	if got := g.Value(); got != 0 {
		t.Fatalf("nil gauge Value = %d, want 0", got)
	}
	h := r.Histogram("x_seconds")
	h.Observe(time.Second)
	h.ObserveSince(time.Now())
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("nil histogram Count = %d, want 0", s.Count)
	}
	var buf strings.Builder
	r.WritePrometheus(&buf)
	if buf.Len() != 0 {
		t.Fatalf("nil registry WritePrometheus wrote %q", buf.String())
	}
	if got := r.Breakdown(); !strings.Contains(got, "disabled") {
		t.Fatalf("nil registry Breakdown = %q", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := New()
	a := r.Counter("reqs_total", "op", "Read")
	b := r.Counter("reqs_total", "op", "Read")
	if a != b {
		t.Fatalf("same series returned distinct counters")
	}
	c := r.Counter("reqs_total", "op", "Write")
	if a == c {
		t.Fatalf("distinct labels returned same counter")
	}
	a.Add(2)
	if b.Value() != 2 {
		t.Fatalf("shared series not shared: %d", b.Value())
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("dual")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on kind mismatch")
		}
	}()
	r.Gauge("dual")
}

func TestLabelRendering(t *testing.T) {
	// Sorted by key regardless of argument order, values escaped.
	r := New()
	a := r.Counter("m_total", "b", "2", "a", "1")
	b := r.Counter("m_total", "a", "1", "b", "2")
	if a != b {
		t.Fatalf("label order changed series identity")
	}
	if got := renderLabels([]string{"k", `va"l\ue` + "\n"}); got != `k="va\"l\\ue\n"` {
		t.Fatalf("escape: got %s", got)
	}
}

func TestConcurrentRegistry(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("c_total", "op", "x").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h_seconds").Observe(time.Duration(j) * time.Microsecond)
			}
		}()
	}
	// Concurrent readers while writers run.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				var buf strings.Builder
				r.WritePrometheus(&buf)
				_ = r.Breakdown()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", "op", "x").Value(); got != 1600 {
		t.Fatalf("counter = %d, want 1600", got)
	}
	if got := r.Gauge("g").Value(); got != 1600 {
		t.Fatalf("gauge = %d, want 1600", got)
	}
	if got := r.Histogram("h_seconds").Snapshot().Count; got != 1600 {
		t.Fatalf("histogram count = %d, want 1600", got)
	}
}
