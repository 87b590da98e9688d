package core

import (
	"reflect"
	"strings"
	"testing"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/otrace"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/trace"
)

// discoverWithTracer runs a full Discover over a small fixed relation with
// the given tracer (nil = tracing off), returning the canonical
// server-visible trace shape and the discovered FDs.
func discoverWithTracer(t *testing.T, kind engineKind, otr *otrace.Tracer) (trace.Shape, []relation.FD) {
	t.Helper()
	rel := fixedWidthRel(4, 16, 7, 3)
	srv := store.NewServer()
	cipher := crypto.MustNewCipher(crypto.MustNewKey())
	edb, err := Upload(srv, cipher, "t", rel)
	if err != nil {
		t.Fatal(err)
	}
	var eng Engine
	switch kind {
	case kindOr:
		eng = NewOrEngine(edb)
	case kindEx:
		e, err := NewExEngine(edb)
		if err != nil {
			t.Fatal(err)
		}
		eng = e
	case kindSort:
		eng = NewSortEngine(edb, 1)
	}
	defer eng.Close()

	srv.Trace().Reset()
	srv.Trace().Enable()
	// Workers: 1 pins the serial path, as in the telemetry-neutrality test:
	// full trace shapes are only deterministic without concurrent
	// materialization, and the serial path is where spans are bound.
	res, err := Discover(eng, 4, &Options{Trace: otr, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return trace.ShapeOf(srv.Trace().Events()).Canonical(), res.Minimal
}

// TestTracingDoesNotPerturbTrace is the leakage regression for the
// distributed-tracing layer, the companion to TestTelemetryDoesNotPerturbTrace:
// attaching a span recorder must leave the server-visible access pattern and
// the discovered FDs bit-identical to a tracing-off run. Spans only ever
// observe identities and timings; if starting or ending a span ever issues
// an extra storage operation, this test catches it.
func TestTracingDoesNotPerturbTrace(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind engineKind
	}{
		{"sort", kindSort},
		{"or-oram", kindOr},
		{"ex-oram", kindEx},
	} {
		t.Run(tc.name, func(t *testing.T) {
			offShape, offFDs := discoverWithTracer(t, tc.kind, nil)
			otr := otrace.New(otrace.Config{Service: "test", SampleEvery: 1})
			onShape, onFDs := discoverWithTracer(t, tc.kind, otr)

			if !reflect.DeepEqual(offFDs, onFDs) {
				t.Fatalf("FD sets diverge: off=%v on=%v", offFDs, onFDs)
			}
			if !reflect.DeepEqual(offShape, onShape) {
				t.Fatalf("trace shapes diverge with tracing attached (off=%d events, on=%d events)",
					len(offShape), len(onShape))
			}

			// The traced run must actually have produced a causal tree:
			// one discover root, lattice-level children under it, and
			// candidate spans under the levels.
			recs := otr.Records()
			spans := map[string]otrace.Record{}
			byName := map[string][]otrace.Record{}
			for _, r := range recs {
				spans[r.Span] = r
				byName[r.Name] = append(byName[r.Name], r)
			}
			if n := len(byName["discover"]); n != 1 {
				t.Fatalf("recorded %d discover roots, want 1", n)
			}
			root := byName["discover"][0]
			if root.Parent != "" {
				t.Errorf("discover root has parent %q", root.Parent)
			}
			if len(byName["lattice/level-01"]) == 0 {
				t.Errorf("no lattice/level-01 spans; names: %v", names(recs))
			}
			for name, rs := range byName {
				if !strings.HasPrefix(name, "lattice/level-") {
					continue
				}
				for _, r := range rs {
					if r.Trace != root.Trace || r.Parent != root.Span {
						t.Errorf("%s is not a child of the discover root", name)
					}
				}
			}
			if len(byName["candidate/single"]) != 1 { // one per Materialize call: a whole level
				t.Errorf("candidate/single count = %d, want 1", len(byName["candidate/single"]))
			}
			for _, r := range byName["candidate/single"] {
				parent, ok := spans[r.Parent]
				if !ok || !strings.HasPrefix(parent.Name, "lattice/level-") {
					t.Errorf("candidate/single parent is %q, want a lattice level", parentName(spans, r))
				}
			}
			if len(byName["candidate/union"]) == 0 {
				t.Errorf("no candidate/union spans recorded")
			}
		})
	}
}

func names(recs []otrace.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Name
	}
	return out
}

func parentName(spans map[string]otrace.Record, r otrace.Record) string {
	if p, ok := spans[r.Parent]; ok {
		return p.Name
	}
	return "<missing " + r.Parent + ">"
}
