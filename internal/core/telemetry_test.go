package core

import (
	"reflect"
	"testing"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/telemetry"
	"github.com/oblivfd/oblivfd/internal/trace"
)

// discoverWithTelemetry runs a full Discover over a small fixed relation
// with the given engine kind and registry (nil = telemetry off), returning
// the canonical server-visible trace shape and the discovered FDs.
func discoverWithTelemetry(t *testing.T, kind engineKind, reg *telemetry.Registry) (trace.Shape, []relation.FD) {
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
		e := NewOrEngine(edb)
		e.Telemetry = reg
		eng = e
	case kindEx:
		e, err := NewExEngine(edb)
		if err != nil {
			t.Fatal(err)
		}
		e.Telemetry = reg
		eng = e
	case kindSort:
		e := NewSortEngine(edb, 1)
		e.Telemetry = reg
		eng = e
	}
	defer eng.Close()

	srv.Trace().Reset()
	srv.Trace().Enable()
	// Workers: 1 pins the serial path: the span-count assertions below name
	// the serial spans (candidate/single, candidate/union), and full trace
	// shapes are only deterministic without concurrent materialization.
	res, err := Discover(eng, 4, &Options{Telemetry: reg, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return trace.ShapeOf(srv.Trace().Events()).Canonical(), res.Minimal
}

// TestTelemetryDoesNotPerturbTrace is the leakage regression for the
// observability layer: attaching a registry must leave the server-visible
// access pattern and the discovered FDs bit-identical to a telemetry-off
// run. Telemetry only ever observes sizes and timings; if instrumenting a
// code path ever issues an extra storage operation, this test catches it.
func TestTelemetryDoesNotPerturbTrace(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind engineKind
	}{
		{"sort", kindSort},
		{"or-oram", kindOr},
		{"ex-oram", kindEx},
	} {
		t.Run(tc.name, func(t *testing.T) {
			offShape, offFDs := discoverWithTelemetry(t, tc.kind, nil)
			reg := telemetry.New()
			onShape, onFDs := discoverWithTelemetry(t, tc.kind, reg)

			if !reflect.DeepEqual(offFDs, onFDs) {
				t.Fatalf("FD sets diverge: off=%v on=%v", offFDs, onFDs)
			}
			if !reflect.DeepEqual(offShape, onShape) {
				t.Fatalf("trace shapes diverge with telemetry attached (off=%d events, on=%d events)",
					len(offShape), len(onShape))
			}

			// The instrumented run must actually have recorded something:
			// per-level lattice spans and candidate spans.
			phases := map[string]int64{}
			for _, p := range reg.Tracer().Phases() {
				phases[p.Name] = p.Count
			}
			if phases["lattice/level-01"] == 0 {
				t.Errorf("no lattice/level-01 spans recorded; phases: %v", phases)
			}
			if phases["candidate/single"] != 1 { // one per Materialize call: a whole level
				t.Errorf("candidate/single count = %d, want 1", phases["candidate/single"])
			}
			if phases["candidate/union"] == 0 {
				t.Errorf("no candidate/union spans recorded")
			}
			// The widest group an ORAM engine stepped together: the four
			// single attributes of level 1, or a wider level above it. The
			// sort engine builds a set at a time and never sets it.
			width := reg.Gauge("oblivfd_level_width").Value()
			if tc.kind == kindSort && width != 0 || tc.kind != kindSort && (width < 4 || width > levelWidth) {
				t.Errorf("oblivfd_level_width = %d", width)
			}
		})
	}
}

// TestEngineSetTelemetryCoversExistingState checks the resume wiring: a
// registry attached after materialization instruments the already-built
// stores, so post-resume accesses are counted.
func TestEngineSetTelemetryCoversExistingState(t *testing.T) {
	rel := fixedWidthRel(3, 8, 3, 2)
	srv := store.NewServer()
	cipher := crypto.MustNewCipher(crypto.MustNewKey())
	edb, err := Upload(srv, cipher, "t", rel)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewOrEngine(edb)
	defer eng.Close()
	if _, err := CardinalitySingle(eng, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := CardinalitySingle(eng, 1); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.New()
	eng.SetTelemetry(reg)
	accesses := reg.Counter("oblivfd_oram_accesses_total")
	before := accesses.Value()
	if _, err := CardinalityUnion(eng, relation.SingleAttr(0), relation.SingleAttr(1)); err != nil {
		t.Fatal(err)
	}
	if accesses.Value() <= before {
		t.Fatalf("union on pre-existing partitions recorded no ORAM accesses (before=%d after=%d)",
			before, accesses.Value())
	}
}
