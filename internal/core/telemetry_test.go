package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/oblivfd/oblivfd/internal/otrace"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/telemetry"
	"github.com/oblivfd/oblivfd/internal/trace"
)

// discoverObserved runs a full Discover over a small fixed relation with row
// p's engine and the given registry and tracer (nil = off), returning the
// canonical server-visible trace shape and the discovered FDs.
func discoverObserved(t *testing.T, p Protocol, reg *telemetry.Registry, otr *otrace.Tracer) (trace.Shape, []relation.FD) {
	t.Helper()
	rel := fixedWidthRel(4, 16, 7, 3)
	srv := store.NewServer()
	// One worker pins the serial path: full trace shapes are only
	// deterministic without concurrent materialization.
	eng, _ := openFor[Engine](t, srv, p, rel, opts{workers: 1, reg: reg})
	defer eng.Close()

	srv.Trace().Reset()
	srv.Trace().Enable()
	res, err := Discover(eng, 4, &Options{Trace: otr})
	if err != nil {
		t.Fatal(err)
	}
	return trace.ShapeOf(srv.Trace().Events()).Canonical(), res.Minimal
}

// TestTelemetryDoesNotPerturbTrace is the leakage regression for the
// metrics layer: attaching a registry, alone or together with a span
// recorder, must leave the server-visible access pattern and the discovered
// FDs bit-identical to an unobserved run. Instruments only ever observe
// sizes and timings; if one ever issues an extra storage operation, this
// test catches it.
func TestTelemetryDoesNotPerturbTrace(t *testing.T) {
	for _, p := range rows(everyRow) {
		t.Run(p.String(), func(t *testing.T) {
			offShape, offFDs := discoverObserved(t, p, nil, nil)
			for _, obs := range []struct {
				name string
				otr  bool
			}{
				{"registry", false},
				{"both", true},
			} {
				t.Run(obs.name, func(t *testing.T) {
					checkObservedRun(t, p, offShape, offFDs, true, obs.otr)
				})
			}
		})
	}
}

// TestTracingDoesNotPerturbTrace is the same regression for the span
// recorder alone: spans only ever observe identities and timings, and the
// traced run must still produce the full causal tree.
func TestTracingDoesNotPerturbTrace(t *testing.T) {
	for _, p := range rows(everyRow) {
		t.Run(p.String(), func(t *testing.T) {
			offShape, offFDs := discoverObserved(t, p, nil, nil)
			checkObservedRun(t, p, offShape, offFDs, false, true)
		})
	}
}

// checkObservedRun repeats the discovery with a registry and/or a tracer
// attached and asserts it matches the unobserved run, then checks what the
// attached observers recorded.
func checkObservedRun(t *testing.T, p Protocol, offShape trace.Shape, offFDs []relation.FD, registry, tracer bool) {
	t.Helper()
	var reg *telemetry.Registry
	var otr *otrace.Tracer
	if registry {
		reg = telemetry.New()
	}
	if tracer {
		otr = otrace.New(otrace.Config{Service: "test", SampleEvery: 1})
	}
	onShape, onFDs := discoverObserved(t, p, reg, otr)
	if !reflect.DeepEqual(offFDs, onFDs) {
		t.Fatalf("FD sets diverge: off=%v on=%v", offFDs, onFDs)
	}
	if !reflect.DeepEqual(offShape, onShape) {
		t.Fatalf("trace shapes diverge with observers attached (off=%d events, on=%d events)",
			len(offShape), len(onShape))
	}
	if reg != nil {
		// The widest group an ORAM engine stepped together: the four
		// single attributes of level 1, or a wider level above it. No
		// other engine steps a group, and none sets it.
		width := reg.Gauge("oblivfd_level_width").Value()
		if !oramRow(p) && width != 0 || oramRow(p) && (width < 4 || width > levelWidth) {
			t.Errorf("oblivfd_level_width = %d", width)
		}
	}
	if otr != nil {
		checkDiscoverSpans(t, otr)
	}
}

// checkDiscoverSpans asserts the span counts and the causal tree of one
// traced discovery: one discover root, one span per lattice level under it,
// one candidate span per Materialize call (a whole level) under a level.
func checkDiscoverSpans(t *testing.T, otr *otrace.Tracer) {
	t.Helper()
	phases := map[string]int64{}
	for _, p := range otr.Phases() {
		phases[p.Name] = p.Count
	}
	for name, want := range map[string]int64{"discover": 1, "lattice/level-00": 1, "candidate/single": 1} {
		if phases[name] != want {
			t.Errorf("%s count = %d, want %d; phases: %v", name, phases[name], want, phases)
		}
	}
	if phases["candidate/union"] == 0 {
		t.Errorf("no candidate/union spans recorded; phases: %v", phases)
	}

	recs := otr.Records()
	spans := map[string]otrace.Record{}
	var root otrace.Record
	for _, r := range recs {
		spans[r.Span] = r
		if r.Name == "discover" {
			root = r
		}
	}
	if root.Parent != "" {
		t.Errorf("discover root has parent %q", root.Parent)
	}
	for _, r := range recs {
		switch {
		case strings.HasPrefix(r.Name, "lattice/level-"):
			if r.Trace != root.Trace || r.Parent != root.Span {
				t.Errorf("%s is not a child of the discover root", r.Name)
			}
		case strings.HasPrefix(r.Name, "candidate/"):
			if p, ok := spans[r.Parent]; !ok || !strings.HasPrefix(p.Name, "lattice/level-") {
				t.Errorf("%s parent is %q, want a lattice level", r.Name, p.Name)
			}
		}
	}
}

// TestLevelSpanOncePerLevel: a discovery opens each lattice/level-NN span
// once, numbered from 00 (the singletons, built from ∅) without a gap — the
// singleton pass and the loop's first level used to share level-01.
func TestLevelSpanOncePerLevel(t *testing.T) {
	otr := otrace.New(otrace.Config{Service: "test", SampleEvery: 1})
	if _, err := Discover(oracle(fixedWidthRel(5, 32, 3, 4)), 5, &Options{Trace: otr}); err != nil {
		t.Fatal(err)
	}
	var levels []string
	for _, p := range otr.Phases() {
		if !strings.HasPrefix(p.Name, "lattice/level-") {
			continue
		}
		if p.Count != 1 {
			t.Errorf("%s opened %d times in one discovery, want 1", p.Name, p.Count)
		}
		levels = append(levels, p.Name)
	}
	if len(levels) < 2 {
		t.Fatalf("level spans = %v, want at least two levels", levels)
	}
	for i, name := range levels {
		if want := fmt.Sprintf("lattice/level-%02d", i); name != want {
			t.Errorf("level span %d = %s, want %s (all: %v)", i, name, want, levels)
		}
	}
}

// TestResumedEngineIsInstrumented checks the resume wiring: ResumeEngine
// instruments the ORAM handles it rebuilds, so a union over partitions built
// before the checkpoint and an insertion into them count every access, as on
// an engine instrumented since Open, and the cells they open are counted too.
func TestResumedEngineIsInstrumented(t *testing.T) {
	rel := fixedWidthRel(3, 8, 3, 2)
	exact := []string{"oblivfd_oram_accesses_total", "oblivfd_oram_path_reads_total", "oblivfd_oram_path_writes_total"}
	for _, p := range rows(oramRow) {
		t.Run(p.String(), func(t *testing.T) {
			// run builds two singles and then, resumed from a checkpoint if
			// resume is set, a union and an insertion; it returns what the
			// last two added to each counter, integrity checks last.
			run := func(resume bool) []int64 {
				srv := store.NewServer()
				reg, atOpen := telemetry.New(), (*telemetry.Registry)(nil)
				if !resume {
					atOpen = reg
				}
				eng, edb := openFor[Engine](t, srv, p, rel, opts{workers: 1, headroom: 1, reg: atOpen})
				if _, err := eng.Materialize([]Request{Single(0), Single(1)}); err != nil {
					t.Fatal(err)
				}
				if resume {
					cp := &Checkpoint{EDB: edb.State(), Engine: CaptureState(eng)}
					var err error
					if eng, _, _, err = ResumeEngine(srv, cp, reg); err != nil {
						t.Fatal(err)
					}
				}
				defer eng.Close()
				names := append(exact, "oblivfd_integrity_checks_total")
				before := make([]int64, len(names))
				for i, name := range names {
					before[i] = reg.Counter(name).Value()
				}
				if _, err := CardinalityUnion(eng, relation.SingleAttr(0), relation.SingleAttr(1)); err != nil {
					t.Fatal(err)
				}
				if _, err := eng.(inserter).Insert(relation.Row{"x", "y", "z"}); err != nil {
					t.Fatal(err)
				}
				for i, name := range names {
					before[i] = reg.Counter(name).Value() - before[i]
				}
				return before
			}
			got, want := run(true), run(false)
			for i, name := range exact {
				if got[i] != want[i] {
					t.Errorf("%s grew by %d after a resume, by %d without one", name, got[i], want[i])
				}
			}
			if checks := got[len(exact)]; checks == 0 {
				t.Error("oblivfd_integrity_checks_total did not grow after a resume")
			}
		})
	}
}
