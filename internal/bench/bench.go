// Package bench implements the paper's evaluation (§VII): one experiment
// per table and figure, the ablations behind the paper's design choices, and
// the multi-tenant degradation sweep. The fdbench command runs all of them;
// the repository's testing.B benchmarks wrap the tables and figures. Each
// experiment returns a typed result with a Render method that prints the
// same rows/series the paper reports.
//
// Absolute numbers differ from the paper (Go in-process vs Python over a
// 1 Gbps LAN); the shapes — who wins, by roughly what factor, where the
// crossovers fall — are the reproduction target (see EXPERIMENTS.md). Speed
// outside §VII is not measured here: `go run ./benchmark` owns the
// end-to-end and per-layer numbers, `make bench-cell`, `bench-wire` and
// `bench-oram` the unit costs.
package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/oblivfd/oblivfd/internal/core"
	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
)

// Method identifies an attribute-level method under test, named as in the
// paper's evaluation.
type Method string

// The evaluated methods (§VII).
const (
	MethodOrORAM Method = "Or-ORAM" // original ORAM-based (§IV-C)
	MethodExORAM Method = "Ex-ORAM" // extended ORAM-based (§V)
	MethodSort   Method = "Sort"    // oblivious sorting (§IV-D)
)

// AllMethods lists the methods in the paper's order.
var AllMethods = []Method{MethodOrORAM, MethodExORAM, MethodSort}

// setup bundles one freshly outsourced database and its engine.
type setup struct {
	srv *store.Server // nil when the service is remote (TCP)
	svc store.Service
	eng core.Engine
}

// newSetup uploads rel to a fresh in-process server and builds the engine
// for a method. Workers applies to Sort only.
func newSetup(rel *relation.Relation, method Method, workers, headroom int) (*setup, error) {
	srv := store.NewServer()
	s, err := newSetupOn(srv, rel, method, workers, headroom)
	if err != nil {
		return nil, err
	}
	s.srv = srv
	return s, nil
}

// newSetupOn uploads rel over an arbitrary service (e.g. a TCP pool).
func newSetupOn(svc store.Service, rel *relation.Relation, method Method, workers, headroom int) (*setup, error) {
	cipher, err := crypto.NewCipher(crypto.MustNewKey())
	if err != nil {
		return nil, err
	}
	edb, err := core.UploadWithCapacity(svc, cipher, fmt.Sprintf("bench%d", setupSeq.Add(1)), rel, rel.NumRows()+headroom)
	if err != nil {
		return nil, err
	}
	var eng core.Engine
	switch method {
	case MethodOrORAM:
		eng = core.NewOrEngine(edb)
	case MethodExORAM:
		eng, err = core.NewExEngine(edb)
		if err != nil {
			return nil, err
		}
	case MethodSort:
		eng = core.NewSortEngine(edb, workers)
	default:
		return nil, fmt.Errorf("bench: unknown method %q", method)
	}
	return &setup{svc: svc, eng: eng}, nil
}

// timeSingle measures one CardinalitySingle materialization.
func (s *setup) timeSingle(attr int) (time.Duration, error) {
	start := time.Now()
	if _, err := core.CardinalitySingle(s.eng, attr); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// timePair materializes two singles (untimed) and measures the pair union —
// the paper's |X| ≥ 2 case, whose cost is independent of |X| by attribute
// compression.
func (s *setup) timePair(a, b int) (time.Duration, error) {
	if _, err := core.CardinalitySingle(s.eng, a); err != nil {
		return 0, err
	}
	if _, err := core.CardinalitySingle(s.eng, b); err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := core.CardinalityUnion(s.eng, relation.SingleAttr(a), relation.SingleAttr(b)); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// serverBytes returns the current server storage footprint.
func (s *setup) serverBytes() int64 {
	st, err := s.svc.Stats()
	if err != nil {
		return 0
	}
	return st.StoredBytes
}

// setupSeq uniquifies database names across setups sharing one server.
var setupSeq atomic.Int64

func (s *setup) close() { _ = s.eng.Close() }

// fmtBytes renders a byte count in the paper's MB/KB style.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// fmtDur renders a duration compactly: whole µs below 1 ms, tenths of a ms
// below 10 s.
func fmtDur(d time.Duration) string {
	if d < time.Millisecond {
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
	if d < 10*time.Second {
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	}
	return fmt.Sprintf("%.2fs", d.Seconds())
}
