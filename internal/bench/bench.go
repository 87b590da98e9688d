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
	"time"

	"github.com/oblivfd/oblivfd/internal/core"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
)

// AllMethods lists the methods §VII evaluates, in the paper's order; results
// print them under their paper names (core.Protocol.Paper).
var AllMethods = []core.Protocol{core.ProtocolORAM, core.ProtocolDynamicORAM, core.ProtocolSort}

// sortCoverNote ends the caption of every experiment that measures one Sort
// partition (Fig. 4, 6a, 6b, comm).
const sortCoverNote = "A Sort partition is the key sort and the labelling pass; a set that is read as a cover\npays one more network, over its 8-byte (label, id) records, once, when its first union reads it.\n"

// setup bundles one freshly outsourced database and its engine.
type setup struct {
	srv *store.Server // nil when the service is remote (TCP)
	svc store.Service // nil for the enclave simulation, which has no server
	eng core.Engine
}

// newSetup opens protocol p over rel on a fresh in-process server. Workers
// applies to Sort only.
func newSetup(rel *relation.Relation, p core.Protocol, workers, headroom int) (*setup, error) {
	srv := store.NewServer()
	s, err := newSetupOn(srv, rel, p, workers, headroom)
	if err != nil {
		return nil, err
	}
	s.srv = srv
	return s, nil
}

// newSetupOn opens protocol p over an arbitrary service (e.g. a TCP pool).
func newSetupOn(svc store.Service, rel *relation.Relation, p core.Protocol, workers, headroom int) (*setup, error) {
	eng, _, err := core.Open(svc, rel, p, workers, headroom, nil)
	if err != nil {
		return nil, err
	}
	return &setup{svc: svc, eng: eng}, nil
}

// timeSingle measures one CardinalitySingle materialization. For Sort that is
// the key sort and the labelling pass: a set pays its second network, of the
// same cost, only if a union later reads it as a cover.
func (s *setup) timeSingle(attr int) (time.Duration, error) {
	start := time.Now()
	if _, err := core.CardinalitySingle(s.eng, attr); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// preparePair materializes two singles and leaves them as their first union
// leaves them: Sort restores a cover's r[ID] order when a union first reads it,
// and that network belongs to the cover, not to the union being measured. So
// the union is built once, unmeasured, and released.
func (s *setup) preparePair(a, b int) error {
	if _, err := core.CardinalitySingle(s.eng, a); err != nil {
		return err
	}
	if _, err := core.CardinalitySingle(s.eng, b); err != nil {
		return err
	}
	if _, err := core.CardinalityUnion(s.eng, relation.SingleAttr(a), relation.SingleAttr(b)); err != nil {
		return err
	}
	return s.eng.Release(relation.NewAttrSet(a, b))
}

// timeUnion measures the pair union over two prepared singles — the paper's
// |X| ≥ 2 case, whose cost is independent of |X| by attribute compression.
func (s *setup) timeUnion(a, b int) (time.Duration, error) {
	start := time.Now()
	if _, err := core.CardinalityUnion(s.eng, relation.SingleAttr(a), relation.SingleAttr(b)); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// timePair is preparePair (untimed) followed by timeUnion.
func (s *setup) timePair(a, b int) (time.Duration, error) {
	if err := s.preparePair(a, b); err != nil {
		return 0, err
	}
	return s.timeUnion(a, b)
}

// serverBytes returns the current server storage footprint.
func (s *setup) serverBytes() int64 {
	st, err := s.svc.Stats()
	if err != nil {
		return 0
	}
	return st.StoredBytes
}

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
