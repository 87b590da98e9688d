package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/oblivfd/oblivfd/internal/core"
	"github.com/oblivfd/oblivfd/internal/telemetry"
)

// The telemetry experiment: full discovery per method with a registry
// attached, reporting where the wall time goes (per lattice level) and how
// many oblivious accesses each method issues. It complements fig4/fig5
// (whole-run and per-operation timings) and fig6/fig7 (parallelism and
// dynamics) with the breakdown the paper discusses qualitatively in §VII-B:
// the sorting method's cost concentrates in the level-ascension sorts,
// whereas the ORAM methods pay per access. fdbench writes the result to a
// JSON artifact (BENCH_telemetry.json) for plotting.

// TelemetryPhase is one traversal phase's accumulated wall time.
type TelemetryPhase struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns"`
}

// TelemetryPoint is one (method, n) cell of the experiment.
type TelemetryPoint struct {
	Method          string           `json:"method"`
	N               int              `json:"n"`
	WallNS          int64            `json:"wall_ns"`
	MinimalFDs      int              `json:"minimal_fds"`
	Partitions      int              `json:"partitions"`
	ORAMAccesses    int64            `json:"oram_accesses"`
	PathReads       int64            `json:"oram_path_reads"`
	PathWrites      int64            `json:"oram_path_writes"`
	SortComparisons int64            `json:"sort_comparisons"`
	SortStages      int64            `json:"sort_stages"`
	Phases          []TelemetryPhase `json:"phases"`
}

// TelemetryResult is the full experiment outcome.
type TelemetryResult struct {
	M      int              `json:"m"`
	Seed   int64            `json:"seed"`
	Points []TelemetryPoint `json:"points"`
}

// Telemetry runs full FD discovery for every method at each size with a
// metrics registry attached and collects the per-phase breakdown.
func Telemetry(sizes []int, seed int64) (*TelemetryResult, error) {
	const m = 4
	res := &TelemetryResult{M: m, Seed: seed}
	for _, n := range sizes {
		rel := rndRelation(m, n, seed)
		for _, method := range AllMethods {
			s, err := newSetup(rel, method, 1, 0)
			if err != nil {
				return nil, err
			}
			reg := telemetry.New()
			if eng, ok := s.eng.(interface{ SetTelemetry(*telemetry.Registry) }); ok {
				eng.SetTelemetry(reg)
			}
			start := time.Now()
			dres, err := core.Discover(s.eng, m, &core.Options{Telemetry: reg})
			wall := time.Since(start)
			if err != nil {
				s.close()
				return nil, fmt.Errorf("bench: telemetry %s n=%d: %w", method, n, err)
			}
			pt := TelemetryPoint{
				Method:          string(method),
				N:               n,
				WallNS:          wall.Nanoseconds(),
				MinimalFDs:      len(dres.Minimal),
				Partitions:      dres.SetsMaterialized,
				ORAMAccesses:    reg.Counter("oblivfd_oram_accesses_total").Value(),
				PathReads:       reg.Counter("oblivfd_oram_path_reads_total").Value(),
				PathWrites:      reg.Counter("oblivfd_oram_path_writes_total").Value(),
				SortComparisons: reg.Counter("oblivfd_sort_comparisons_total").Value(),
				SortStages:      reg.Counter("oblivfd_sort_stages_total").Value(),
			}
			for _, p := range reg.Tracer().Phases() {
				pt.Phases = append(pt.Phases, TelemetryPhase{
					Name: p.Name, Count: p.Count, TotalNS: p.Total.Nanoseconds(),
				})
			}
			res.Points = append(res.Points, pt)
			s.close()
		}
	}
	return res, nil
}

// Render prints one row per (method, n) with the dominant phases.
func (r *TelemetryResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %8s %10s %12s %12s  %s\n",
		"method", "n", "wall", "oram-acc", "sort-cmp", "top phases (share of wall)")
	for _, pt := range r.Points {
		wall := time.Duration(pt.WallNS)
		var tops []string
		for _, p := range pt.Phases {
			if !strings.HasPrefix(p.Name, "lattice/") {
				continue
			}
			share := 0.0
			if pt.WallNS > 0 {
				share = 100 * float64(p.TotalNS) / float64(pt.WallNS)
			}
			tops = append(tops, fmt.Sprintf("%s %.0f%%", strings.TrimPrefix(p.Name, "lattice/"), share))
		}
		fmt.Fprintf(&b, "%-8s %8d %10s %12d %12d  %s\n",
			pt.Method, pt.N, fmtDur(wall), pt.ORAMAccesses, pt.SortComparisons,
			strings.Join(tops, ", "))
	}
	return b.String()
}

// WriteFile writes the result as indented JSON (the BENCH_telemetry.json
// artifact).
func (r *TelemetryResult) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
