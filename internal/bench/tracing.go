package bench

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/oblivfd/oblivfd/internal/core"
	"github.com/oblivfd/oblivfd/internal/otrace"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/transport"
)

// The tracing-overhead axis of the telemetry experiment: full discovery per
// method over loopback TCP with span tracers off and then on at both ends
// (SampleEvery: 1, i.e. every root sampled — the worst case), reporting the
// wall-time overhead the tracing subsystem adds. Loopback TCP matters: the
// lattice itself emits only a handful of spans, but every storage RPC grows
// a client rpc/ span and a server dispatch span, so this path exercises the
// instrumentation at its real density (hundreds of spans per run). The
// subsystem is designed to be cheap enough to leave on in production —
// fixed-size ring, constant-size wire header that is sent whether or not
// tracing is on — and this experiment pins that claim to a number. fdbench
// writes the result to BENCH_tracing.json; the committed baseline documents
// the overhead stays under 5%.

// TracingPoint is one (method, n) cell of the overhead comparison. Wall
// times are the minimum over Runs interleaved off/on pairs, which rejects
// scheduler noise better than means on shared CI machines.
type TracingPoint struct {
	Method      string  `json:"method"`
	N           int     `json:"n"`
	Runs        int     `json:"runs"`
	WallOffNS   int64   `json:"wall_off_ns"`
	WallOnNS    int64   `json:"wall_on_ns"`
	OverheadPct float64 `json:"overhead_pct"`
	Spans       int64   `json:"spans_recorded"`
}

// TracingResult is the full tracing-overhead outcome. The aggregate
// overhead (total on-wall vs total off-wall across every cell) is the
// headline number: per-cell percentages at quick sizes sit inside
// scheduler jitter, while the aggregate averages it out.
type TracingResult struct {
	M           int            `json:"m"`
	Seed        int64          `json:"seed"`
	SampleEvery int            `json:"sample_every"`
	TotalOffNS  int64          `json:"total_wall_off_ns"`
	TotalOnNS   int64          `json:"total_wall_on_ns"`
	OverheadPct float64        `json:"overhead_pct"`
	Points      []TracingPoint `json:"points"`
}

// tracingRuns is the number of off/on pairs per cell; the minimum of each
// side is reported. Minimum, not mean: both sides bottom out at the same
// quiet-machine floor, so the min-to-min comparison isolates the tracing
// cost from scheduler and GC jitter far better than averages do.
const tracingRuns = 5

// TracingOverhead runs full FD discovery for every method at each size,
// once with no tracer and once with an always-sampling tracer, and reports
// the relative wall-time cost of tracing.
func TracingOverhead(sizes []int, seed int64) (*TracingResult, error) {
	const m = 4
	res := &TracingResult{M: m, Seed: seed, SampleEvery: 1}
	for _, n := range sizes {
		rel := rndRelation(m, n, seed)
		for _, method := range AllMethods {
			pt := TracingPoint{Method: string(method), N: n, Runs: tracingRuns}
			// Long-lived tracers per cell, as real processes have: their
			// rings are preallocated once, outside every timed region, so
			// the comparison measures the per-span cost and not the
			// allocation of the rings themselves.
			newTracer := func(service string) *otrace.Tracer {
				return otrace.New(otrace.Config{
					Service:     service,
					Capacity:    1 << 14,
					SampleEvery: 1,
				})
			}
			clientTr, serverTr := newTracer("fdbench"), newTracer("fdserver")
			// One untimed warmup settles lazily-initialized state (listener
			// machinery, buffers) before either side is timed.
			if _, err := tracingRun(rel, method, m, nil, nil); err != nil {
				return nil, fmt.Errorf("bench: tracing %s n=%d (warmup): %w", method, n, err)
			}
			// Interleave the off and on runs so slow drift (page cache
			// warming, thermal throttling) hits both sides equally.
			for i := 0; i < tracingRuns; i++ {
				off, err := tracingRun(rel, method, m, nil, nil)
				if err != nil {
					return nil, fmt.Errorf("bench: tracing %s n=%d (off): %w", method, n, err)
				}
				before := int64(clientTr.Recorded() + serverTr.Recorded())
				on, err := tracingRun(rel, method, m, clientTr, serverTr)
				if err != nil {
					return nil, fmt.Errorf("bench: tracing %s n=%d (on): %w", method, n, err)
				}
				if i == 0 || off < pt.WallOffNS {
					pt.WallOffNS = off
				}
				if i == 0 || on < pt.WallOnNS {
					pt.WallOnNS = on
					pt.Spans = int64(clientTr.Recorded()+serverTr.Recorded()) - before
				}
			}
			if pt.WallOffNS > 0 {
				pt.OverheadPct = 100 * float64(pt.WallOnNS-pt.WallOffNS) / float64(pt.WallOffNS)
			}
			res.TotalOffNS += pt.WallOffNS
			res.TotalOnNS += pt.WallOnNS
			res.Points = append(res.Points, pt)
		}
	}
	if res.TotalOffNS > 0 {
		res.OverheadPct = 100 * float64(res.TotalOnNS-res.TotalOffNS) / float64(res.TotalOffNS)
	}
	return res, nil
}

// tracingRun is one full discovery over a loopback TCP server with the
// given tracers (nil = tracing off at that end), returning the wall time of
// the Discover call. The server boots and the relation uploads outside the
// timed region; a forced GC before it puts both sides at the same collector
// state so neither inherits the other's allocation debt.
func tracingRun(rel *relation.Relation, method Method, m int, clientTr, serverTr *otrace.Tracer) (int64, error) {
	srv := transport.NewServer(store.NewServer())
	if serverTr != nil {
		srv.SetTracer(serverTr)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	go func() { _ = srv.Serve(l) }()
	cli, err := transport.DialWith(l.Addr().String(), transport.ClientConfig{Trace: clientTr})
	if err != nil {
		return 0, err
	}
	defer cli.Close()
	s, err := newSetupOn(cli, rel, method, 1, 0)
	if err != nil {
		return 0, err
	}
	defer s.close()
	runtime.GC()
	start := time.Now()
	if _, err := core.Discover(s.eng, m, &core.Options{Trace: clientTr}); err != nil {
		return 0, err
	}
	return time.Since(start).Nanoseconds(), nil
}

// Render prints one row per (method, n) with the off/on walls and overhead.
func (r *TracingResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %8s %12s %12s %10s %10s\n",
		"method", "n", "wall-off", "wall-on", "overhead", "spans")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%-8s %8d %12s %12s %9.2f%% %10d\n",
			pt.Method, pt.N,
			fmtDur(time.Duration(pt.WallOffNS)), fmtDur(time.Duration(pt.WallOnNS)),
			pt.OverheadPct, pt.Spans)
	}
	fmt.Fprintf(&b, "%-8s %8s %12s %12s %9.2f%%\n",
		"overall", "", fmtDur(time.Duration(r.TotalOffNS)), fmtDur(time.Duration(r.TotalOnNS)),
		r.OverheadPct)
	return b.String()
}

// WriteFile writes the result as indented JSON (the BENCH_tracing.json
// artifact).
func (r *TracingResult) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
