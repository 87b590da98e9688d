package bench

import (
	"fmt"
	"github.com/oblivfd/oblivfd/internal/core"
	"strings"
	"time"

	"github.com/oblivfd/oblivfd/internal/dataset"
)

// Fig4Point is one (method, case, n) runtime measurement.
type Fig4Point struct {
	Method    core.Protocol
	MultiAttr bool
	N         int
	Runtime   time.Duration
}

// Fig4Result reproduces Fig. 4: row scalability of partition-computation
// runtime for |X| = 1 and |X| ≥ 2.
type Fig4Result struct {
	Points []Fig4Point
}

// Fig4 measures one partition computation per (method, case, n) on RND.
func Fig4(sizes []int, seed int64) (*Fig4Result, error) {
	res := &Fig4Result{}
	for _, n := range sizes {
		rel := dataset.RND(4, n, seed+int64(n))
		for _, method := range AllMethods {
			for _, multi := range []bool{false, true} {
				s, err := newSetup(rel, method, 1, 0)
				if err != nil {
					return nil, err
				}
				var d time.Duration
				if multi {
					d, err = s.timePair(0, 1)
				} else {
					d, err = s.timeSingle(0)
				}
				s.close()
				if err != nil {
					return nil, fmt.Errorf("bench: fig4 %s n=%d: %w", method, n, err)
				}
				res.Points = append(res.Points, Fig4Point{Method: method, MultiAttr: multi, N: n, Runtime: d})
			}
		}
	}
	return res, nil
}

// Fig4Single measures a single Fig. 4 point: one partition computation for
// the given method, case, and row count.
func Fig4Single(method core.Protocol, multi bool, n int, seed int64) (time.Duration, error) {
	rel := dataset.RND(4, n, seed)
	s, err := newSetup(rel, method, 1, 0)
	if err != nil {
		return 0, err
	}
	defer s.close()
	if multi {
		return s.timePair(0, 1)
	}
	return s.timeSingle(0)
}

// Render prints two series blocks, one per case, methods as columns.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	for _, multi := range []bool{false, true} {
		caseName := "|X| = 1"
		if multi {
			caseName = "|X| >= 2"
		}
		fmt.Fprintf(&b, "Fig 4 (%s): partition runtime vs n (RND)\n", caseName)
		fmt.Fprintf(&b, "%8s %12s %12s %12s\n", "n", core.ProtocolORAM.Paper(), core.ProtocolDynamicORAM.Paper(), core.ProtocolSort.Paper())
		seen := map[int]map[core.Protocol]time.Duration{}
		var order []int
		for _, p := range r.Points {
			if p.MultiAttr != multi {
				continue
			}
			if seen[p.N] == nil {
				seen[p.N] = map[core.Protocol]time.Duration{}
				order = append(order, p.N)
			}
			seen[p.N][p.Method] = p.Runtime
		}
		for _, n := range order {
			fmt.Fprintf(&b, "%8d %12s %12s %12s\n", n,
				fmtDur(seen[n][core.ProtocolORAM]), fmtDur(seen[n][core.ProtocolDynamicORAM]), fmtDur(seen[n][core.ProtocolSort]))
		}
	}
	b.WriteString("Expected shape: Sort grows ~n·log²n and overtakes the ORAM methods as n grows;\nEx-ORAM > Or-ORAM; the |X|>=2 case costs ORAM methods extra subset reads.\n" + sortCoverNote)
	return b.String()
}

// Runtime looks up a point (testing helper).
func (r *Fig4Result) Runtime(m core.Protocol, multi bool, n int) (time.Duration, bool) {
	for _, p := range r.Points {
		if p.Method == m && p.MultiAttr == multi && p.N == n {
			return p.Runtime, true
		}
	}
	return 0, false
}

// Fig5Point is one (method, n) resource measurement after computing one
// single-attribute partition.
type Fig5Point struct {
	Method      core.Protocol
	N           int
	ServerBytes int64
	ClientBytes int
}

// Fig5Result reproduces Fig. 5: server storage and client memory vs n.
type Fig5Result struct {
	Points []Fig5Point
}

// Fig5 measures per-partition server storage and client memory on RND. The
// paper notes the curves coincide for |X| = 1 and |X| ≥ 2, so one case
// suffices.
func Fig5(sizes []int, seed int64) (*Fig5Result, error) {
	res := &Fig5Result{}
	for _, n := range sizes {
		rel := dataset.RND(2, n, seed+int64(n))
		for _, method := range AllMethods {
			s, err := newSetup(rel, method, 1, 0)
			if err != nil {
				return nil, err
			}
			before := s.serverBytes()
			if _, err := s.timeSingle(0); err != nil {
				s.close()
				return nil, fmt.Errorf("bench: fig5 %s n=%d: %w", method, n, err)
			}
			res.Points = append(res.Points, Fig5Point{
				Method:      method,
				N:           n,
				ServerBytes: s.serverBytes() - before,
				ClientBytes: s.eng.ClientMemoryBytes(),
			})
			s.close()
		}
	}
	return res, nil
}

// Render prints server-storage and client-memory blocks.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	render := func(title string, value func(Fig5Point) string) {
		fmt.Fprintf(&b, "Fig 5 (%s) vs n, one partition (RND)\n", title)
		fmt.Fprintf(&b, "%8s %12s %12s %12s\n", "n", core.ProtocolORAM.Paper(), core.ProtocolDynamicORAM.Paper(), core.ProtocolSort.Paper())
		seen := map[int]map[core.Protocol]string{}
		var order []int
		for _, p := range r.Points {
			if seen[p.N] == nil {
				seen[p.N] = map[core.Protocol]string{}
				order = append(order, p.N)
			}
			seen[p.N][p.Method] = value(p)
		}
		for _, n := range order {
			fmt.Fprintf(&b, "%8d %12s %12s %12s\n", n,
				seen[n][core.ProtocolORAM], seen[n][core.ProtocolDynamicORAM], seen[n][core.ProtocolSort])
		}
	}
	render("server storage", func(p Fig5Point) string { return fmtBytes(p.ServerBytes) })
	render("client memory", func(p Fig5Point) string { return fmtBytes(int64(p.ClientBytes)) })
	b.WriteString("Expected shape: Sort stores far less on the server and O(1) on the client;\nORAM methods cost O(n) on both, Ex-ORAM > Or-ORAM (extra key and frequency fields).\n")
	return b.String()
}

// Point looks up a measurement (testing helper).
func (r *Fig5Result) Point(m core.Protocol, n int) (Fig5Point, bool) {
	for _, p := range r.Points {
		if p.Method == m && p.N == n {
			return p, true
		}
	}
	return Fig5Point{}, false
}

// Table3Result reproduces Table III: the analytic complexity summary,
// printed alongside measured scaling exponents from a Fig. 4 run so theory
// and measurement sit side by side.
type Table3Result struct {
	Fig4 *Fig4Result
}

// Table3 wraps a Fig. 4 sweep for the complexity summary.
func Table3(sizes []int, seed int64) (*Table3Result, error) {
	f, err := Fig4(sizes, seed)
	if err != nil {
		return nil, err
	}
	return &Table3Result{Fig4: f}, nil
}

// Render prints the analytic table and, where the sweep covers a 4× range,
// the measured runtime ratio across the extreme sizes.
func (r *Table3Result) Render() string {
	var b strings.Builder
	b.WriteString("Table III: method summary (computation for one partition, storage in S)\n")
	fmt.Fprintf(&b, "%-8s %-32s %-10s\n", "Method", "Computation", "Storage")
	fmt.Fprintf(&b, "%-8s %-32s %-10s\n", "ORAM", "O(n log n (1 + log² log n))", "O(n)")
	fmt.Fprintf(&b, "%-8s %-32s %-10s\n", "Sort", "O(n log² n)", "O(n)")
	ns := map[int]bool{}
	var min, max int
	for _, p := range r.Fig4.Points {
		if !ns[p.N] {
			ns[p.N] = true
			if min == 0 || p.N < min {
				min = p.N
			}
			if p.N > max {
				max = p.N
			}
		}
	}
	if max >= 4*min {
		b.WriteString("\nMeasured runtime growth (|X|=1) across the sweep:\n")
		for _, m := range AllMethods {
			lo, ok1 := r.Fig4.Runtime(m, false, min)
			hi, ok2 := r.Fig4.Runtime(m, false, max)
			if ok1 && ok2 && lo > 0 {
				fmt.Fprintf(&b, "  %-8s n: %d -> %d, runtime x%.1f\n", m.Paper(), min, max, float64(hi)/float64(lo))
			}
		}
	}
	return b.String()
}
