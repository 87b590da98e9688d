package bench

import (
	"fmt"
	"strings"

	"github.com/oblivfd/oblivfd/internal/core"
	"github.com/oblivfd/oblivfd/internal/dataset"
	"github.com/oblivfd/oblivfd/internal/relation"
)

// CommPoint is one (method, case, n) communication measurement: the number
// of client↔server operations and ciphertext bytes moved for one partition
// computation, or for one lattice level's.
type CommPoint struct {
	Method core.Protocol
	Unions int // 0: |X| = 1; 1: one union; 3: a level of three unions over three covers
	N      int
	Ops    int64
	Bytes  int64
}

// CommResult reports the communication cost of each method — the quantity
// that dominates the paper's wall-clock numbers (its client and server are
// separated by a network) and that our trace recorder measures exactly
// rather than through timing.
type CommResult struct {
	Points []CommPoint
}

// commCases are the cases Comm measures, by CommPoint.Unions.
var commCases = []struct {
	unions int
	name   string
}{
	{0, "|X| = 1"},
	{1, "|X| >= 2 (the union alone, over two covers already built and read once)"},
	{3, "a level: the three unions of three attributes in one call (three covers already built and read once)"},
}

// Comm measures one partition computation per (method, case, n) on RND and
// reads the op/byte counters from the adversary's trace. The level case asks
// for {0,1}, {0,2}, {1,2} in one Materialize call, as the lattice does: the
// ORAM methods read each of the three covers once per record for all three
// unions, so it costs them less than three times the union alone; Sort builds
// the three one by one and it costs exactly three times.
func Comm(sizes []int, seed int64) (*CommResult, error) {
	level := []core.Request{
		core.Union(relation.SingleAttr(0), relation.SingleAttr(1)),
		core.Union(relation.SingleAttr(0), relation.SingleAttr(2)),
		core.Union(relation.SingleAttr(1), relation.SingleAttr(2)),
	}
	res := &CommResult{}
	for _, n := range sizes {
		for _, method := range AllMethods {
			for _, c := range commCases {
				s, err := newSetup(dataset.RND(4, n, seed+int64(n)), method, 1, 0)
				if err != nil {
					return nil, err
				}
				// Every cover is left as its first union leaves it (see
				// preparePair).
				for _, r := range level[:c.unions] {
					if err == nil {
						err = s.preparePair(r.Cover[0].First(), r.Cover[1].First())
					}
				}
				if err == nil {
					s.srv.Trace().Reset()
					if c.unions == 0 {
						_, err = s.timeSingle(0)
					} else {
						_, err = s.eng.Materialize(level[:c.unions])
					}
				}
				if err != nil {
					s.close()
					return nil, fmt.Errorf("bench: comm %s n=%d: %w", method, n, err)
				}
				res.Points = append(res.Points, CommPoint{
					Method: method,
					Unions: c.unions,
					N:      n,
					Ops:    s.srv.Trace().TotalOps(),
					Bytes:  s.srv.Trace().TotalBytes(),
				})
				s.close()
			}
		}
	}
	return res, nil
}

// Render prints ops and bytes per case.
func (r *CommResult) Render() string {
	var b strings.Builder
	b.WriteString("Communication cost per partition (server ops / ciphertext bytes moved, RND)\n")
	for _, c := range commCases {
		fmt.Fprintf(&b, "%s\n", c.name)
		fmt.Fprintf(&b, "%8s", "n")
		for _, m := range AllMethods {
			fmt.Fprintf(&b, " %11s-ops %11s-MB", m.Paper(), m.Paper())
		}
		b.WriteByte('\n')
		seen := map[int]map[core.Protocol]CommPoint{}
		var order []int
		for _, p := range r.Points {
			if p.Unions != c.unions {
				continue
			}
			if seen[p.N] == nil {
				seen[p.N] = map[core.Protocol]CommPoint{}
				order = append(order, p.N)
			}
			seen[p.N][p.Method] = p
		}
		for _, n := range order {
			fmt.Fprintf(&b, "%8d", n)
			for _, m := range AllMethods {
				p := seen[n][m]
				fmt.Fprintf(&b, " %15d %14.2f", p.Ops, float64(p.Bytes)/(1<<20))
			}
			b.WriteByte('\n')
		}
	}
	b.WriteString("Expected shape: ORAM methods move O(n log n) blocks per partition,\nSort O(n log² n) small records; over a network these counts, not CPU, set the runtime.\nA level of w unions over c covers costs the ORAM methods 2w + c accesses per record, not 4w.\n" + sortCoverNote)
	return b.String()
}

// Point looks up a measurement (testing helper).
func (r *CommResult) Point(m core.Protocol, unions, n int) (CommPoint, bool) {
	for _, p := range r.Points {
		if p.Method == m && p.Unions == unions && p.N == n {
			return p, true
		}
	}
	return CommPoint{}, false
}
