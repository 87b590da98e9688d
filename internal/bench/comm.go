package bench

import (
	"fmt"
	"strings"

	"github.com/oblivfd/oblivfd/internal/dataset"
)

// CommPoint is one (method, case, n) communication measurement: the number
// of client↔server operations and ciphertext bytes moved for one partition
// computation.
type CommPoint struct {
	Method    Method
	MultiAttr bool
	N         int
	Ops       int64
	Bytes     int64
}

// CommResult reports the communication cost of each method — the quantity
// that dominates the paper's wall-clock numbers (its client and server are
// separated by a network) and that our trace recorder measures exactly
// rather than through timing.
type CommResult struct {
	Points []CommPoint
}

// Comm measures one partition computation per (method, case, n) on RND and
// reads the op/byte counters from the adversary's trace.
func Comm(sizes []int, seed int64) (*CommResult, error) {
	res := &CommResult{}
	for _, n := range sizes {
		for _, method := range AllMethods {
			for _, multi := range []bool{false, true} {
				s, err := newSetup(dataset.RND(4, n, seed+int64(n)), method, 1, 0)
				if err != nil {
					return nil, err
				}
				if multi {
					err = s.preparePair(0, 1)
				}
				if err == nil {
					s.srv.Trace().Reset()
					if multi {
						_, err = s.timeUnion(0, 1)
					} else {
						_, err = s.timeSingle(0)
					}
				}
				if err != nil {
					s.close()
					return nil, fmt.Errorf("bench: comm %s n=%d: %w", method, n, err)
				}
				res.Points = append(res.Points, CommPoint{
					Method:    method,
					MultiAttr: multi,
					N:         n,
					Ops:       s.srv.Trace().TotalOps(),
					Bytes:     s.srv.Trace().TotalBytes(),
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
	for _, multi := range []bool{false, true} {
		caseName := "|X| = 1"
		if multi {
			caseName = "|X| >= 2 (the union alone, over two covers already built and read once)"
		}
		fmt.Fprintf(&b, "%s\n", caseName)
		fmt.Fprintf(&b, "%8s", "n")
		for _, m := range AllMethods {
			fmt.Fprintf(&b, " %11s-ops %11s-MB", m, m)
		}
		b.WriteByte('\n')
		seen := map[int]map[Method]CommPoint{}
		var order []int
		for _, p := range r.Points {
			if p.MultiAttr != multi {
				continue
			}
			if seen[p.N] == nil {
				seen[p.N] = map[Method]CommPoint{}
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
	b.WriteString("Expected shape: ORAM methods move O(n log n) blocks per partition,\nSort O(n log² n) small records; over a network these counts, not CPU, set the runtime.\n" + sortCoverNote)
	return b.String()
}

// Point looks up a measurement (testing helper).
func (r *CommResult) Point(m Method, multi bool, n int) (CommPoint, bool) {
	for _, p := range r.Points {
		if p.Method == m && p.MultiAttr == multi && p.N == n {
			return p, true
		}
	}
	return CommPoint{}, false
}
