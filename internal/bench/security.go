package bench

import (
	"fmt"
	"strings"
	"time"

	"github.com/oblivfd/oblivfd/internal/core"
	"github.com/oblivfd/oblivfd/internal/dataset"
	"github.com/oblivfd/oblivfd/internal/store"
)

// SecurityLevelPoint is one (level, n) full-discovery measurement.
type SecurityLevelPoint struct {
	Level   string
	Leakage string
	N       int
	Runtime time.Duration
	// Ops is how many storage operations the server saw during the
	// discovery (the upload excluded) — unlike Runtime, a function of the
	// run alone.
	Ops int64
}

// SecurityLevelsResult quantifies the price of security: full FD discovery
// under each leakage regime, from no protection to minimal leakage. This is
// the paper's positioning (§I-B, §VIII) made measurable: its predecessor
// [14] trades frequency leakage for speed; the paper's protocols close the
// leak and pay the oblivious-computation premium.
type SecurityLevelsResult struct {
	MaxLHS int
	Points []SecurityLevelPoint
}

// securityLevels are the regimes SecurityLevels compares, from no protection
// to minimal leakage.
var securityLevels = []struct {
	p       core.Protocol
	leakage string
}{
	{core.ProtocolPlaintext, "everything"},
	{core.ProtocolDeterministic, "frequencies [14]"},
	{core.ProtocolEnclave, "size+FDs (SGX)"},
	{core.ProtocolSort, "size+FDs"},
	{core.ProtocolORAM, "size+FDs"},
}

// SecurityLevels measures one full discovery per level per n on RND.
func SecurityLevels(sizes []int, maxLHS int, seed int64) (*SecurityLevelsResult, error) {
	res := &SecurityLevelsResult{MaxLHS: maxLHS}
	for _, n := range sizes {
		rel := dataset.RND(4, n, seed+int64(n))
		for _, level := range securityLevels {
			srv := store.NewServer()
			eng, _, err := core.Open(srv, rel, level.p, 1, 0, nil)
			if err != nil {
				return nil, err
			}
			opsBefore := srv.Trace().TotalOps()
			start := time.Now()
			if _, err := core.Discover(eng, rel.NumAttrs(), &core.Options{MaxLHS: maxLHS}); err != nil {
				return nil, fmt.Errorf("bench: security %v n=%d: %w", level.p, n, err)
			}
			res.Points = append(res.Points, SecurityLevelPoint{
				Level: level.p.String(), Leakage: level.leakage, N: n, Runtime: time.Since(start),
				Ops: srv.Trace().TotalOps() - opsBefore,
			})
			_ = eng.Close()
		}
	}
	return res, nil
}

// Render prints the comparison grouped by n.
func (r *SecurityLevelsResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Price of security: full discovery runtime (RND, MaxLHS=%d)\n", r.MaxLHS)
	fmt.Fprintf(&b, "%-14s %-18s", "level", "leaks")
	var ns []int
	seen := map[int]bool{}
	for _, p := range r.Points {
		if !seen[p.N] {
			seen[p.N] = true
			ns = append(ns, p.N)
			fmt.Fprintf(&b, " %10s", fmt.Sprintf("n=%d", p.N))
		}
	}
	b.WriteByte('\n')
	for _, level := range securityLevels {
		times := map[int]time.Duration{}
		for _, p := range r.Points {
			if p.Level == level.p.String() {
				times[p.N] = p.Runtime
			}
		}
		fmt.Fprintf(&b, "%-14s %-18s", level.p, level.leakage)
		for _, n := range ns {
			fmt.Fprintf(&b, " %10s", fmtDur(times[n]))
		}
		b.WriteByte('\n')
	}
	b.WriteString("Deterministic tags run near plaintext speed but leak every column's frequency\nhistogram (see the frequency-attack tests); the oblivious protocols close that\nleak at the measured premium. The enclave deployment recovers most of it.\n")
	return b.String()
}
