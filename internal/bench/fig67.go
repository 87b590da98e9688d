package bench

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/oblivfd/oblivfd/internal/core"
	"github.com/oblivfd/oblivfd/internal/dataset"
	"github.com/oblivfd/oblivfd/internal/obsort"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
)

// Fig6aPoint is one (threads, runtime) measurement of Sort.
type Fig6aPoint struct {
	Threads int
	Runtime time.Duration
}

// Fig6aResult reproduces Fig. 6(a): Sort runtime vs worker count.
type Fig6aResult struct {
	N      int
	Points []Fig6aPoint
}

// DefaultRTT is the default modeled network round-trip time per storage
// operation. The paper's client and server are separate machines on a
// 1 Gbps LAN (§VII-A); the parallel speedup of Fig. 6(a) comes from
// overlapping those round trips across threads. We model the round trip
// explicitly (store.WithLatency) so the experiment reproduces that
// mechanism even on a single-core host — see DESIGN.md §2.
const DefaultRTT = 200 * time.Microsecond

// Fig6a runs one Sort partition computation per thread count on RND with n
// rows (the paper uses 2^15 rows and 1..16 threads), with rtt of modeled
// network latency per storage operation.
func Fig6a(n int, threads []int, rtt time.Duration, seed int64) (*Fig6aResult, error) {
	rel := dataset.RND(2, n, seed)
	res := &Fig6aResult{N: n}

	for _, th := range threads {
		svc := store.WithLatency(store.Service(store.NewServer()), rtt)
		s, err := newSetupOn(svc, rel, core.ProtocolSort, th, 0)
		if err != nil {
			return nil, err
		}
		d, err := s.timeSingle(0)
		s.close()
		if err != nil {
			return nil, fmt.Errorf("bench: fig6a threads=%d: %w", th, err)
		}
		res.Points = append(res.Points, Fig6aPoint{Threads: th, Runtime: d})
	}
	return res, nil
}

// Render prints the thread sweep.
func (r *Fig6aResult) Render() string {
	var b strings.Builder
	chains := obsort.StageChains(r.N)
	fmt.Fprintf(&b, "Fig 6(a): Sort runtime vs threads (RND, n=%d, chains a sub-stage: %d)\n", r.N, chains)
	fmt.Fprintf(&b, "%8s %12s %10s\n", "threads", "runtime", "speedup")
	var base time.Duration
	for _, p := range r.Points {
		if base == 0 {
			base = p.Runtime
		}
		fmt.Fprintf(&b, "%8d %12s %9.2fx\n", p.Threads, fmtDur(p.Runtime), float64(base)/float64(p.Runtime))
	}
	fmt.Fprintf(&b, "Expected shape: runtime falls with threads up to %d, the chains a sub-stage has, and is flat past that.\n", chains)
	b.WriteString(sortCoverNote)
	return b.String()
}

// Fig6bPoint is one (n, case) pair of runtimes: the client-server Sort
// protocol vs the enclave-simulated deployment.
type Fig6bPoint struct {
	N         int
	MultiAttr bool
	Outside   time.Duration // client-server Sort (ciphertexts + transfer)
	Enclave   time.Duration // enclave simulation (plaintext secure memory)
}

// Fig6bResult reproduces Fig. 6(b): Sort inside SGX vs outside.
type Fig6bResult struct {
	Points []Fig6bPoint
}

// Fig6b sweeps n for both |X| cases.
func Fig6b(sizes []int, seed int64) (*Fig6bResult, error) {
	res := &Fig6bResult{}
	for _, n := range sizes {
		rel := dataset.RND(2, n, seed+int64(n))
		for _, multi := range []bool{false, true} {
			s, err := newSetup(rel, core.ProtocolSort, 1, 0)
			if err != nil {
				return nil, err
			}
			var outside time.Duration
			if multi {
				outside, err = s.timePair(0, 1)
			} else {
				outside, err = s.timeSingle(0)
			}
			s.close()
			if err != nil {
				return nil, err
			}

			enc, err := newSetupOn(nil, rel, core.ProtocolEnclave, 1, 0)
			if err != nil {
				return nil, err
			}
			var inside time.Duration
			if multi {
				inside, err = enc.timePair(0, 1)
			} else {
				inside, err = enc.timeSingle(0)
			}
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, Fig6bPoint{N: n, MultiAttr: multi, Outside: outside, Enclave: inside})
		}
	}
	return res, nil
}

// Render prints both cases; the enclave columns should nearly coincide.
func (r *Fig6bResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig 6(b): Sort runtime with and without the (simulated) enclave\n")
	fmt.Fprintf(&b, "%8s %6s %14s %14s %10s\n", "n", "case", "no-enclave", "enclave", "speedup")
	for _, p := range r.Points {
		caseName := "|X|=1"
		if p.MultiAttr {
			caseName = ">=2"
		}
		speed := float64(p.Outside) / float64(maxDur(p.Enclave, time.Microsecond))
		fmt.Fprintf(&b, "%8d %6s %14s %14s %9.0fx\n", p.N, caseName, fmtDur(p.Outside), fmtDur(p.Enclave), speed)
	}
	b.WriteString("Expected shape: enclave runs orders of magnitude faster; |X|=1 and |X|>=2 curves overlap inside the enclave.\n" + sortCoverNote)
	return b.String()
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// Fig7Point is one (n, case) pair of average per-operation costs of Ex-ORAM
// insertion and deletion: the time one more partition of the case's size
// adds, and the rounds an operation takes on the engine that keeps it.
type Fig7Point struct {
	N         int
	MultiAttr bool
	InsertAvg time.Duration
	DeleteAvg time.Duration
	// InsertRounds and DeleteRounds are per operation, on the engine that
	// keeps {0}, {1} (|X| = 1) or {0}, {1}, {0,1} (|X| = 2).
	InsertRounds, DeleteRounds float64
	// RediscoverRounds is what a Discover took after the n insertions on the
	// engine without the case's partition: the rounds of filling the sets the
	// FDs need and that engine does not keep.
	RediscoverRounds int64
}

// Fig7Result reproduces Fig. 7: dynamic-operation efficiency, a point per
// (n, case), |X| = 1 before |X| = 2.
type Fig7Result struct {
	Points []Fig7Point
}

// fig7Lists are the set lists the engines of Fig. 7 keep: each adds one
// partition to the one before, a single and then the pair.
var fig7Lists = [][]core.Request{
	{core.Single(0)},
	{core.Single(0), core.Single(1)},
	{core.Single(0), core.Single(1), core.Union(relation.SingleAttr(0), relation.SingleAttr(1))},
}

// fig7Engine is one engine of Fig. 7 and what its insertions ([0]) and
// deletions ([1]) took, in total.
type fig7Engine struct {
	eng    core.DynamicEngine
	rounds *store.RoundCounter
	took   [2]time.Duration
	spent  [2]int64 // rounds
	// rediscover is the rounds a Discover took after the insertions.
	rediscover int64
}

// Fig7 replays the paper's workload: starting from an empty database with
// capacity n, insert n rows one by one, then delete them all. The sets a
// mutation steps share its rounds, so one partition's cost is not a span of
// the run: it is the difference between two engines whose kept set lists
// differ by that partition — {0}, {1} against {0} for the |X| = 1 curve,
// {0}, {1}, {0,1} against {0}, {1} for |X| = 2 — averaged per operation.
// Each point also has the rounds per operation of the engine with the larger
// list, counted with store.WithRoundCounter, and the rounds a re-discovery
// after the insertions took on the engine with the smaller one.
func Fig7(sizes []int, seed int64) (*Fig7Result, error) {
	res := &Fig7Result{}
	for _, n := range sizes {
		engines := make([]fig7Engine, len(fig7Lists))
		err := fig7Run(engines, dataset.RND(2, n, seed+int64(n)))
		for _, e := range engines {
			if e.eng != nil {
				_ = e.eng.Close()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("bench: fig7 n=%d: %w", n, err)
		}
		for k, multi := range []bool{false, true} {
			with, without, ops := engines[k+1], engines[k], time.Duration(n)
			res.Points = append(res.Points, Fig7Point{N: n, MultiAttr: multi,
				InsertAvg: (with.took[0] - without.took[0]) / ops, DeleteAvg: (with.took[1] - without.took[1]) / ops,
				InsertRounds: float64(with.spent[0]) / float64(n), DeleteRounds: float64(with.spent[1]) / float64(n),
				RediscoverRounds: without.rediscover})
		}
	}
	return res, nil
}

// fig7Run builds an engine per list of fig7Lists, its sets materialized on an
// empty database of capacity rel's rows so that all maintenance cost is
// incremental, then inserts the rows one by one and deletes them all. The
// engines take each operation in turn, so drift in the host's speed falls on
// all of them alike. Between the insertions and the deletions each engine
// discovers again (fig7Rediscover), untimed.
func fig7Run(engines []fig7Engine, rel *relation.Relation) error {
	n := rel.NumRows()
	for i, keep := range fig7Lists {
		e := &engines[i]
		e.rounds = store.WithRoundCounter(store.NewServer())
		s, err := newSetupOn(e.rounds, relation.New(rel.Schema()), core.ProtocolDynamicORAM, 1, n)
		if err != nil {
			return err
		}
		e.eng = s.eng.(core.DynamicEngine)
		if _, err := e.eng.Materialize(keep); err != nil {
			return err
		}
	}
	for op := 0; op < 2*n; op++ {
		for i := range engines {
			if op == n {
				if err := fig7Rediscover(&engines[i], rel.NumAttrs(), fig7Lists[i]); err != nil {
					return fmt.Errorf("re-discovery after %d insertions: %w", n, err)
				}
			}
			e, start, base := &engines[i], time.Now(), engines[i].rounds.Rounds()
			var err error
			if op < n {
				_, err = e.eng.Insert(rel.Row(op))
			} else {
				err = e.eng.Delete(op - n)
			}
			if err != nil {
				return fmt.Errorf("operation %d of %d: %w", op+1, 2*n, err)
			}
			e.took[op/n] += time.Since(start)
			e.spent[op/n] += e.rounds.Rounds() - base
		}
	}
	return nil
}

// fig7Rediscover runs Discover on e, counting its rounds, and then releases
// the sets it built beyond keep, so the deletions step what they would have.
func fig7Rediscover(e *fig7Engine, m int, keep []core.Request) error {
	base := e.rounds.Rounds()
	res, err := core.Discover(e.eng, m, &core.Options{KeepPartitions: true})
	if err != nil {
		return err
	}
	e.rediscover = e.rounds.Rounds() - base
	for x := range res.Cardinalities {
		if !slices.ContainsFunc(keep, func(r core.Request) bool { return r.Set == x }) {
			if err := e.eng.Release(x); err != nil {
				return err
			}
		}
	}
	return nil
}

// Render prints both cases.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig 7: Ex-ORAM insertion/deletion latency (average per operation, one partition's marginal cost)\n")
	fmt.Fprintf(&b, "%8s %6s %12s %12s %12s %12s %12s\n", "n", "case", "insert", "delete", "ins rounds", "del rounds", "rediscovery")
	for _, p := range r.Points {
		caseName := "|X|=1"
		if p.MultiAttr {
			caseName = "|X|=2"
		}
		fmt.Fprintf(&b, "%8d %6s %12s %12s %12.2f %12.2f %12d\n", p.N, caseName, fmtDur(p.InsertAvg), fmtDur(p.DeleteAvg), p.InsertRounds, p.DeleteRounds, p.RediscoverRounds)
	}
	b.WriteString("Expected shape: ~log n growth; with |X|=2 insertion costs about twice deletion\n(insertion touches four ORAMs, deletion two). Rounds follow the kept levels, not the\nsets: insertion 1 + 2 + 3 = 6 with the pair kept (3 without), deletion 3. A re-discovery\nafter the n insertions, without the case's partition kept, fills what the FDs need of\nit and above it: a set's set-up batches and ⌈n/64⌉ + 2 rounds each.\n")
	return b.String()
}
