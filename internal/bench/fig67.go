package bench

import (
	"fmt"
	"strings"
	"time"

	"github.com/oblivfd/oblivfd/internal/core"
	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/dataset"
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
		s, err := newSetupOn(svc, rel, MethodSort, th, 0)
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
	fmt.Fprintf(&b, "Fig 6(a): Sort runtime vs threads (RND, n=%d)\n", r.N)
	fmt.Fprintf(&b, "%8s %12s %10s\n", "threads", "runtime", "speedup")
	var base time.Duration
	for _, p := range r.Points {
		if base == 0 {
			base = p.Runtime
		}
		fmt.Fprintf(&b, "%8d %12s %9.2fx\n", p.Threads, fmtDur(p.Runtime), float64(base)/float64(p.Runtime))
	}
	b.WriteString("Expected shape: near-2x from 1 to 2 threads, diminishing returns by 8 to 16.\n" + sortCoverNote)
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
			s, err := newSetup(rel, MethodSort, 1, 0)
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

			enc := &setup{eng: core.NewEnclaveEngine(rel, 1)}
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

// Fig7Point is one (n, case) pair of average per-operation latencies for
// Ex-ORAM insertion and deletion.
type Fig7Point struct {
	N          int
	MultiAttr  bool
	InsertAvg  time.Duration
	DeleteAvg  time.Duration
	Operations int
}

// Fig7Result reproduces Fig. 7: dynamic-operation efficiency.
type Fig7Result struct {
	Points []Fig7Point
}

// Fig7 replays the paper's workload: starting from an empty database with
// capacity n, insert n rows one by one, then delete them all, and report
// the average per-operation latency of maintaining one single-attribute
// partition (the |X| = 1 curve) and one two-attribute partition (|X| = 2).
// A timing hook inside Ex-ORAM isolates each partition's marginal cost.
func Fig7(sizes []int, seed int64) (*Fig7Result, error) {
	res := &Fig7Result{}
	for _, n := range sizes {
		rel := dataset.RND(2, n, seed+int64(n))
		srv := store.NewServer()
		cipher, err := crypto.NewCipher(crypto.MustNewKey())
		if err != nil {
			return nil, err
		}
		edb, err := core.UploadWithCapacity(srv, cipher, "fig7", relation.New(rel.Schema()), n)
		if err != nil {
			return nil, err
		}
		eng, err := core.NewExEngine(edb)
		if err != nil {
			return nil, err
		}
		// Materialize the tracked partitions on the empty database; all
		// maintenance cost is then incremental.
		if _, err := core.CardinalitySingle(eng, 0); err != nil {
			return nil, fmt.Errorf("bench: fig7 n=%d: %w", n, err)
		}
		if _, err := core.CardinalitySingle(eng, 1); err != nil {
			return nil, fmt.Errorf("bench: fig7 n=%d: %w", n, err)
		}
		pair := relation.NewAttrSet(0, 1)
		if _, err := core.CardinalityUnion(eng, relation.SingleAttr(0), relation.SingleAttr(1)); err != nil {
			return nil, fmt.Errorf("bench: fig7 n=%d: %w", n, err)
		}

		perSet := map[relation.AttrSet]time.Duration{}
		eng.SetTimingHook(func(x relation.AttrSet, d time.Duration) { perSet[x] += d })

		ids := make([]int, 0, n)
		for i := 0; i < n; i++ {
			id, err := eng.Insert(rel.Row(i))
			if err != nil {
				return nil, fmt.Errorf("bench: fig7 insert %d/%d: %w", i, n, err)
			}
			ids = append(ids, id)
		}
		insertSingle := perSet[relation.SingleAttr(0)] / time.Duration(n)
		insertPair := perSet[pair] / time.Duration(n)

		perSet = map[relation.AttrSet]time.Duration{}
		eng.SetTimingHook(func(x relation.AttrSet, d time.Duration) { perSet[x] += d })
		for _, id := range ids {
			if err := eng.Delete(id); err != nil {
				return nil, fmt.Errorf("bench: fig7 delete %d: %w", id, err)
			}
		}
		deleteSingle := perSet[relation.SingleAttr(0)] / time.Duration(n)
		deletePair := perSet[pair] / time.Duration(n)
		_ = eng.Close()

		res.Points = append(res.Points,
			Fig7Point{N: n, MultiAttr: false, InsertAvg: insertSingle, DeleteAvg: deleteSingle, Operations: n},
			Fig7Point{N: n, MultiAttr: true, InsertAvg: insertPair, DeleteAvg: deletePair, Operations: n},
		)
	}
	return res, nil
}

// Render prints both cases.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig 7: Ex-ORAM insertion/deletion latency (average per operation)\n")
	fmt.Fprintf(&b, "%8s %6s %12s %12s\n", "n", "case", "insert", "delete")
	for _, p := range r.Points {
		caseName := "|X|=1"
		if p.MultiAttr {
			caseName = "|X|=2"
		}
		fmt.Fprintf(&b, "%8d %6s %12s %12s\n", p.N, caseName, fmtDur(p.InsertAvg), fmtDur(p.DeleteAvg))
	}
	b.WriteString("Expected shape: ~log n growth; with |X|=2 insertion costs about twice deletion\n(insertion touches four ORAMs, deletion two).\n")
	return b.String()
}

// Point looks up a measurement (testing helper).
func (r *Fig7Result) Point(n int, multi bool) (Fig7Point, bool) {
	for _, p := range r.Points {
		if p.N == n && p.MultiAttr == multi {
			return p, true
		}
	}
	return Fig7Point{}, false
}
