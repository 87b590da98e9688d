package bench

import (
	"fmt"
	"github.com/oblivfd/oblivfd/internal/core"
	"math/rand"
	"strings"
	"time"

	"github.com/oblivfd/oblivfd/internal/dataset"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/stats"
	"github.com/oblivfd/oblivfd/internal/store"
)

// Table2Cell is one (method, |X| case, dataset) entry: the KS p-value
// comparing the method's runtimes on a real-shaped dataset against its
// runtimes on RND, plus the observed server storage.
type Table2Cell struct {
	Method      core.Protocol
	MultiAttr   bool // false: |X| = 1 (groups S1 vs S3); true: |X| ≥ 2 (S2 vs S4)
	Dataset     string
	PValue      float64
	StorageReal int64 // server bytes after the run on the real dataset
	StorageRND  int64 // server bytes after the run on RND
}

// Table2Result reproduces Table II: the obliviousness experiment.
type Table2Result struct {
	RowsSampled int
	Runs        int
	Cells       []Table2Cell
}

// Table2Config parameterizes the experiment.
type Table2Config struct {
	// Rows is the sample size per dataset; the paper uses 2^13. Smaller
	// values keep quick runs quick.
	Rows int
	// Runs is the per-group sample count; the paper uses 9.
	Runs int
	// Seed drives dataset generation and column choice.
	Seed int64
	// RTT, when positive, models the paper's network deployment: every
	// storage operation costs one round trip. The paper's p-values come
	// from wall-clock times in a regime where the (data-independent)
	// network cost dominates; without it, microsecond-level client-side
	// effects — position-map sizes, allocator behavior — that a real
	// adversary cannot observe leak into in-process timings and skew the
	// KS test.
	RTT time.Duration
}

// Table2 runs the paper's §VII-B experiment: for each method and each
// |X| case, measure Runs runtimes on each real-shaped dataset (groups S1,
// S2) and on RND (groups S3, S4), and KS-test the samples. Obliviousness
// predicts p-values well above 0.05 everywhere and near-identical storage.
func Table2(cfg Table2Config) (*Table2Result, error) {
	if cfg.Rows <= 0 {
		cfg.Rows = 1 << 13
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 9
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &Table2Result{RowsSampled: cfg.Rows, Runs: cfg.Runs}

	// Definition 2 quantifies over databases *of the same size*, and under
	// cell-level encryption a cell's length is part of that size. The
	// datasets' native cell lengths differ (Adult's categorical strings vs
	// RND's integers), which would legitimately — but uninterestingly —
	// separate the runtime distributions. Pad every cell to one width so
	// the compared databases really are same-size, differing only in
	// content.
	const cellWidth = 20
	rnd := padCells(dataset.RND(10, cfg.Rows, cfg.Seed+100), cellWidth)
	datasets := map[string]*relation.Relation{}
	for _, name := range []string{"adult", "letter", "flight"} {
		rel, err := dataset.Generate(name, cfg.Rows, cfg.Seed)
		if err != nil {
			return nil, err
		}
		datasets[name] = padCells(rel, cellWidth)
	}

	// measureOnce runs one partition computation on rel with a fresh
	// upload and engine, returning the runtime and the protocol storage
	// delta (over the uploaded ciphertexts, whose size is the allowed
	// Size(DB) leakage).
	measureOnce := func(method core.Protocol, rel *relation.Relation, multi bool) (float64, int64, error) {
		var s *setup
		var err error
		if cfg.RTT > 0 {
			s, err = newSetupOn(store.WithLatency(store.Service(store.NewServer()), cfg.RTT), rel, method, 1, 0)
		} else {
			s, err = newSetup(rel, method, 1, 0)
		}
		if err != nil {
			return 0, 0, err
		}
		defer s.close()
		before := s.serverBytes()
		var d time.Duration
		if multi {
			a := rng.Intn(rel.NumAttrs())
			b := (a + 1 + rng.Intn(rel.NumAttrs()-1)) % rel.NumAttrs()
			d, err = s.timePair(a, b)
		} else {
			d, err = s.timeSingle(rng.Intn(rel.NumAttrs()))
		}
		if err != nil {
			return 0, 0, err
		}
		return d.Seconds(), s.serverBytes() - before, nil
	}

	order := []string{"rnd", "adult", "letter", "flight"}
	relOf := func(name string) *relation.Relation {
		if name == "rnd" {
			return rnd
		}
		return datasets[name]
	}
	for _, method := range AllMethods {
		for _, multi := range []bool{false, true} {
			// Interleave the groups round-robin: run r of every dataset
			// executes back to back, so slow drift in machine conditions
			// (thermal, background load) shifts all groups equally
			// instead of separating them. The paper's network noise is
			// i.i.d. across its sequential runs; interleaving restores
			// that pairing in a shared environment.
			times := make(map[string][]float64, len(order))
			storage := make(map[string]int64, len(order))
			for r := 0; r < cfg.Runs; r++ {
				// Shuffle within the round too: a fixed position in the
				// round correlates with allocator/GC phase, which would
				// systematically separate one group.
				round := append([]string(nil), order...)
				rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
				for _, name := range round {
					t, sto, err := measureOnce(method, relOf(name), multi)
					if err != nil {
						return nil, fmt.Errorf("bench: table2 %s %s: %w", method, name, err)
					}
					times[name] = append(times[name], t)
					storage[name] = sto
				}
			}
			for _, name := range order[1:] {
				ks, err := stats.KSTest(times[name], times["rnd"])
				if err != nil {
					return nil, err
				}
				res.Cells = append(res.Cells, Table2Cell{
					Method:      method,
					MultiAttr:   multi,
					Dataset:     name,
					PValue:      ks.P,
					StorageReal: storage[name],
					StorageRND:  storage["rnd"],
				})
			}
		}
	}
	return res, nil
}

// padCells pads (or truncates) every cell to exactly width bytes, giving
// all compared databases identical Size(DB).
func padCells(rel *relation.Relation, width int) *relation.Relation {
	out := relation.New(rel.Schema())
	for i := 0; i < rel.NumRows(); i++ {
		row := make(relation.Row, rel.NumAttrs())
		for j := range row {
			v := rel.Value(i, j)
			if len(v) > width {
				v = v[:width]
			}
			row[j] = v + strings.Repeat("~", width-len(v))
		}
		if err := out.Append(row); err != nil {
			panic(err) // same schema and width by construction
		}
	}
	return out
}

// Render prints the table in the paper's layout (methods × case rows,
// dataset p-value columns, storage column).
func (r *Table2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: two-sample KS test p-values (runtime, real vs RND), n=%d, %d runs/group\n", r.RowsSampled, r.Runs)
	fmt.Fprintf(&b, "%-8s %-7s %8s %8s %8s %12s %12s\n", "Method", "Case", "Adult", "Letter", "Flight", "Sto(real)", "Sto(RND)")
	for _, method := range AllMethods {
		for _, multi := range []bool{false, true} {
			caseName := "|X|=1"
			if multi {
				caseName = "|X|>=2"
			}
			vals := map[string]Table2Cell{}
			for _, c := range r.Cells {
				if c.Method == method && c.MultiAttr == multi {
					vals[c.Dataset] = c
				}
			}
			f := vals["flight"]
			fmt.Fprintf(&b, "%-8s %-7s %8.2f %8.2f %8.2f %12s %12s\n",
				method.Paper(), caseName,
				vals["adult"].PValue, vals["letter"].PValue, f.PValue,
				fmtBytes(f.StorageReal), fmtBytes(f.StorageRND))
		}
	}
	b.WriteString("Obliviousness predicts p >= 0.05 in every cell and matching storage columns.\n")
	return b.String()
}

// MinPValue returns the smallest p-value in the table (used by tests: a
// tiny value would be evidence against obliviousness).
func (r *Table2Result) MinPValue() float64 {
	min := 1.0
	for _, c := range r.Cells {
		if c.PValue < min {
			min = c.PValue
		}
	}
	return min
}
