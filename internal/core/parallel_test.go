package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/trace"
)

// --- runBatch scheduler unit tests -----------------------------------------

// TestRunBatchWaveOrdering checks the two invariants the wave scheduler owes
// the engines: (a) jobs sharing a resource never run concurrently, and (b)
// each resource sees its jobs in serial job order. Case C is the first-fit
// counterexample — A{1}, B{1,2}, C{2} — where packing C into A's wave would
// let C touch resource 2 before B does.
func TestRunBatchWaveOrdering(t *testing.T) {
	r := func(attrs ...int) []relation.AttrSet {
		out := make([]relation.AttrSet, len(attrs))
		for i, a := range attrs {
			out[i] = relation.SingleAttr(a)
		}
		return out
	}

	var mu sync.Mutex
	perResource := make(map[relation.AttrSet][]int) // resource -> job indices in run order
	running := make(map[relation.AttrSet]int)       // resource -> currently running job count
	var commits []int

	job := func(idx int, resources []relation.AttrSet) batchJob {
		return batchJob{
			resources: resources,
			run: func() error {
				mu.Lock()
				for _, res := range resources {
					if running[res] != 0 {
						mu.Unlock()
						t.Errorf("job %d: resource %v already in use by a concurrent job", idx, res)
						return nil
					}
					running[res]++
					perResource[res] = append(perResource[res], idx)
				}
				mu.Unlock()
				mu.Lock()
				for _, res := range resources {
					running[res]--
				}
				mu.Unlock()
				return nil
			},
			commit: func() { commits = append(commits, idx) },
		}
	}

	jobs := []batchJob{
		job(0, r(1)),    // A
		job(1, r(1, 2)), // B conflicts with A on 1
		job(2, r(2)),    // C conflicts with B on 2 — must wait for B, not ride with A
		job(3, r(3)),    // D independent
	}
	if err := runBatch(jobs, 8); err != nil {
		t.Fatal(err)
	}

	for res, order := range perResource {
		for i := 1; i < len(order); i++ {
			if order[i] < order[i-1] {
				t.Errorf("resource %v saw jobs out of serial order: %v", res, order)
				break
			}
		}
	}
	// Commits happen wave by wave (in job order within each wave), so the
	// global sequence need not be sorted — but jobs that share a resource
	// are in different waves and must commit in job order.
	if len(commits) != len(jobs) {
		t.Fatalf("%d commits, want %d (commits = %v)", len(commits), len(jobs), commits)
	}
	pos := make(map[int]int, len(commits))
	for i, idx := range commits {
		pos[idx] = i
	}
	if !(pos[0] < pos[1] && pos[1] < pos[2]) {
		t.Errorf("conflict chain 0→1→2 committed out of order: %v", commits)
	}
}

// TestRunBatchErrorPropagation: a failing job surfaces its error, its commit
// is skipped, successful jobs in the same wave still commit, and later waves
// (which may depend on uncommitted state) are abandoned.
func TestRunBatchErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	var committed []int
	mk := func(idx int, res int, err error) batchJob {
		return batchJob{
			resources: []relation.AttrSet{relation.SingleAttr(res)},
			run:       func() error { return err },
			commit:    func() { committed = append(committed, idx) },
		}
	}
	jobs := []batchJob{
		mk(0, 1, nil),
		mk(1, 2, boom),
		mk(2, 3, nil),
		mk(3, 1, nil), // second wave (conflicts with job 0) — must never run
	}
	err := runBatch(jobs, 4)
	if !errors.Is(err, boom) {
		t.Fatalf("runBatch err = %v, want %v", err, boom)
	}
	for _, idx := range committed {
		if idx == 1 {
			t.Fatal("failed job was committed")
		}
		if idx == 3 {
			t.Fatal("job in a wave after the failure was committed")
		}
	}
}

// --- serial vs parallel discovery equivalence ------------------------------

type parallelRun struct {
	res   *Result
	shape trace.Shape // whole trace, cross-object order included
}

// discoverWithWorkers runs a full discovery with row p's engine and
// worker count on a fresh server, returning the result and the whole trace
// shape.
func discoverWithWorkers(t *testing.T, p Protocol, rel *relation.Relation, workers int) parallelRun {
	t.Helper()
	srv := store.NewServer()
	// At this n a network stage is one chain, which one worker takes whole,
	// so each array's own access sequence is deterministic; the parallelism
	// under test is the lattice-level batch scheduler.
	eng, _ := openFor[Engine](t, srv, p, rel, opts{workers: workers})
	defer eng.Close()

	srv.Trace().Reset()
	srv.Trace().Enable()
	res, err := Discover(eng, rel.NumAttrs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return parallelRun{res: res, shape: trace.ShapeOf(srv.Trace().Events())}
}

// parallelTestRel builds a 4-attribute relation with genuine FD structure:
// column 3 is a function of column 0 (so C0→C3 holds non-trivially) and
// column 2 is a row id (a key), while columns 0 and 1 collide freely so the
// lattice materializes plenty of unions before pruning.
func parallelTestRel(n int) *relation.Relation {
	rel := relation.New(relation.MustNewSchema("C0", "C1", "C2", "C3"))
	for i := 0; i < n; i++ {
		row := relation.Row{
			fmt.Sprintf("%06d", i%8),
			fmt.Sprintf("%06d", i%3),
			fmt.Sprintf("%06d", i),
			fmt.Sprintf("%06d", (i%8)%4),
		}
		if err := rel.Append(row); err != nil {
			panic(err)
		}
	}
	return rel
}

// TestSerialParallelEquivalence: for every engine, discovery under any
// worker count produces the serial run's minimal FD set, cardinalities and
// work counters. What the server sees is the serial run's *whole trace in
// order* — the ORAM engines take a level at a time on one goroutine and the
// deterministic engine a set at a time, so nothing of it is left to
// scheduling — but for the sort engine, whose set-level waves do run side by
// side: there it is the same multiset of per-structure access sequences. Run under -race (CI uses -cpu 1,4) to also exercise memory
// safety.
func TestSerialParallelEquivalence(t *testing.T) {
	rel := parallelTestRel(24)
	for _, p := range rows(everyRow) {
		t.Run(short(p), func(t *testing.T) {
			serial := discoverWithWorkers(t, p, rel, 1)
			if len(serial.res.Minimal) == 0 {
				t.Fatalf("test relation yields no FDs; equivalence would be vacuous")
			}
			for _, workers := range []int{4, 8} {
				par := discoverWithWorkers(t, p, rel, workers)
				if !relation.FDSetEqual(par.res.Minimal, serial.res.Minimal) {
					t.Errorf("workers=%d: FDs = %v, want %v", workers, par.res.Minimal, serial.res.Minimal)
				}
				if par.res.SetsMaterialized != serial.res.SetsMaterialized || par.res.Checks != serial.res.Checks {
					t.Errorf("workers=%d: counters = %d sets/%d checks, want %d/%d",
						workers, par.res.SetsMaterialized, par.res.Checks,
						serial.res.SetsMaterialized, serial.res.Checks)
				}
				if len(par.res.Cardinalities) != len(serial.res.Cardinalities) {
					t.Errorf("workers=%d: %d cardinalities, want %d",
						workers, len(par.res.Cardinalities), len(serial.res.Cardinalities))
				}
				for x, card := range serial.res.Cardinalities {
					if got, ok := par.res.Cardinalities[x]; !ok || got != card {
						t.Errorf("workers=%d: |π_%v| = %d (present=%v), want %d", workers, x, got, ok, card)
					}
				}
				want, got, what := serial.shape.Canonical(), par.shape.Canonical(), "ordered whole trace"
				if p == ProtocolSort {
					want, got, what = serial.shape.CanonicalPerStructure(), par.shape.CanonicalPerStructure(), "per-structure trace"
				}
				if !got.Equal(want) {
					t.Errorf("workers=%d: %s differs from serial run:\n%s", workers, what, want.Diff(got))
				}
			}
		})
	}
}

// TestParallelBatchDirect drives the batch entry points directly (rather
// than through Discover) so cache hits, duplicate targets, and validation
// errors inside one batch are all exercised.
func TestParallelBatchDirect(t *testing.T) {
	rel := fixedWidthRel(3, 16, 5, 2)
	srv := store.NewServer()
	eng, _ := openFor[Engine](t, srv, ProtocolORAM, rel, opts{workers: 4})
	defer eng.Close()

	// Pre-materialize attribute 0 so the batch sees a cache hit.
	card0, err := CardinalitySingle(eng, 0)
	if err != nil {
		t.Fatal(err)
	}
	cards, err := eng.Materialize([]Request{Single(0), Single(1), Single(2)})
	if err != nil {
		t.Fatal(err)
	}
	if cards[0] != card0 {
		t.Errorf("batch cache hit: |π_0| = %d, want %d", cards[0], card0)
	}

	a, b, c := relation.SingleAttr(0), relation.SingleAttr(1), relation.SingleAttr(2)
	jobs := []Request{Union(a, b), Union(a, c), Union(b, c)}
	got, err := eng.Materialize(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		want, ok := eng.Cardinality(j.Set)
		if !ok || got[i] != want {
			t.Errorf("union %v: batch=%d cached=%d ok=%v", j.Set, got[i], want, ok)
		}
	}

	// One batch naming a cached attribute and the same new attribute twice
	// builds one array and draws one name, as three serial calls would (the
	// sort engine's batch path used to draw a name per job).
	se, _ := openFor[*SortEngine](t, srv, ProtocolSort, rel, opts{name: "sort", workers: 4})
	defer se.Close()
	if _, err := CardinalitySingle(se, 0); err != nil {
		t.Fatal(err)
	}
	before, _ := srv.Stats()
	dup, err := se.Materialize([]Request{Single(0), Single(1), Single(1)})
	if err != nil {
		t.Fatal(err)
	}
	after, _ := srv.Stats()
	if dup[1] != dup[2] || after.Objects != before.Objects+1 || se.seq.Load() != 2 {
		t.Errorf("duplicate attribute in one batch: cards %v, %d new objects, %d names drawn; want equal cards, 1 object, 2 names",
			dup, after.Objects-before.Objects, se.seq.Load())
	}

	// A union whose operands were never materialized must fail cleanly —
	// use a fresh engine so nothing is cached.
	eng2, _ := openFor[Engine](t, nil, ProtocolORAM, rel, opts{})
	defer eng2.Close()
	if _, err := eng2.Materialize([]Request{Union(a, b)}); !errors.Is(err, ErrNotMaterialized) {
		t.Errorf("union of unmaterialized parents: err = %v, want ErrNotMaterialized", err)
	}
}

// --- Validate release regression -------------------------------------------

// TestValidateReleasesPartitions is the regression for the leak where
// Validate materialized partition chains and never released them: server
// object counts must return to their baseline after every Validate call,
// while partitions that existed beforehand must survive.
func TestValidateReleasesPartitions(t *testing.T) {
	rel := fixedWidthRel(3, 16, 9, 2)
	for _, p := range rows(everyRow) {
		t.Run(short(p), func(t *testing.T) {
			srv := store.NewServer()
			eng, _ := openFor[Engine](t, srv, p, rel, opts{})
			defer eng.Close()

			// Pre-materialize π_0: Validate must not release state it
			// did not create.
			if _, err := CardinalitySingle(eng, 0); err != nil {
				t.Fatal(err)
			}
			base, err := srv.Stats()
			if err != nil {
				t.Fatal(err)
			}

			x := relation.SingleAttr(0).Add(1)
			y := relation.SingleAttr(2)
			if _, err := Validate(eng, x, y); err != nil {
				t.Fatal(err)
			}
			after, err := srv.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if after.Objects != base.Objects {
				t.Errorf("Validate leaked storage: %d objects, want %d", after.Objects, base.Objects)
			}
			if _, ok := eng.Cardinality(relation.SingleAttr(0)); !ok {
				t.Error("Validate released a partition it did not materialize")
			}

			// Trivial dependency (Y ⊆ X) takes the early return; it must
			// still release the chain for X.
			if holds, err := Validate(eng, x, relation.SingleAttr(1)); err != nil || !holds {
				t.Fatalf("trivial Validate = %v, %v; want true, nil", holds, err)
			}
			after, err = srv.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if after.Objects != base.Objects {
				t.Errorf("trivial-path Validate leaked storage: %d objects, want %d", after.Objects, base.Objects)
			}
		})
	}
}
