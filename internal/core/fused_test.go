package core

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/oblivfd/oblivfd/internal/obsort"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/trace"
)

// fusedRun is what one scripted ORAM-engine run leaves behind: the FDs, the
// cardinalities after the dynamic tail, the backend's whole trace and the
// round trips the engine paid.
type fusedRun struct {
	fds    []relation.FD
	cards  map[relation.AttrSet]int
	events []trace.Event
	rounds int64
	// Of the batches that reached the server whole: those setting up a
	// group's structures (led by a create), those carrying path ops, and how
	// many ops all of them carried beyond one each.
	setupBatches, pathBatches, extraOps int64
	// groups is the discovery's fills in the order they ran.
	groups []fill
}

// fill is one group a Materialize call filled: its targets' |X|, how many
// there are (w) and how many distinct covers they name (c).
type fill struct{ size, w, c int64 }

// requestLog records the groups an engine's Materialize calls fill: a
// call's new sets in request order, a group of one size up to levelWidth.
type requestLog struct {
	Engine
	seen   map[relation.AttrSet]bool
	groups []fill
}

func (l *requestLog) Materialize(reqs []Request) ([]int, error) {
	var covers map[relation.AttrSet]bool
	for _, r := range reqs {
		if l.seen[r.Set] {
			continue
		}
		l.seen[r.Set] = true
		if n := len(l.groups); n == 0 || covers == nil || l.groups[n-1].w == levelWidth || l.groups[n-1].size != int64(r.Set.Size()) {
			l.groups, covers = append(l.groups, fill{size: int64(r.Set.Size())}), make(map[relation.AttrSet]bool)
		}
		g := &l.groups[len(l.groups)-1]
		g.w++
		for _, cv := range r.Cover {
			if !cv.IsEmpty() && !covers[cv] {
				covers[cv] = true
				g.c++
			}
		}
	}
	return l.Engine.Materialize(reqs)
}

// runFused uploads rel through wrap(server), discovers with the given ORAM
// engine keeping partitions, then inserts goldenTailRows and, on Ex-ORAM,
// deletes an original and an inserted record. wrap sits below the round
// counter, so the rounds are what the engine's calls cost through it.
func runFused(t *testing.T, p Protocol, rel *relation.Relation, wrap func(store.Service) store.Service) fusedRun {
	t.Helper()
	srv := store.NewServer()
	var run fusedRun
	batches := store.Adapt(func(op *store.Op, res *store.Result) error {
		if op.Kind == store.KindBatch && len(op.Ops) > 0 {
			switch first := &op.Ops[0]; {
			case first.Kind() == store.KindCreateArray || first.Kind() == store.KindCreateTree:
				run.setupBatches++
			case onTree(first.Name):
				run.pathBatches++
			}
			run.extraOps += int64(len(op.Ops) - 1)
		}
		return store.Invoke(srv, op, res)
	})
	rc := store.WithRoundCounter(wrap(batches))
	eng, _ := openFor[inserter](t, rc, p, rel, opts{headroom: len(goldenTailRows)})
	srv.Trace().Reset()
	srv.Trace().Enable()
	base := rc.Rounds()
	run.setupBatches, run.pathBatches, run.extraOps = 0, 0, 0 // the upload's column batches are not the engine's
	log := &requestLog{Engine: eng, seen: make(map[relation.AttrSet]bool)}
	res, err := Discover(log, rel.NumAttrs(), &Options{KeepPartitions: true})
	if err != nil {
		t.Fatal(err)
	}
	run.groups = log.groups
	for _, row := range goldenTailRows {
		if _, err := eng.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if dyn, ok := eng.(DynamicEngine); ok {
		for _, id := range []int{3, rel.NumRows()} {
			if err := dyn.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	run.fds, run.cards, run.rounds = res.Minimal, make(map[relation.AttrSet]int), rc.Rounds()-base
	for x := range res.Cardinalities {
		run.cards[x], _ = eng.Cardinality(x)
	}
	run.events = srv.Trace().Events()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	return run
}

func fusing(s store.Service) store.Service { return s }

// roundOpKind names what a batched op is in an ORAM engine's round: a tree's
// "fetch" or "write-back" (a cell op on one of the engines' bucket trees), or
// otherwise the Service operation it stands for.
func roundOpKind(b *store.BatchOp) string {
	switch {
	case treeOp(b) && b.Write:
		return "write-back"
	case treeOp(b):
		return "fetch"
	}
	return b.Kind().String()
}

// unfusing hides store.Batcher (and Adapter.Do), as the storage conformance
// test's typedOnly hides Do: a batch through it is its ops, one call each.
func unfusing(s store.Service) store.Service { return struct{ store.Service }{s} }

// TestFusedRoundsAreFramingOnly: a discovery with inserts and deletes through
// a service that takes a fused round in one call and through one that cannot
// gives the same FDs and cardinalities and shows the backend the same events in
// the same order — per object and as a whole — and only the count of round
// trips differs, by the closed form of EXPERIMENTS.md ("ORAM rounds"): a
// level's rounds per chunk, not per record or per set.
func TestFusedRoundsAreFramingOnly(t *testing.T) {
	rel := parallelTestRel(24)
	want, err := Discover(oracle(rel), rel.NumAttrs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rows(resumable) {
		t.Run(p.String(), func(t *testing.T) {
			fused := runFused(t, p, rel, fusing)
			split := runFused(t, p, rel, unfusing)
			if !relation.FDSetEqual(fused.fds, want.Minimal) || !relation.FDSetEqual(split.fds, want.Minimal) {
				t.Errorf("FDs: fused %v, unfused %v, oracle %v", fused.fds, split.fds, want.Minimal)
			}
			if !reflect.DeepEqual(fused.cards, split.cards) {
				t.Errorf("cardinalities after the tail: fused %v, unfused %v", fused.cards, split.cards)
			}
			a, b := trace.ShapeOf(fused.events).Canonical(), trace.ShapeOf(split.events).Canonical()
			if !a.Equal(b) {
				t.Errorf("the backend can tell a fused round from its ops one by one:\n%s", a.Diff(b))
			}
			if got, want := structureDigests(fused.events), structureDigests(split.events); !reflect.DeepEqual(got, want) {
				t.Errorf("per-object event sequences differ:\n fused   %v\n unfused %v", got, want)
			}

			// Rounds. Unfused, every op of a batch is its own call, so the
			// difference is what the fused batches carried beyond one op
			// each. And the fused rounds follow the closed form: a chunk of a
			// group is 3 rounds, all its reads before its write-backs — for a
			// group of single attributes a round of column cells, then 2 path
			// rounds; for a group of larger sets 2 path rounds behind a round
			// of cover label cells in Or-ORAM, 3 in Ex-ORAM — ⌈w / levelWidth⌉
			// groups for a level of w; an inserted record is a chunk of one
			// per group of a level's kept sets — here the discovery's groups,
			// as no level of four attributes is wider than levelWidth — and a
			// deletion 3 rounds in all. The column and cover
			// label cells of a chunk move in batches of their own; the
			// targets' label cells ride in the chunk's last round. Each
			// round's ops are one per array and one per tree it touches
			// (oramCore's diagram): for w targets with c distinct covers,
			//
			//	Or-ORAM   [w columns | c covers' cells] → [w fetches]
			//	          → [w write-backs, w label writes]
			//	Ex-ORAM   |X| = 1: [w columns] → [2w fetches] → [2w write-backs]
			//	          |X| ≥ 2: [c fetches] → [c write-backs, 2w fetches]
			//	          → [2w write-backs]
			//
			// an inserted record's first round reading nothing when |X| = 1,
			// its row appended in one batch of m column cells, and a deletion
			// of s kept sets [s fetches] → [s write-backs, s fetches]
			// → [s write-backs]. Ahead of its chunks a group's fill sets up
			// its structures, at these sizes in one batch: the creates, then
			// one op of dummy buckets per tree —
			//
			//	Or-ORAM   [w label arrays', w trees' creates, w trees' buckets]
			//	Ex-ORAM   [2w trees' creates, 2w trees' buckets]
			n, tail := int64(rel.NumRows()), int64(len(goldenTailRows))
			chunks := (n + obsort.ChunkCells - 1) / obsort.ChunkCells
			// extra is the ops beyond one each that a chunk's 3 rounds carry
			// for w targets of size |X| naming c covers, an inserted record's
			// included.
			extra := func(size, w, c int64, inserted bool) int64 {
				read := w // the first round: the columns' cells or the covers'
				if size > 1 {
					read = c
				} else if inserted {
					read = 1 // nothing is read: no round, so nothing beyond one
				}
				if p == ProtocolORAM {
					return (read - 1) + (w - 1) + (2*w - 1)
				}
				if size == 1 {
					return (read - 1) + (2*w - 1) + (2*w - 1)
				}
				return (c - 1) + (c + 2*w - 1) + (2*w - 1)
			}
			fusedPathRounds, extraOps, sets := int64(0), tail*int64(rel.NumAttrs()-1), int64(0)
			for _, g := range fused.groups {
				perChunk := int64(3)
				if g.size == 1 || p == ProtocolORAM {
					perChunk = 2
				}
				if g.w == levelWidth {
					t.Fatalf("a level of %d sets: its insertion groups may not be its fill's", g.w)
				}
				fusedPathRounds += (chunks + tail) * perChunk
				extraOps += chunks*extra(g.size, g.w, g.c, false) + tail*extra(g.size, g.w, g.c, true)
				extraOps += 4*g.w - 1 // the set-up batch: 3w ops in Or-ORAM, 4w in Ex-ORAM
				if p == ProtocolORAM {
					extraOps -= g.w
				}
				sets += g.w
			}
			if got, want := fused.setupBatches, int64(len(fused.groups)); got != want {
				t.Errorf("%d set-up batches, want one per group: %d", got, want)
			}
			if p == ProtocolDynamicORAM {
				fusedPathRounds += 2 * 3 // two deletions
				extraOps += 2 * (4*sets - 3)
			}
			if fused.pathBatches != fusedPathRounds {
				t.Errorf("%d fused rounds carry path ops, want %d", fused.pathBatches, fusedPathRounds)
			}
			if fused.extraOps != extraOps {
				t.Errorf("the fused rounds carried %d ops beyond one each, want %d", fused.extraOps, extraOps)
			}
			if got := split.rounds - fused.rounds; got != fused.extraOps {
				t.Errorf("unfused − fused = %d rounds, want the %d ops the fused batches carried beyond one each", got, fused.extraOps)
			}
			t.Logf("%d rounds fused, %d unfused (%d path rounds)", fused.rounds, split.rounds, fusedPathRounds)
		})
	}
}

// TestFusedRoundRetriedWhole: a round carrying write-backs — lattice level
// 2's second, which in Ex-ORAM carries the covers' write-backs with the
// targets' fetches and in Or-ORAM the targets' write-backs with their label
// cells — fails once before it reaches the backend, the retry layer sends all
// of it again (in two halves, see store.RetryService), and the run ends with
// the oracle's FDs and a backend trace equal to the fault-free run's. Then the
// same under a seeded fault injector that also fails rounds part-way through
// and after they applied: repeats show in the trace (same ciphertexts to the
// same places), the result does not change.
func TestFusedRoundRetriedWhole(t *testing.T) {
	rel := parallelTestRel(16)
	want, err := Discover(oracle(rel), rel.NumAttrs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	writeBack := func(op *store.Op) bool {
		return op.Kind == store.KindBatch && len(op.Ops) > 0 && op.Ops[0].Write && onTree(op.Ops[0].Name)
	}
	for _, p := range rows(resumable) {
		t.Run(p.String(), func(t *testing.T) {
			clean := runFused(t, p, rel, fusing)

			var flaky *failNth
			var retry *store.RetryService
			once := runFused(t, p, rel, func(s store.Service) store.Service {
				flaky = newFailNth(s, writeBack)
				flaky.arm(2) // level 2's write-back round, mid-discovery
				transient := store.Adapt(func(op *store.Op, res *store.Result) error {
					if err := store.Invoke(flaky, op, res); err != nil {
						return fmt.Errorf("%w: %v", store.ErrTransient, err)
					}
					return nil
				})
				retry = store.WithRetry(transient, store.RetryPolicy{MaxAttempts: 3})
				return retry
			})
			if !flaky.fired() || retry.Retries() != 1 {
				t.Fatalf("the fault fired %v, %d retries; want exactly one", flaky.fired(), retry.Retries())
			}
			kinds := make(map[string]bool)
			for _, op := range flaky.lost {
				kinds[roundOpKind(&op)] = true
			}
			with := "fetch" // the targets' fetches
			if p == ProtocolORAM {
				with = store.KindWriteCells.String() // the targets' label cells
			}
			if !kinds["write-back"] || !kinds[with] {
				t.Errorf("the failed round carried %v, want write-backs and %v together", kinds, with)
			}
			if !relation.FDSetEqual(once.fds, want.Minimal) || !reflect.DeepEqual(once.cards, clean.cards) {
				t.Errorf("after a retried round: FDs %v (oracle %v), cardinalities %v (clean %v)", once.fds, want.Minimal, once.cards, clean.cards)
			}
			a, b := trace.ShapeOf(clean.events).Canonical(), trace.ShapeOf(once.events).Canonical()
			if !a.Equal(b) {
				t.Errorf("a round retried whole shows in the trace:\n%s", a.Diff(b))
			}

			var faults *store.FaultService
			noisy := runFused(t, p, rel, func(s store.Service) store.Service {
				faults = store.WithFaults(s, store.FaultConfig{Seed: 7, ErrorRate: 0.02})
				return store.WithRetry(faults, store.RetryPolicy{MaxAttempts: 8})
			})
			if faults.Injected() == 0 {
				t.Fatal("the seeded injector injected nothing")
			}
			if !relation.FDSetEqual(noisy.fds, want.Minimal) || !reflect.DeepEqual(noisy.cards, clean.cards) {
				t.Errorf("under injected faults: FDs %v (oracle %v), cardinalities %v (clean %v)", noisy.fds, want.Minimal, noisy.cards, clean.cards)
			}
		})
	}
}

// TestFailedStepLeavesSetUnusable: a step whose write-back round is lost for
// good surfaces the error, does not move card_X, and leaves the set's ORAM
// refusing further accesses rather than serving from a stash the tree never
// caught up with — for the one set an insertion is stepping, and (failedLevel)
// for a group of a level's sets and the covers they share.
func TestFailedStepLeavesSetUnusable(t *testing.T) {
	t.Run("level", failedLevel)
	rel := fixedWidthRel(1, 8, 9, 3)
	srv := store.NewServer()
	svc := newFailNth(srv, func(op *store.Op) bool {
		return op.Kind == store.KindBatch && op.Ops[0].Write && onTree(op.Ops[0].Name)
	})
	eng, _ := openFor[*OrEngine](t, svc, ProtocolORAM, rel, opts{headroom: 4})
	defer eng.Close()
	if _, err := CardinalitySingle(eng, 0); err != nil {
		t.Fatal(err)
	}
	before, _ := eng.Cardinality(relation.SingleAttr(0))
	svc.arm(1)
	if _, err := eng.Insert(relation.Row{"999999"}); err == nil {
		t.Fatal("insert whose write-backs were lost reported success")
	}
	if after, _ := eng.Cardinality(relation.SingleAttr(0)); after != before {
		t.Errorf("card moved from %d to %d on a failed step", before, after)
	}
	// Or-ORAM's one ORAM per set. Its label cell rode in the lost round too,
	// but a label array holds no client state to fall out of step with.
	if _, _, err := eng.sets[relation.SingleAttr(0)].primary.Read(idKey(0)); err == nil {
		t.Error("O^KL still serves accesses after losing a write-back")
	}
}
