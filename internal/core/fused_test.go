package core

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/oblivfd/oblivfd/internal/crypto"
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
	// Of the batches that reached the server whole: those carrying path ops,
	// and how many ops all of them carried beyond one each.
	pathBatches, extraOps int64
}

// runFused uploads rel through wrap(server), discovers with the given ORAM
// engine keeping partitions, then inserts goldenTailRows and, on Ex-ORAM,
// deletes an original and an inserted record. wrap sits below the round
// counter, so the rounds are what the engine's calls cost through it.
func runFused(t *testing.T, kind engineKind, rel *relation.Relation, wrap func(store.Service) store.Service) fusedRun {
	t.Helper()
	srv := store.NewServer()
	var run fusedRun
	batches := store.Adapt(func(op *store.Op, res *store.Result) error {
		if op.Kind == store.KindBatch && len(op.Ops) > 0 {
			if op.Ops[0].Path {
				run.pathBatches++
			}
			run.extraOps += int64(len(op.Ops) - 1)
		}
		return store.Invoke(srv, op, res)
	})
	rc := store.WithRoundCounter(wrap(batches))
	edb, err := UploadWithCapacity(rc, crypto.MustNewCipher(crypto.MustNewKey()), "t", rel, rel.NumRows()+len(goldenTailRows))
	if err != nil {
		t.Fatal(err)
	}
	var eng Engine
	if kind == kindOr {
		eng = NewOrEngine(edb)
	} else if eng, err = NewExEngine(edb); err != nil {
		t.Fatal(err)
	}
	srv.Trace().Reset()
	srv.Trace().Enable()
	base := rc.Rounds()
	res, err := Discover(eng, rel.NumAttrs(), &Options{Workers: 1, KeepPartitions: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range goldenTailRows {
		if _, err := eng.(interface {
			Insert(relation.Row) (int, error)
		}).Insert(row); err != nil {
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
	want, err := Discover(NewPlainEngine(rel), rel.NumAttrs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []struct {
		name string
		k    engineKind
	}{{"or-oram", kindOr}, {"ex-oram", kindEx}} {
		t.Run(kind.name, func(t *testing.T) {
			fused := runFused(t, kind.k, rel, fusing)
			split := runFused(t, kind.k, rel, unfusing)
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
			// each. And the fused rounds that carry path ops follow the
			// closed form: a chunk of a group is 3 rounds, all its reads
			// before its write-backs — for a group of single attributes a
			// round of column cells, then 2 path rounds; for a group of larger
			// sets 2 path rounds behind a round of cover label cells in
			// Or-ORAM, 3 in Ex-ORAM — ⌈w / levelWidth⌉ groups for a level of
			// w; an inserted record is a chunk of one per set, and a deletion
			// 3 rounds per set. The column and cover label cells of a chunk
			// move in batches of their own; the targets' label cells ride in
			// the chunk's last round.
			n, tail := int64(rel.NumRows()), int64(len(goldenTailRows))
			chunks := (n + obsort.ChunkCells - 1) / obsort.ChunkCells
			width := make(map[int]int64) // |X| → sets of that lattice level
			for x := range fused.cards {
				width[x.Size()]++
			}
			var fusedPathRounds, sets int64
			for size, w := range width {
				groups, perChunk := (w+levelWidth-1)/levelWidth, int64(3)
				if size == 1 || kind.k == kindOr {
					perChunk = 2
				}
				fusedPathRounds += (groups*chunks + tail*w) * perChunk
				sets += w
			}
			if kind.k == kindEx {
				fusedPathRounds += 2 * 3 * sets // two deletions
			}
			if fused.pathBatches != fusedPathRounds {
				t.Errorf("%d fused rounds carry path ops, want %d", fused.pathBatches, fusedPathRounds)
			}
			if got := split.rounds - fused.rounds; got != fused.extraOps {
				t.Errorf("unfused − fused = %d rounds, want the %d ops the fused batches carried beyond one each", got, fused.extraOps)
			}
			t.Logf("%d rounds fused, %d unfused (%d path rounds)", fused.rounds, split.rounds, fusedPathRounds)
			if fused.rounds*2 > split.rounds {
				t.Errorf("fusing saved too little: %d rounds against %d", fused.rounds, split.rounds)
			}
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
	want, err := Discover(NewPlainEngine(rel), rel.NumAttrs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	writeBack := func(op *store.Op) bool {
		return op.Kind == store.KindBatch && len(op.Ops) > 0 && op.Ops[0].Kind() == store.KindWritePath
	}
	for _, kind := range []struct {
		name string
		k    engineKind
	}{{"or-oram", kindOr}, {"ex-oram", kindEx}} {
		t.Run(kind.name, func(t *testing.T) {
			clean := runFused(t, kind.k, rel, fusing)

			var flaky *failNth
			var retry *store.RetryService
			once := runFused(t, kind.k, rel, func(s store.Service) store.Service {
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
			kinds := make(map[store.Kind]bool)
			for _, op := range flaky.lost {
				kinds[op.Kind()] = true
			}
			with := store.KindReadPath // the targets' fetches
			if kind.k == kindOr {
				with = store.KindWriteCells // the targets' label cells
			}
			if !kinds[store.KindWritePath] || !kinds[with] {
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
			noisy := runFused(t, kind.k, rel, func(s store.Service) store.Service {
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
		return op.Kind == store.KindBatch && op.Ops[0].Kind() == store.KindWritePath
	})
	edb, err := UploadWithCapacity(svc, crypto.MustNewCipher(crypto.MustNewKey()), "t", rel, 12)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewOrEngine(edb)
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
