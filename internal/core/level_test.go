package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/obsort"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/trace"
)

// oramEngines builds the two engines that step a level record-major.
var oramEngines = []struct {
	name string
	make func(t testing.TB, edb *EncryptedDB) (Engine, *oramCore)
}{
	{"or", func(t testing.TB, edb *EncryptedDB) (Engine, *oramCore) {
		e := NewOrEngine(edb)
		return e, &e.oramCore
	}},
	{"ex", func(t testing.TB, edb *EncryptedDB) (Engine, *oramCore) {
		e, err := NewExEngine(edb)
		if err != nil {
			t.Fatal(err)
		}
		return e, &e.oramCore
	}},
}

// pathRounds counts the calls that carry a path operation — a record's
// rounds — and the column reads. Tree set-up and deletes are calls of other
// kinds.
type pathRounds struct {
	store.Adapter
	n, columnReads int64
}

func countPathRounds(svc store.Service) *pathRounds {
	p := &pathRounds{}
	p.Adapter = store.Adapt(func(op *store.Op, res *store.Result) error {
		switch {
		case op.Kind == store.KindReadPath, op.Kind == store.KindWritePath:
			p.n++
		case op.Kind == store.KindBatch && len(op.Ops) > 0 && op.Ops[0].Path:
			p.n++
		case op.Kind == store.KindReadCells:
			p.columnReads++
		}
		return store.Invoke(svc, op, res)
	})
	return p
}

// treeNames returns the server-side names of a set's primary and secondary.
func treeNames(st *oramState) (primary, secondary string) {
	return st.primary.Name(), st.secondary.Name()
}

// pathEvents counts (ReadPath, WritePath) events per object.
func pathEvents(events []trace.Event) map[string][2]int {
	out := make(map[string][2]int)
	for _, e := range events {
		c := out[e.Object]
		switch e.Op {
		case trace.OpReadPath:
			c[0]++
		case trace.OpWritePath:
			c[1]++
		default:
			continue
		}
		out[e.Object] = c
	}
	return out
}

// allPairs is the level-2 request list over m single attributes, in the
// lattice's order.
func allPairs(m int) []Request {
	var reqs []Request
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			reqs = append(reqs, Union(relation.SingleAttr(i), relation.SingleAttr(j)))
		}
	}
	return reqs
}

func allSingles(m int) []Request {
	reqs := make([]Request, m)
	for i := range reqs {
		reqs[i] = Single(i)
	}
	return reqs
}

// TestLevelClosedForm: what a level of w targets over c distinct covers on n
// records shows the server, structure by structure. Each target's two trees
// see n (ReadPath, WritePath) pairs; each cover's ID ORAM sees n pairs however
// many of the targets name it; a record is 2 rounds at level 1 and 3 above,
// carrying 2w and 2w + c accesses; the columns are read a chunk per round.
// And a level of one — core.CardinalityUnion — is, event for event, the
// sequence a set at a time always was: [c₁ c₂] → [c₁ c₂ P S] → [P S].
func TestLevelClosedForm(t *testing.T) {
	const m, n = 4, 70 // two column chunks: 64 + 6
	rel := fixedWidthRel(m, n, 5, 3)
	for _, e := range oramEngines {
		t.Run(e.name, func(t *testing.T) {
			srv := store.NewServer()
			rounds := countPathRounds(srv)
			edb, err := Upload(rounds, crypto.MustNewCipher(crypto.MustNewKey()), "t", rel)
			if err != nil {
				t.Fatal(err)
			}
			eng, core := e.make(t, edb)
			defer eng.Close()
			srv.Trace().Enable()

			// measure runs a Materialize call and returns its path rounds and
			// per-object path events.
			measure := func(reqs []Request) (int64, map[string][2]int, []trace.Event) {
				t.Helper()
				srv.Trace().Reset()
				r0 := rounds.n
				if _, err := eng.Materialize(reqs, 4); err != nil {
					t.Fatal(err)
				}
				events := srv.Trace().Events()
				return rounds.n - r0, pathEvents(events), events
			}
			wantTrees := func(got map[string][2]int, what string, x relation.AttrSet, primary, secondary int) {
				t.Helper()
				p, s := treeNames(core.sets[x])
				if got[p] != [2]int{primary, primary} || got[s] != [2]int{secondary, secondary} {
					t.Errorf("%s %v: primary saw %v, secondary %v (ReadPath, WritePath); want %d and %d pairs", what, x, got[p], got[s], primary, secondary)
				}
			}

			// Level 1: w = m, no covers.
			r, got, events := measure(allSingles(m))
			if r != 2*n {
				t.Errorf("level 1: %d path rounds, want 2n = %d", r, 2*n)
			}
			for a := 0; a < m; a++ {
				wantTrees(got, "level 1", relation.SingleAttr(a), n, n)
			}
			var cells int
			for _, ev := range events {
				if ev.Op == trace.OpReadCell {
					cells++
				}
			}
			chunks := (n + obsort.ChunkCells - 1) / obsort.ChunkCells
			if cells != m*n || rounds.columnReads != int64(m*chunks) {
				t.Errorf("level 1: %d cells read in %d rounds, want m·n = %d in m·⌈n/%d⌉ = %d", cells, rounds.columnReads, m*n, obsort.ChunkCells, m*chunks)
			}

			// Level 2: w = 6 over c = 4, each cover named by three targets.
			pairs := allPairs(m)
			r, got, _ = measure(pairs)
			groups := (len(pairs) + levelWidth - 1) / levelWidth
			if r != int64(3*n*groups) {
				t.Errorf("level 2: %d path rounds, want 3n·%d = %d", r, groups, 3*n*groups)
			}
			for _, p := range pairs {
				wantTrees(got, "level 2 target", p.Set, n, n)
			}
			var accesses int
			for _, c := range got {
				accesses += c[0]
			}
			if want := (2*len(pairs) + m) * n * groups; groups == 1 && accesses != want {
				t.Errorf("level 2: %d accesses, want (2w + c)·n = %d", accesses, want)
			}
			for a := 0; a < m; a++ {
				wantTrees(got, "level 2 cover", relation.SingleAttr(a), 0, n*groups)
			}

			// A level of one is the set-at-a-time sequence.
			x1, x2 := relation.SingleAttr(0).Add(1), relation.SingleAttr(2)
			srv.Trace().Reset()
			if _, err := CardinalityUnion(eng, x1, x2); err != nil {
				t.Fatal(err)
			}
			_, c1 := treeNames(core.sets[x1])
			_, c2 := treeNames(core.sets[x2])
			p, s := treeNames(core.sets[x1.Union(x2)])
			var wantSeq, gotSeq []string
			for i := 0; i < n; i++ {
				for _, step := range []struct {
					op   trace.Op
					objs []string
				}{
					{trace.OpReadPath, []string{c1, c2}},
					{trace.OpWritePath, []string{c1, c2}},
					{trace.OpReadPath, []string{p, s}},
					{trace.OpWritePath, []string{p, s}},
				} {
					for _, obj := range step.objs {
						wantSeq = append(wantSeq, fmt.Sprintf("%v %s", step.op, obj))
					}
				}
			}
			for _, ev := range srv.Trace().Events() {
				if ev.Op == trace.OpReadPath || ev.Op == trace.OpWritePath {
					gotSeq = append(gotSeq, fmt.Sprintf("%v %s", ev.Op, ev.Object))
				}
			}
			if strings.Join(gotSeq, "\n") != strings.Join(wantSeq, "\n") {
				t.Errorf("a level of one is not the set-at-a-time sequence: %d path events, want %d; first eight\n got  %v\n want %v",
					len(gotSeq), len(wantSeq), gotSeq[:min(8, len(gotSeq))], wantSeq[:8])
			}
		})
	}
}

// TestLevelWiderThanGroup: a level of more sets than levelWidth is cut into
// groups in request order. The cardinalities are the oracle's; a target's
// trees are stepped in its own group's rounds and no other's; a cover is read
// once a record per group that names it — shared within a group only.
func TestLevelWiderThanGroup(t *testing.T) {
	const m, n = 7, 12 // 21 pairs > levelWidth
	rel := fixedWidthRel(m, n, 11, 3)
	pairs := allPairs(m)
	if len(pairs) <= levelWidth || len(pairs) > 2*levelWidth {
		t.Fatalf("%d pairs do not make exactly two groups of at most %d", len(pairs), levelWidth)
	}
	oracle := NewPlainEngine(rel)
	if _, err := oracle.Materialize(append(allSingles(m), pairs...), 1); err != nil {
		t.Fatal(err)
	}
	for _, e := range oramEngines {
		t.Run(e.name, func(t *testing.T) {
			srv := store.NewServer()
			rounds := countPathRounds(srv)
			edb, err := Upload(rounds, crypto.MustNewCipher(crypto.MustNewKey()), "t", rel)
			if err != nil {
				t.Fatal(err)
			}
			eng, core := e.make(t, edb)
			defer eng.Close()
			if _, err := eng.Materialize(allSingles(m), 1); err != nil {
				t.Fatal(err)
			}
			srv.Trace().Reset()
			srv.Trace().Enable()
			r0 := rounds.n
			cards, err := eng.Materialize(pairs, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range pairs {
				if want, _ := oracle.Cardinality(p.Set); cards[i] != want {
					t.Errorf("|π_%v| = %d, want %d", p.Set, cards[i], want)
				}
			}
			if got := rounds.n - r0; got != 3*n*2 {
				t.Errorf("%d path rounds, want 3n per group = %d", got, 3*n*2)
			}

			// Where in the trace each tree's path events lie.
			first, last := make(map[string]int), make(map[string]int)
			events := srv.Trace().Events()
			for i, ev := range events {
				if ev.Op != trace.OpReadPath && ev.Op != trace.OpWritePath {
					continue
				}
				if _, seen := first[ev.Object]; !seen {
					first[ev.Object] = i
				}
				last[ev.Object] = i
			}
			groups := [][]Request{pairs[:levelWidth], pairs[levelWidth:]}
			var span [2][2]int // per group: first and last event of its targets
			for g, reqs := range groups {
				span[g] = [2]int{len(events), -1}
				for _, r := range reqs {
					for _, name := range func() []string { p, s := treeNames(core.sets[r.Set]); return []string{p, s} }() {
						span[g][0], span[g][1] = min(span[g][0], first[name]), max(span[g][1], last[name])
					}
				}
			}
			if span[0][1] >= span[1][0] {
				t.Errorf("groups are not in request order: the first %d targets are stepped until event %d, the rest from event %d", levelWidth, span[0][1], span[1][0])
			}
			got := pathEvents(events)
			for a := 0; a < m; a++ {
				x := relation.SingleAttr(a)
				naming := 0
				for _, reqs := range groups {
					for _, r := range reqs {
						if r.Cover[0] == x || r.Cover[1] == x {
							naming++
							break
						}
					}
				}
				_, s := treeNames(core.sets[x])
				if got[s] != [2]int{naming * n, naming * n} {
					t.Errorf("cover %v is named by %d groups and its ID ORAM saw %v (ReadPath, WritePath), want %d pairs", x, naming, got[s], naming*n)
				}
			}
		})
	}
}

// failedLevel is TestFailedStepLeavesSetUnusable for a step that is a whole
// group's: a round that is lost for good in the middle of a level. The error
// surfaces; every target of the group is
// destroyed (nothing of it is cached, and once the engine is closed the server
// holds what it held after the upload); a cover whose write-back rode in the
// lost round refuses loudly rather than serving from a stash its tree never
// caught up with; the sets an earlier group committed stay usable; and after
// releasing everything, asking again gives the oracle's cardinalities.
func failedLevel(t *testing.T) {
	const m, n = 7, 12 // 21 pairs: a group of levelWidth, then one of 5
	rel := fixedWidthRel(m, n, 13, 3)
	pairs := allPairs(m)
	oracle := NewPlainEngine(rel)
	if _, err := oracle.Materialize(append(allSingles(m), pairs...), 1); err != nil {
		t.Fatal(err)
	}
	// The round of the second group's fifth record that carries the covers'
	// write-backs with the targets' fetches: 3n rounds of the first group,
	// 3·4 of the second, the fifth record's cover reads, and then it.
	const lost = 3*n + 3*4 + 2
	for _, e := range oramEngines {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", e.name, workers), func(t *testing.T) {
				srv := store.NewServer()
				svc := newFailNth(srv, func(op *store.Op) bool { return op.Kind == store.KindBatch && op.Ops[0].Path })
				edb, err := Upload(svc, crypto.MustNewCipher(crypto.MustNewKey()), "t", rel)
				if err != nil {
					t.Fatal(err)
				}
				base, _ := srv.Stats()
				eng, core := e.make(t, edb)
				if _, err := eng.Materialize(allSingles(m), workers); err != nil {
					t.Fatal(err)
				}
				svc.arm(lost)
				if _, err := eng.Materialize(pairs, workers); !errors.Is(err, errInjected) {
					t.Fatalf("Materialize with round %d of the level lost: %v", lost, err)
				}
				for i, p := range pairs {
					card, cached := eng.Cardinality(p.Set)
					switch want, _ := oracle.Cardinality(p.Set); {
					case i < levelWidth && (!cached || card != want):
						t.Errorf("%v, committed by the first group: |π| = %d (cached=%v), want %d", p.Set, card, cached, want)
					case i >= levelWidth && cached:
						t.Errorf("%v, of the failed group, is cached", p.Set)
					}
				}
				// The second group is {2,6} {3,4} {3,5} {3,6} {4,5}... in the
				// lattice's order: the pairs from the 17th on.
				inFailed := make(map[relation.AttrSet]bool)
				for _, p := range pairs[levelWidth:] {
					inFailed[p.Cover[0]], inFailed[p.Cover[1]] = true, true
				}
				for a := 0; a < m; a++ {
					x := relation.SingleAttr(a)
					_, _, err := core.sets[x].secondary.Read(idKey(0))
					switch {
					case inFailed[x] && (!errors.Is(err, errInjected) || !strings.Contains(err.Error(), "unusable")):
						t.Errorf("cover %v lost a write-back and answers %v", x, err)
					case !inFailed[x] && err != nil:
						t.Errorf("cover %v took no part in the failed group and answers %v", x, err)
					}
				}
				// A set of the first group still serves as a cover.
				if _, err := CardinalityUnion(eng, pairs[0].Set, relation.SingleAttr(0).Add(2)); err != nil {
					t.Errorf("union over two sets the first group committed: %v", err)
				}

				// Release everything and ask again.
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
				if end, _ := srv.Stats(); end.Objects != base.Objects || end.StoredBytes != base.StoredBytes {
					t.Errorf("server holds %d objects / %d bytes after Close, %d / %d after upload", end.Objects, end.StoredBytes, base.Objects, base.StoredBytes)
				}
				cards, err := eng.Materialize(append(allSingles(m), pairs...), workers)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range pairs {
					if want, _ := oracle.Cardinality(p.Set); cards[m+i] != want {
						t.Errorf("rebuilt |π_%v| = %d, want %d", p.Set, cards[m+i], want)
					}
				}
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestLevelErrorsSayWhere: a path that fails verification in the middle of a
// level names the structure it belongs to — the cover being read, with the
// level that reads it, or the set being stepped — though the call that failed
// held a whole level's requests.
func TestLevelErrorsSayWhere(t *testing.T) {
	const m, n = 3, 8
	rel := fixedWidthRel(m, n, 17, 3)
	for _, e := range oramEngines {
		t.Run(e.name, func(t *testing.T) {
			srv := store.NewServer()
			var victim string // the tree whose fetched paths arrive with a bit flipped
			tamper := store.Adapt(func(op *store.Op, res *store.Result) error {
				err := store.Invoke(srv, op, res)
				for i := range op.Ops {
					if b := op.Ops[i]; err == nil && b.Path && !b.Write && b.Name == victim {
						res.Batch[i][0] = append([]byte(nil), res.Batch[i][0]...)
						res.Batch[i][0][5] ^= 4
					}
				}
				return err
			})
			edb, err := UploadWithCapacity(tamper, crypto.MustNewCipher(crypto.MustNewKey()), "t", rel, n+1)
			if err != nil {
				t.Fatal(err)
			}
			eng, core := e.make(t, edb)
			defer eng.Close()
			if _, err := eng.Materialize(allSingles(m), 1); err != nil {
				t.Fatal(err)
			}
			_, victim = treeNames(core.sets[relation.SingleAttr(1)])
			_, err = eng.Materialize(allPairs(m), 1)
			if want := "attribute set {1} as cover of level 2: core: O^" + core.layout.secondary + " read"; !errors.Is(err, store.ErrIntegrity) || !strings.Contains(err.Error(), want) {
				t.Errorf("level over a tampered cover: %v; want an integrity failure saying %q", err, want)
			}
			victim, _ = treeNames(core.sets[relation.SingleAttr(0)])
			_, err = eng.(interface {
				Insert(relation.Row) (int, error)
			}).Insert(relation.Row{"000001", "000001", "000001"})
			if want := "attribute set {0}: core: O^" + core.layout.primary + "/O^" + core.layout.secondary + " step"; !errors.Is(err, store.ErrIntegrity) || !strings.Contains(err.Error(), want) {
				t.Errorf("insertion into a tampered set: %v; want an integrity failure saying %q", err, want)
			}
		})
	}
}
