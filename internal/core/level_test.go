package core

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"github.com/oblivfd/oblivfd/internal/obsort"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/trace"
)

// onTree reports whether an object is one of the ORAM engines' bucket trees
// (O^KL, O^KLF, O^IKL): a cell op on one is an ORAM round's fetch or
// write-back.
func onTree(name string) bool {
	for _, suffix := range []string{orLayout.primary, exLayout.primary, exLayout.secondary} {
		if strings.HasSuffix(name, ":"+suffix) {
			return true
		}
	}
	return false
}

// treeOp reports whether b is a cell op on one of the ORAM engines' trees:
// an ORAM round's fetch or write-back, or a set-up's dummy buckets. A batch
// led by one is a round; a set-up batch is led by a create.
func treeOp(b *store.BatchOp) bool {
	k := b.Kind()
	return (k == store.KindReadCells || k == store.KindWriteCells) && onTree(b.Name)
}

// withoutDummies drops from events each tree's set-up writes — the dummy
// buckets oram.SetupAll fills it with, every cell write to the tree before
// its first read — and leaves what the fills' rounds show.
func withoutDummies(events []trace.Event) []trace.Event {
	read := make(map[string]bool)
	var out []trace.Event
	for _, e := range events {
		switch {
		case e.Op == trace.OpReadTreeCell:
			read[e.Object] = true
		case e.Op == trace.OpWriteTreeCell && !read[e.Object]:
			continue
		}
		out = append(out, e)
	}
	return out
}

// roundBuckets is the closed form of the buckets an ORAM round of r accesses
// moves each way on a tree built for capacity: the top t = ⌈log₂ r⌉ levels
// whole, then each of the r paths below them (DESIGN.md §11, "Treetop
// rounds"), on a tree of half the next power of two ≥ capacity leaves.
func roundBuckets(r, capacity int) int {
	levels := max(bits.Len(uint(capacity-1))-1, 1) + 1
	t := min(bits.Len(uint(r-1)), levels)
	return 1<<t - 1 + r*(levels-t)
}

// chunkBuckets is the buckets that a tree's rounds over n records, one per
// chunk, move each way.
func chunkBuckets(n, capacity int) (total int) {
	for lo := 0; lo < n; lo += obsort.ChunkCells {
		total += roundBuckets(min(obsort.ChunkCells, n-lo), capacity)
	}
	return total
}

// pathRounds counts the calls that carry an ORAM round's fetch or write-back
// — a record's rounds, and a chunk's last — and the batches that carry cell
// writes to arrays and those of array cell reads alone — a chunk's. A batch
// of tree ops and cell writes, Or-ORAM's last round of a chunk, counts as
// both. The upload's and the set-up's batches, each led by a create, and
// deletes are counted in none of these.
type pathRounds struct {
	store.Adapter
	n, cellReads, cellWrites int64
}

func countPathRounds(svc store.Service) *pathRounds {
	p := &pathRounds{}
	p.Adapter = store.Adapt(func(op *store.Op, res *store.Result) error {
		var path, cellWrite bool
		for _, b := range op.Ops {
			path, cellWrite = path || onTree(b.Name), cellWrite || b.Write && !onTree(b.Name)
		}
		switch {
		case (op.Kind == store.KindReadCells || op.Kind == store.KindWriteCells) && onTree(op.Name):
			p.n++
		case op.Kind == store.KindBatch && len(op.Ops) > 0 && op.Ops[0].Kind() != store.KindReadCells && op.Ops[0].Kind() != store.KindWriteCells:
			// A set-up batch.
		case op.Kind == store.KindBatch && len(op.Ops) > 0:
			if path {
				p.n++
			}
			if cellWrite {
				p.cellWrites++
			}
			if !path && !cellWrite {
				p.cellReads++
			}
		case op.Kind == store.KindReadCells:
			p.cellReads++
		}
		return store.Invoke(svc, op, res)
	})
	return p
}

// treeNames returns the server-side names of a set's primary and secondary:
// Ex-ORAM's ID ORAM, or Or-ORAM's label array.
func treeNames(st *oramState) (primary, secondary string) {
	if st.secondary == nil {
		return st.primary.Name(), st.labels
	}
	return st.primary.Name(), st.secondary.Name()
}

// treeRounds counts, per object, the tree cell calls that read it and those
// that wrote it — each an ORAM round's fetch or write-back — as (reads,
// writes): the events the server marks as a call's first.
func treeRounds(events []trace.Event) map[string][2]int {
	out := make(map[string][2]int)
	for _, e := range events {
		if !e.First {
			continue
		}
		c := out[e.Object]
		switch e.Op {
		case trace.OpReadTreeCell:
			c[0]++
		case trace.OpWriteTreeCell:
			c[1]++
		default:
			continue
		}
		out[e.Object] = c
	}
	return out
}

// treeCells counts (ReadTreeCell, WriteTreeCell) events per object: the
// buckets its rounds moved.
func treeCells(events []trace.Event) map[string][2]int {
	return countEvents(events, trace.OpReadTreeCell, trace.OpWriteTreeCell)
}

// cellEvents counts (ReadCell, WriteCell) events per object.
func cellEvents(events []trace.Event) map[string][2]int {
	return countEvents(events, trace.OpReadCell, trace.OpWriteCell)
}

func countEvents(events []trace.Event, read, write trace.Op) map[string][2]int {
	out := make(map[string][2]int)
	for _, e := range events {
		c := out[e.Object]
		switch e.Op {
		case read:
			c[0]++
		case write:
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
// records shows the server, structure by structure. Each target's primary sees
// one ORAM round — a fetch and a write-back of roundBuckets(r) buckets — per
// chunk of r records, and so does Ex-ORAM's ID ORAM of each target, and of
// each cover however many of the targets name it; Or-ORAM's label array of a
// target has its n cells written, of a cover its n cells read. A chunk of r
// records has 3 stages whatever w, c and r are, all of a chunk's reads before
// its write-backs: at level 1 the columns' cells, the w fetches (2w in
// Ex-ORAM), their write-backs; above it in Ex-ORAM the c cover fetches, their
// write-backs with the 2w target fetches, the targets' write-backs, and in
// Or-ORAM the covers' label cells, the w fetches, their write-backs with the
// targets' label cells. A round carries chunk j − 2's last stage, chunk
// j − 1's second and chunk j's first, so N chunks are N + 2 rounds: the first
// reads cells alone, except for Ex-ORAM's covers, which it fetches. And a
// level of one — core.CardinalityUnion — is, call for call, that pipeline of
// the set-at-a-time sequence with each phase taken for a whole chunk: in
// Ex-ORAM round j is [W P S of chunk j − 2, W c₁ c₂ of j − 1] [R P S of j − 1]
// [R c₁ c₂ of j], in Or-ORAM [W P of j − 2] [R P of j − 1], the cells of S of
// chunk j − 2 and those of c₁ and c₂ of chunk j.
func TestLevelClosedForm(t *testing.T) {
	const m, n = 4, 70 // two chunks: 64 + 6
	rel := fixedWidthRel(m, n, 5, 3)
	chunks := (n + obsort.ChunkCells - 1) / obsort.ChunkCells
	for _, p := range rows(oramRow) {
		t.Run(short(p), func(t *testing.T) {
			srv := store.NewServer()
			rounds := countPathRounds(srv)
			eng, _ := openFor[Engine](t, rounds, p, rel, opts{})
			defer eng.Close()
			core := oramOf(eng)
			positional := core.layout.positional
			buckets := chunkBuckets(n, core.capacity) // a tree's buckets over the n records, each way
			srv.Trace().Enable()

			// measure runs a Materialize call and returns its path rounds,
			// cell read and write rounds, and per-object tree rounds, tree
			// cells and array cell events.
			measure := func(reqs []Request) (r, reads, writes int64, paths, bucketsOf, cells map[string][2]int, events []trace.Event) {
				t.Helper()
				srv.Trace().Reset()
				r0, reads0, writes0 := rounds.n, rounds.cellReads, rounds.cellWrites
				if _, err := eng.Materialize(reqs); err != nil {
					t.Fatal(err)
				}
				events = withoutDummies(srv.Trace().Events())
				return rounds.n - r0, rounds.cellReads - reads0, rounds.cellWrites - writes0, treeRounds(events), treeCells(events), cellEvents(events), events
			}
			// wantSets checks a set's primary for primary rounds of the n
			// records and its secondary for secondary — tree rounds of an ID
			// ORAM, or (reads, writes) of a label array's cells.
			wantSets := func(paths, bucketsOf, cells map[string][2]int, what string, x relation.AttrSet, primary int, secondary [2]int) {
				t.Helper()
				p, s := treeNames(core.sets[x])
				got := paths[s]
				if positional {
					got = cells[s]
				}
				if paths[p] != [2]int{primary, primary} || got != secondary {
					t.Errorf("%s %v: primary saw %v rounds (fetch, write-back), want %d each; secondary %v, want %v", what, x, paths[p], primary, got, secondary)
				}
				for _, tree := range []string{p, s} {
					if c := paths[tree][0] / chunks; bucketsOf[tree] != [2]int{c * buckets, c * buckets} {
						t.Errorf("%s %v: %s's %v rounds moved %v buckets, want %d each way per pass over the records", what, x, tree, paths[tree], bucketsOf[tree], buckets)
					}
				}
			}
			fetches := func(paths map[string][2]int) (total int) {
				for _, c := range paths {
					total += c[0]
				}
				return total
			}

			// Level 1: w = m, no covers.
			r, reads, writes, paths, bucketsOf, cells, events := measure(allSingles(m))
			perTarget := 2
			if positional {
				perTarget = 1
			}
			if r != int64(chunks+1) || fetches(paths) != perTarget*m*chunks {
				t.Errorf("level 1: %d tree fetches in %d path rounds, want %d·w·⌈n/%d⌉ = %d in ⌈n/%d⌉ + 1 = %d", fetches(paths), r, perTarget, obsort.ChunkCells, perTarget*m*chunks, obsort.ChunkCells, chunks+1)
			}
			for a := 0; a < m; a++ {
				labels := [2]int{chunks, chunks}
				if positional {
					labels = [2]int{0, n}
				}
				wantSets(paths, bucketsOf, cells, "level 1", relation.SingleAttr(a), chunks, labels)
			}
			var columnCells int
			for _, ev := range events {
				if ev.Op == trace.OpReadCell {
					columnCells++
				}
			}
			labelWrites := 0
			if positional {
				labelWrites = chunks
			}
			if columnCells != m*n || reads != 1 || writes != int64(labelWrites) {
				t.Errorf("level 1: %d column cells read, %d rounds of nothing else and %d rounds of label writes, want m·n = %d, 1 and %d",
					columnCells, reads, writes, m*n, labelWrites)
			}

			// Level 2: w = 6 over c = 4, each cover named by three targets.
			pairs := allPairs(m)
			r, reads, writes, paths, bucketsOf, cells, _ = measure(pairs)
			groups := (len(pairs) + levelWidth - 1) / levelWidth
			extraRounds, wantFetches := 2, (2*len(pairs)+m)*chunks*groups // the first round fetches covers
			if positional {
				extraRounds, wantFetches = 1, len(pairs)*chunks // the first round reads cells alone
			}
			if want := (chunks + extraRounds) * groups; r != int64(want) {
				t.Errorf("level 2: %d path rounds, want (⌈n/%d⌉ + %d)·%d = %d", r, obsort.ChunkCells, extraRounds, groups, want)
			}
			if groups == 1 && fetches(paths) != wantFetches {
				t.Errorf("level 2: %d tree fetches, want %d", fetches(paths), wantFetches)
			}
			if positional && (reads != int64(groups) || writes != int64(chunks*groups)) {
				t.Errorf("level 2: %d rounds of label reads alone and %d of label writes, want %d and ⌈n/%d⌉·%d = %d", reads, writes, groups, obsort.ChunkCells, groups, chunks*groups)
			}
			for _, p := range pairs {
				labels := [2]int{chunks, chunks}
				if positional {
					labels = [2]int{0, n}
				}
				wantSets(paths, bucketsOf, cells, "level 2 target", p.Set, chunks, labels)
			}
			for a := 0; a < m; a++ {
				labels := [2]int{chunks * groups, chunks * groups}
				if positional {
					labels = [2]int{n * groups, 0}
				}
				wantSets(paths, bucketsOf, cells, "level 2 cover", relation.SingleAttr(a), 0, labels)
			}

			// A level of one is the set-at-a-time sequence, a phase a chunk.
			x1, x2 := relation.SingleAttr(0).Add(1), relation.SingleAttr(2)
			srv.Trace().Reset()
			if _, err := CardinalityUnion(eng, x1, x2); err != nil {
				t.Fatal(err)
			}
			_, c1 := treeNames(core.sets[x1])
			_, c2 := treeNames(core.sets[x2])
			p, s := treeNames(core.sets[x1.Union(x2)])
			var wantSeq, gotSeq []string
			// stage appends what chunk k's op on objs shows, if k is a chunk:
			// a tree call of roundBuckets buckets, or the chunk's cells.
			stage := func(k int, op trace.Op, objs ...string) {
				if k < 0 || k >= chunks {
					return
				}
				lo, hi := k*obsort.ChunkCells, min((k+1)*obsort.ChunkCells, n)
				for _, obj := range objs {
					if op == trace.OpReadCell || op == trace.OpWriteCell {
						for i := lo; i < hi; i++ {
							wantSeq = append(wantSeq, fmt.Sprintf("%v %s %d", op, obj, i))
						}
						continue
					}
					wantSeq = append(wantSeq, fmt.Sprintf("%v %s ×%d", op, obj, roundBuckets(hi-lo, core.capacity)))
				}
			}
			for j := 0; j < chunks+2; j++ {
				if positional {
					stage(j-2, trace.OpWriteTreeCell, p)
					stage(j-1, trace.OpReadTreeCell, p)
					stage(j-2, trace.OpWriteCell, s)
					stage(j, trace.OpReadCell, c1, c2)
					continue
				}
				stage(j-2, trace.OpWriteTreeCell, p, s)
				stage(j-1, trace.OpWriteTreeCell, c1, c2)
				stage(j-1, trace.OpReadTreeCell, p, s)
				stage(j, trace.OpReadTreeCell, c1, c2)
			}
			var call trace.Event // the tree cell call being collected, run events of it
			run := 0
			endCall := func() {
				if run > 0 {
					gotSeq = append(gotSeq, fmt.Sprintf("%v %s ×%d", call.Op, call.Object, run))
				}
				run = 0
			}
			for _, ev := range withoutDummies(srv.Trace().Events()) {
				switch ev.Op {
				case trace.OpReadTreeCell, trace.OpWriteTreeCell:
					if ev.First {
						endCall()
					}
					call = ev
					run++
				case trace.OpReadCell, trace.OpWriteCell:
					endCall()
					gotSeq = append(gotSeq, fmt.Sprintf("%v %s %d", ev.Op, ev.Object, ev.Index))
				}
			}
			endCall()
			if strings.Join(gotSeq, "\n") != strings.Join(wantSeq, "\n") {
				t.Errorf("a level of one is not the set-at-a-time sequence taken a chunk at a time, pipelined: %d tree calls and cell events, want %d; first eight\n got  %v\n want %v",
					len(gotSeq), len(wantSeq), gotSeq[:min(8, len(gotSeq))], wantSeq[:8])
			}
		})
	}
}

// TestLevelWiderThanGroup: a level of more sets than levelWidth is cut into
// groups in request order. The cardinalities are the oracle's; a target's
// trees are stepped in its own group's 3 rounds a chunk and no other's; a
// cover is read once a record per group that names it — shared within a group
// only.
func TestLevelWiderThanGroup(t *testing.T) {
	const m, n = 7, 12 // 21 pairs > levelWidth
	rel := fixedWidthRel(m, n, 11, 3)
	pairs := allPairs(m)
	if len(pairs) <= levelWidth || len(pairs) > 2*levelWidth {
		t.Fatalf("%d pairs do not make exactly two groups of at most %d", len(pairs), levelWidth)
	}
	oracle := oracle(rel)
	if _, err := oracle.Materialize(append(allSingles(m), pairs...)); err != nil {
		t.Fatal(err)
	}
	for _, p := range rows(oramRow) {
		t.Run(short(p), func(t *testing.T) {
			srv := store.NewServer()
			rounds := countPathRounds(srv)
			eng, _ := openFor[Engine](t, rounds, p, rel, opts{})
			defer eng.Close()
			core := oramOf(eng)
			if _, err := eng.Materialize(allSingles(m)); err != nil {
				t.Fatal(err)
			}
			srv.Trace().Reset()
			srv.Trace().Enable()
			r0 := rounds.n
			cards, err := eng.Materialize(pairs)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range pairs {
				if want, _ := oracle.Cardinality(p.Set); cards[i] != want {
					t.Errorf("|π_%v| = %d, want %d", p.Set, cards[i], want)
				}
			}
			perChunk := 3 // n fits one chunk
			if core.layout.positional {
				perChunk = 2 // and one round of cover label cells
			}
			if got := rounds.n - r0; got != int64(perChunk*2) {
				t.Errorf("%d path rounds, want %d per group = %d", got, perChunk, perChunk*2)
			}

			// Where in the trace each structure's path and cell events lie.
			first, last := make(map[string]int), make(map[string]int)
			events := withoutDummies(srv.Trace().Events())
			for i, ev := range events {
				switch ev.Op {
				case trace.OpReadTreeCell, trace.OpWriteTreeCell, trace.OpReadCell, trace.OpWriteCell:
				default:
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
			// A cover's ID ORAM sees a round (fetch, write-back) per chunk —
			// n fits one — and its label array a ReadCell per record, per
			// group that names it.
			got, what, per := treeRounds(events), "rounds (fetch, write-back)", 1
			if core.layout.positional {
				got, what, per = cellEvents(events), "(ReadCell, WriteCell)", n
			}
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
				want := [2]int{naming * per, naming * per}
				if core.layout.positional {
					want[1] = 0
				}
				if _, s := treeNames(core.sets[x]); got[s] != want {
					t.Errorf("cover %v is named by %d groups and its secondary saw %v %s, want %v", x, naming, got[s], what, want)
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
// caught up with, and a cover whose labels are an array, which had no write in
// flight, still answers; the sets an earlier group committed stay usable; and
// after releasing everything, asking again gives the oracle's cardinalities.
func failedLevel(t *testing.T) {
	const m, n = 7, 12 // 21 pairs: a group of levelWidth, then one of 5
	rel := fixedWidthRel(m, n, 13, 3)
	pairs := allPairs(m)
	oracle := oracle(rel)
	if _, err := oracle.Materialize(append(allSingles(m), pairs...)); err != nil {
		t.Fatal(err)
	}
	for _, p := range rows(oramRow) {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", short(p), workers), func(t *testing.T) {
				// n fits one chunk, which is 3 rounds a group, 2 of them led
				// by a path op. Ex-ORAM: the second group's round that carries
				// the covers' write-backs with the targets' fetches — after the
				// first group's 3 and the second's cover fetches. Or-ORAM: the
				// second group's last, its targets' write-backs with their
				// label cells — after the first group's 2 and the second's
				// fetches.
				lost := 3 + 2
				if p == ProtocolORAM {
					lost = 2 + 2
				}
				srv := store.NewServer()
				svc := newFailNth(srv, func(op *store.Op) bool { return op.Kind == store.KindBatch && treeOp(&op.Ops[0]) })
				eng, edb := openFor[Engine](t, svc, p, rel, opts{workers: workers})
				base, _ := srv.Stats()
				core := oramOf(eng)
				if _, err := eng.Materialize(allSingles(m)); err != nil {
					t.Fatal(err)
				}
				svc.arm(lost)
				if _, err := eng.Materialize(pairs); !errors.Is(err, errInjected) {
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
					st := core.sets[x]
					if st.secondary == nil {
						cts, err := edb.svc.ReadCells(st.labels, []int64{0})
						if err == nil {
							_, err = edb.cipher.Open(cts[0], labelPlace(st.labels).At(0))
						}
						if err != nil {
							t.Errorf("cover %v's label array had no write in flight and answers %v", x, err)
						}
						continue
					}
					_, _, err := st.secondary.Read(idKey(0))
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
				cards, err := eng.Materialize(append(allSingles(m), pairs...))
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

// TestLabelCellsAreLocationBound: an Or-ORAM label cell is sealed to its array
// and record id, so a server that moves one — onto another id of the same
// array, or onto the same id of another set's array — is caught when a union
// reads it, and never turns it into a wrong cardinality.
func TestLabelCellsAreLocationBound(t *testing.T) {
	rel := fixedWidthRel(2, 8, 23, 3)
	srv := store.NewServer()
	eng, _ := openFor[*OrEngine](t, srv, ProtocolORAM, rel, opts{})
	defer eng.Close()
	a, b := relation.SingleAttr(0), relation.SingleAttr(1)
	if _, err := eng.Materialize(allSingles(2)); err != nil {
		t.Fatal(err)
	}
	cell := func(name string, id int64) []byte {
		cts, err := srv.ReadCells(name, []int64{id})
		if err != nil {
			t.Fatal(err)
		}
		return cts[0]
	}
	put := func(name string, id int64, ct []byte) {
		if err := srv.WriteCells(name, []int64{id}, [][]byte{ct}); err != nil {
			t.Fatal(err)
		}
	}
	victim, other := eng.sets[a].labels, eng.sets[b].labels
	original := cell(victim, 0)
	for _, c := range []struct {
		name string
		from string
		id   int64
	}{
		{"another id of the same array", victim, 1},
		{"the same id of another set's array", other, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			put(victim, 0, cell(c.from, c.id))
			defer put(victim, 0, original)
			if card, err := CardinalityUnion(eng, a, b); !errors.Is(err, store.ErrIntegrity) {
				t.Errorf("union over a moved label cell: |π| = %d, err = %v; want ErrIntegrity", card, err)
			}
		})
	}
	if card, err := CardinalityUnion(eng, a, b); err != nil || card != relation.PartitionOf(rel, a.Union(b)).Classes {
		t.Errorf("union over the cells as written: |π| = %d, err = %v; want %d", card, err, relation.PartitionOf(rel, a.Union(b)).Classes)
	}
}

// TestLevelErrorsSayWhere: a path or a label range that fails verification in
// the middle of a level names the structure it belongs to — the cover being
// read, with the level that reads it, or the set being stepped — though the
// call that failed held a whole level's requests.
func TestLevelErrorsSayWhere(t *testing.T) {
	const m, n = 3, 8
	rel := fixedWidthRel(m, n, 17, 3)
	for _, p := range rows(oramRow) {
		t.Run(short(p), func(t *testing.T) {
			srv := store.NewServer()
			var victim string // the structure whose fetched paths or cells arrive with a bit flipped
			tamper := store.Adapt(func(op *store.Op, res *store.Result) error {
				err := store.Invoke(srv, op, res)
				for i := range op.Ops {
					if b := op.Ops[i]; err == nil && !b.Write && b.Name == victim {
						res.Batch[i][0] = append([]byte(nil), res.Batch[i][0]...)
						res.Batch[i][0][5] ^= 4
					}
				}
				return err
			})
			eng, _ := openFor[inserter](t, tamper, p, rel, opts{headroom: 1})
			defer eng.Close()
			core := oramOf(eng)
			if _, err := eng.Materialize(allSingles(m)); err != nil {
				t.Fatal(err)
			}
			_, victim = treeNames(core.sets[relation.SingleAttr(1)])
			_, err := eng.Materialize(allPairs(m))
			if want := "attribute set {1} as cover of level 2: core: O^" + core.layout.secondary + " read"; !errors.Is(err, store.ErrIntegrity) || !strings.Contains(err.Error(), want) {
				t.Errorf("level over a tampered cover: %v; want an integrity failure saying %q", err, want)
			}
			victim, _ = treeNames(core.sets[relation.SingleAttr(0)])
			_, err = eng.Insert(relation.Row{"000001", "000001", "000001"})
			steps := "O^" + core.layout.primary // Or-ORAM's step is one access
			if !core.layout.positional {
				steps += "/O^" + core.layout.secondary
			}
			if want := "attribute set {0}: core: " + steps + " step"; !errors.Is(err, store.ErrIntegrity) || !strings.Contains(err.Error(), want) {
				t.Errorf("insertion into a tampered set: %v; want an integrity failure saying %q", err, want)
			}
		})
	}
}

// TestFreshLabelsAcrossPipelinedRecords: records that open new classes draw
// fresh labels, and a chunk's records are one batch whose write-backs land
// after all of them are served. So a record's fresh label must count the
// fresh labels its chunk's earlier records drew (oramState.pending), and
// card_X (and Ex-ORAM's label source) moves when the write-backs land. Two
// relations: every record a new class in every column, and columns that go
// fresh, repeat, fresh within a chunk — where a label drawn from card_X alone
// would hand the third record the first one's label. Either way two records
// sharing a label merge the next level's keys, which the oracle's pair
// cardinalities catch. n = 70 crosses a chunk boundary.
func TestFreshLabelsAcrossPipelinedRecords(t *testing.T) {
	const m, n = 3, 70
	rels := []struct {
		name string
		cell func(i, col int) int
	}{
		{"all fresh", func(i, _ int) int { return i }},
		{"fresh, repeat, fresh", func(i, col int) int { return i / (2 + col) }},
	}
	for _, p := range rows(oramRow) {
		t.Run(short(p), func(t *testing.T) {
			for _, r := range rels {
				t.Run(r.name, func(t *testing.T) { freshLabels(t, p, r.cell, m, n) })
			}
		})
	}
}

// freshLabels steps a relation of n rows whose column col holds cell(i, col)
// through levels 1 and 2 and checks every set against the oracle.
func freshLabels(t *testing.T, p Protocol, cell func(i, col int) int, m, n int) {
	names := make([]string, m)
	for col := range names {
		names[col] = fmt.Sprintf("C%d", col)
	}
	rel := relation.New(relation.MustNewSchema(names...))
	for i := 0; i < n; i++ {
		row := make(relation.Row, m)
		for col := range row {
			row[col] = fmt.Sprintf("%06d", cell(i, col))
		}
		if err := rel.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	oracle := oracle(rel)
	eng, _ := openFor[Engine](t, nil, p, rel, opts{})
	defer eng.Close()
	core := oramOf(eng)
	for level, reqs := range [][]Request{allSingles(m), allPairs(m)} {
		cards, err := eng.Materialize(reqs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Materialize(reqs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range reqs {
			if cards[i] != want[i] {
				t.Errorf("level %d: |π_%v| = %d, oracle %d", level+1, r.Set, cards[i], want[i])
			}
		}
	}
	for x, st := range core.sets {
		want, _ := oracle.Cardinality(x)
		if st.card != uint64(want) || !core.layout.positional && st.nextLabel != uint64(want) || st.pending != 0 {
			t.Errorf("%v: card %d, next label %d, %d pending; want %d fresh labels drawn and landed", x, st.card, st.nextLabel, st.pending, want)
		}
	}
}
