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
// rounds, and a chunk's last — and the batches that carry cell writes and
// those of cell reads alone — a chunk's. A batch of path ops and cell writes,
// Or-ORAM's last round of a chunk, counts as both. The upload, tree set-up and
// deletes are calls of other kinds.
type pathRounds struct {
	store.Adapter
	n, cellReads, cellWrites int64
}

func countPathRounds(svc store.Service) *pathRounds {
	p := &pathRounds{}
	p.Adapter = store.Adapt(func(op *store.Op, res *store.Result) error {
		var path, cellWrite bool
		for _, b := range op.Ops {
			path, cellWrite = path || b.Path, cellWrite || b.Write && !b.Path
		}
		switch {
		case op.Kind == store.KindReadPath, op.Kind == store.KindWritePath:
			p.n++
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

// pathEvents counts (ReadPath, WritePath) events per object.
func pathEvents(events []trace.Event) map[string][2]int {
	return countEvents(events, trace.OpReadPath, trace.OpWritePath)
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
// n (ReadPath, WritePath) pairs, and so does Ex-ORAM's ID ORAM of each target,
// and of each cover however many of the targets name it; Or-ORAM's label array
// of a target has its n cells written, of a cover its n cells read. A chunk of
// r records is 3 rounds whatever w, c and r are, all of a chunk's reads before
// its write-backs: at level 1 the columns' cells, the r·w fetches (2r·w in
// Ex-ORAM), their write-backs; above it in Ex-ORAM the r·c cover fetches,
// their write-backs with the 2r·w target fetches, the targets' write-backs,
// and in Or-ORAM the covers' label cells, the r·w fetches, their write-backs
// with the targets' label cells. And a level of one — core.CardinalityUnion —
// is, event for event, the sequence of a set at a time with each phase taken
// for the whole chunk: in Ex-ORAM [c₁ c₂]·r → [c₁ c₂]·r [P S]·r → [P S]·r, in
// Or-ORAM a chunk's cells of c₁ and c₂, [P]·r → [P]·r and the chunk's cells
// of S.
func TestLevelClosedForm(t *testing.T) {
	const m, n = 4, 70 // two chunks: 64 + 6
	rel := fixedWidthRel(m, n, 5, 3)
	chunks := (n + obsort.ChunkCells - 1) / obsort.ChunkCells
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
			positional := core.layout.positional
			srv.Trace().Enable()

			// measure runs a Materialize call and returns its path rounds,
			// cell read and write rounds, and per-object path and cell events.
			measure := func(reqs []Request) (r, reads, writes int64, paths, cells map[string][2]int, events []trace.Event) {
				t.Helper()
				srv.Trace().Reset()
				r0, reads0, writes0 := rounds.n, rounds.cellReads, rounds.cellWrites
				if _, err := eng.Materialize(reqs, 4); err != nil {
					t.Fatal(err)
				}
				events = srv.Trace().Events()
				return rounds.n - r0, rounds.cellReads - reads0, rounds.cellWrites - writes0, pathEvents(events), cellEvents(events), events
			}
			// wantSets checks a set's primary for primary pairs and its
			// secondary for secondary pairs — path events of an ID ORAM, or
			// (reads, writes) of a label array's cells.
			wantSets := func(paths, cells map[string][2]int, what string, x relation.AttrSet, primary int, secondary [2]int) {
				t.Helper()
				p, s := treeNames(core.sets[x])
				got := paths[s]
				if positional {
					got = cells[s]
				}
				if paths[p] != [2]int{primary, primary} || got != secondary {
					t.Errorf("%s %v: primary saw %v (ReadPath, WritePath), want %d pairs; secondary %v, want %v", what, x, paths[p], primary, got, secondary)
				}
			}
			accesses := func(paths map[string][2]int) (total int) {
				for _, c := range paths {
					total += c[0]
				}
				return total
			}

			// Level 1: w = m, no covers.
			r, reads, writes, paths, cells, events := measure(allSingles(m))
			perTarget := 2
			if positional {
				perTarget = 1
			}
			if r != int64(2*chunks) || accesses(paths) != perTarget*m*n {
				t.Errorf("level 1: %d accesses in %d path rounds, want %d·w·n = %d in 2⌈n/%d⌉ = %d", accesses(paths), r, perTarget, perTarget*m*n, obsort.ChunkCells, 2*chunks)
			}
			for a := 0; a < m; a++ {
				labels := [2]int{n, n}
				if positional {
					labels = [2]int{0, n}
				}
				wantSets(paths, cells, "level 1", relation.SingleAttr(a), n, labels)
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
			if columnCells != m*n || reads != int64(chunks) || writes != int64(labelWrites) {
				t.Errorf("level 1: %d column cells read in %d rounds and %d rounds of label writes, want m·n = %d in ⌈n/%d⌉ = %d and %d",
					columnCells, reads, writes, m*n, obsort.ChunkCells, chunks, labelWrites)
			}

			// Level 2: w = 6 over c = 4, each cover named by three targets.
			pairs := allPairs(m)
			r, reads, writes, paths, cells, _ = measure(pairs)
			groups := (len(pairs) + levelWidth - 1) / levelWidth
			perChunk, wantAccesses := 3, (2*len(pairs)+m)*n*groups
			if positional {
				perChunk, wantAccesses = 2, len(pairs)*n
			}
			if want := perChunk * chunks * groups; r != int64(want) {
				t.Errorf("level 2: %d path rounds, want %d⌈n/%d⌉·%d = %d", r, perChunk, obsort.ChunkCells, groups, want)
			}
			if groups == 1 && accesses(paths) != wantAccesses {
				t.Errorf("level 2: %d accesses, want %d", accesses(paths), wantAccesses)
			}
			if positional && (reads != int64(chunks*groups) || writes != int64(chunks*groups)) {
				t.Errorf("level 2: %d rounds of label reads and %d of label writes, want ⌈n/%d⌉·%d = %d each", reads, writes, obsort.ChunkCells, groups, chunks*groups)
			}
			for _, p := range pairs {
				labels := [2]int{n, n}
				if positional {
					labels = [2]int{0, n}
				}
				wantSets(paths, cells, "level 2 target", p.Set, n, labels)
			}
			for a := 0; a < m; a++ {
				labels := [2]int{n * groups, n * groups}
				if positional {
					labels = [2]int{n * groups, 0}
				}
				wantSets(paths, cells, "level 2 cover", relation.SingleAttr(a), 0, labels)
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
			type step struct {
				op   trace.Op
				objs []string
			}
			record := []step{{trace.OpReadPath, []string{c1, c2}}, {trace.OpWritePath, []string{c1, c2}}, {trace.OpReadPath, []string{p, s}}, {trace.OpWritePath, []string{p, s}}}
			if positional {
				record = []step{{trace.OpReadPath, []string{p}}, {trace.OpWritePath, []string{p}}}
			}
			var wantSeq, gotSeq []string
			cellRange := func(op trace.Op, obj string, lo, hi int) {
				for i := lo; i < hi; i++ {
					wantSeq = append(wantSeq, fmt.Sprintf("%v %s %d", op, obj, i))
				}
			}
			for lo := 0; lo < n; lo += obsort.ChunkCells {
				hi := min(lo+obsort.ChunkCells, n)
				if positional {
					cellRange(trace.OpReadCell, c1, lo, hi)
					cellRange(trace.OpReadCell, c2, lo, hi)
				}
				for _, st := range record {
					for i := lo; i < hi; i++ {
						for _, obj := range st.objs {
							wantSeq = append(wantSeq, fmt.Sprintf("%v %s", st.op, obj))
						}
					}
				}
				if positional {
					cellRange(trace.OpWriteCell, s, lo, hi)
				}
			}
			for _, ev := range srv.Trace().Events() {
				switch ev.Op {
				case trace.OpReadPath, trace.OpWritePath:
					gotSeq = append(gotSeq, fmt.Sprintf("%v %s", ev.Op, ev.Object))
				case trace.OpReadCell, trace.OpWriteCell:
					gotSeq = append(gotSeq, fmt.Sprintf("%v %s %d", ev.Op, ev.Object, ev.Index))
				}
			}
			if strings.Join(gotSeq, "\n") != strings.Join(wantSeq, "\n") {
				t.Errorf("a level of one is not the set-at-a-time sequence taken a chunk at a time: %d path and cell events, want %d; first eight\n got  %v\n want %v",
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
			perChunk := 3 // n fits one chunk
			if core.layout.positional {
				perChunk = 2 // and one round of cover label cells
			}
			if got := rounds.n - r0; got != int64(perChunk*2) {
				t.Errorf("%d path rounds, want %d per group = %d", got, perChunk, perChunk*2)
			}

			// Where in the trace each structure's path and cell events lie.
			first, last := make(map[string]int), make(map[string]int)
			events := srv.Trace().Events()
			for i, ev := range events {
				switch ev.Op {
				case trace.OpReadPath, trace.OpWritePath, trace.OpReadCell, trace.OpWriteCell:
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
			// A cover's ID ORAM sees a (ReadPath, WritePath) pair, its label
			// array a ReadCell, per record and group that names it.
			got, what := pathEvents(events), "(ReadPath, WritePath)"
			if core.layout.positional {
				got, what = cellEvents(events), "(ReadCell, WriteCell)"
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
				want := [2]int{naming * n, naming * n}
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
	oracle := NewPlainEngine(rel)
	if _, err := oracle.Materialize(append(allSingles(m), pairs...), 1); err != nil {
		t.Fatal(err)
	}
	for _, e := range oramEngines {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", e.name, workers), func(t *testing.T) {
				// n fits one chunk, which is 3 rounds a group, 2 of them led
				// by a path op. Ex-ORAM: the second group's round that carries
				// the covers' write-backs with the targets' fetches — after the
				// first group's 3 and the second's cover fetches. Or-ORAM: the
				// second group's last, its targets' write-backs with their
				// label cells — after the first group's 2 and the second's
				// fetches.
				lost := 3 + 2
				if e.name == "or" {
					lost = 2 + 2
				}
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
					st := core.sets[x]
					if st.secondary == nil {
						cts, err := edb.svc.ReadCells(st.labels, []int64{0})
						if err == nil {
							_, err = edb.cipher.Open(cts[0], labelAD(st.labels, 0))
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

// TestLabelCellsAreLocationBound: an Or-ORAM label cell is sealed to its array
// and record id, so a server that moves one — onto another id of the same
// array, or onto the same id of another set's array — is caught when a union
// reads it, and never turns it into a wrong cardinality.
func TestLabelCellsAreLocationBound(t *testing.T) {
	rel := fixedWidthRel(2, 8, 23, 3)
	srv := store.NewServer()
	edb, err := Upload(srv, crypto.MustNewCipher(crypto.MustNewKey()), "t", rel)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewOrEngine(edb)
	defer eng.Close()
	a, b := relation.SingleAttr(0), relation.SingleAttr(1)
	if _, err := eng.Materialize(allSingles(2), 1); err != nil {
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
	for _, e := range oramEngines {
		t.Run(e.name, func(t *testing.T) {
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
	for _, e := range oramEngines {
		t.Run(e.name, func(t *testing.T) {
			for _, r := range rels {
				t.Run(r.name, func(t *testing.T) { freshLabels(t, e.make, r.cell, m, n) })
			}
		})
	}
}

// freshLabels steps a relation of n rows whose column col holds cell(i, col)
// through levels 1 and 2 and checks every set against the oracle.
func freshLabels(t *testing.T, build func(testing.TB, *EncryptedDB) (Engine, *oramCore), cell func(i, col int) int, m, n int) {
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
	oracle := NewPlainEngine(rel)
	edb, err := Upload(store.NewServer(), crypto.MustNewCipher(crypto.MustNewKey()), "t", rel)
	if err != nil {
		t.Fatal(err)
	}
	eng, core := build(t, edb)
	defer eng.Close()
	for level, reqs := range [][]Request{allSingles(m), allPairs(m)} {
		cards, err := eng.Materialize(reqs, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Materialize(reqs, 1)
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
