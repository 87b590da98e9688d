package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/oblivfd/oblivfd/internal/baseline"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/trace"
)

// newDynamicEx opens Ex-ORAM over rel with room for capacity rows.
func newDynamicEx(t *testing.T, rel *relation.Relation, capacity int) *ExEngine {
	t.Helper()
	eng, _ := openFor[*ExEngine](t, nil, ProtocolDynamicORAM, rel, opts{headroom: capacity - rel.NumRows()})
	return eng
}

// materializeAll computes all singles and all pairs on the engine.
func materializeAll(t *testing.T, eng Engine, m int) {
	t.Helper()
	for a := 0; a < m; a++ {
		if _, err := CardinalitySingle(eng, a); err != nil {
			t.Fatal(err)
		}
	}
	for a := 0; a < m; a++ {
		for b := a + 1; b < m; b++ {
			if _, err := CardinalityUnion(eng, relation.SingleAttr(a), relation.SingleAttr(b)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// checkAgainstRelation compares all materialized cardinalities with direct
// partition counts on the expected plaintext state.
func checkAgainstRelation(t *testing.T, eng Engine, want *relation.Relation, m int, ctx string) {
	t.Helper()
	for a := 0; a < m; a++ {
		got, ok := eng.Cardinality(relation.SingleAttr(a))
		if !ok {
			t.Fatalf("%s: single %d not materialized", ctx, a)
		}
		exp := relation.PartitionOf(want, relation.SingleAttr(a)).Classes
		if got != exp {
			t.Errorf("%s: |π_{%d}| = %d, want %d", ctx, a, got, exp)
		}
	}
	for a := 0; a < m; a++ {
		for b := a + 1; b < m; b++ {
			x := relation.NewAttrSet(a, b)
			got, ok := eng.Cardinality(x)
			if !ok {
				t.Fatalf("%s: pair %v not materialized", ctx, x)
			}
			exp := relation.PartitionOf(want, x).Classes
			if got != exp {
				t.Errorf("%s: |π_%v| = %d, want %d", ctx, x, got, exp)
			}
		}
	}
}

// liveRelation builds the expected plaintext state from a base relation,
// appended rows, and a set of deleted ids.
func liveRelation(base *relation.Relation, appended []relation.Row, deleted map[int]bool) *relation.Relation {
	out := relation.New(base.Schema())
	all := make([]relation.Row, 0, base.NumRows()+len(appended))
	for i := 0; i < base.NumRows(); i++ {
		all = append(all, base.Row(i))
	}
	all = append(all, appended...)
	for id, row := range all {
		if !deleted[id] {
			if err := out.Append(row); err != nil {
				panic(err)
			}
		}
	}
	return out
}

func TestExEngineInsertUpdatesPartitions(t *testing.T) {
	rel := randomRel(3, 8, 2, 1)
	eng := newDynamicEx(t, rel, 16)
	defer eng.Close()
	materializeAll(t, eng, 3)

	var appended []relation.Row
	for i := 0; i < 6; i++ {
		row := relation.Row{
			string(rune('a' + i%3)), string(rune('a' + i%2)), string(rune('a' + i%4)),
		}
		if _, err := eng.Insert(row); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		appended = append(appended, row)
		checkAgainstRelation(t, eng, liveRelation(rel, appended, nil), 3,
			fmt.Sprintf("after insert %d", i))
	}
}

func TestExEngineDeleteUpdatesPartitions(t *testing.T) {
	rel := randomRel(3, 10, 2, 2)
	eng := newDynamicEx(t, rel, 10)
	defer eng.Close()
	materializeAll(t, eng, 3)

	deleted := map[int]bool{}
	for _, id := range []int{3, 0, 9, 5} {
		if err := eng.Delete(id); err != nil {
			t.Fatalf("Delete %d: %v", id, err)
		}
		deleted[id] = true
		checkAgainstRelation(t, eng, liveRelation(rel, nil, deleted), 3,
			fmt.Sprintf("after delete %d", id))
	}
}

func TestExEngineDeleteErrors(t *testing.T) {
	rel := randomRel(2, 4, 2, 3)
	eng := newDynamicEx(t, rel, 4)
	defer eng.Close()
	for _, id := range []int{99, -1} {
		if err := eng.Delete(id); !errors.Is(err, ErrUnknownID) {
			t.Errorf("Delete(%d) err = %v", id, err)
		}
	}
	if err := eng.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := eng.Delete(1); !errors.Is(err, ErrUnknownID) {
		t.Errorf("double delete err = %v", err)
	}
}

func TestExEngineInsertCapacity(t *testing.T) {
	rel := randomRel(2, 3, 2, 4)
	eng := newDynamicEx(t, rel, 4)
	defer eng.Close()
	if _, err := eng.Insert(relation.Row{"x", "y"}); err != nil {
		t.Fatalf("Insert within capacity: %v", err)
	}
	if _, err := eng.Insert(relation.Row{"x", "y"}); err == nil {
		t.Error("Insert beyond capacity accepted")
	}
	if _, err := eng.Insert(relation.Row{"too-short"}); !errors.Is(err, ErrRowWidth) {
		t.Errorf("bad width err = %v", err)
	}
}

// TestExEngineMixedWorkloadProperty runs a random insert/delete sequence on
// Ex-ORAM and the recompute-from-scratch PlainEngine side by side; all
// materialized cardinalities must agree after every operation.
func TestExEngineMixedWorkloadProperty(t *testing.T) {
	const m = 3
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := randomRel(m, 6, 2, seed+50)
		eng := newDynamicEx(t, base, 30)
		materializeAll(t, eng, m)

		var appended []relation.Row
		deleted := map[int]bool{}
		liveIDs := []int{0, 1, 2, 3, 4, 5}

		for step := 0; step < 18; step++ {
			if rng.Intn(2) == 0 || len(liveIDs) == 0 {
				row := make(relation.Row, m)
				for j := range row {
					row[j] = string(rune('a' + rng.Intn(3)))
				}
				id, err := eng.Insert(row)
				if err != nil {
					t.Fatalf("seed %d step %d: Insert: %v", seed, step, err)
				}
				appended = append(appended, row)
				liveIDs = append(liveIDs, id)
			} else {
				k := rng.Intn(len(liveIDs))
				id := liveIDs[k]
				if err := eng.Delete(id); err != nil {
					t.Fatalf("seed %d step %d: Delete(%d): %v", seed, step, id, err)
				}
				deleted[id] = true
				liveIDs = append(liveIDs[:k], liveIDs[k+1:]...)
			}
			want := liveRelation(base, appended, deleted)
			checkAgainstRelation(t, eng, want, m, fmt.Sprintf("seed %d step %d", seed, step))
			if eng.NumRows() != want.NumRows() {
				t.Fatalf("seed %d step %d: NumRows = %d, want %d", seed, step, eng.NumRows(), want.NumRows())
			}
		}
		eng.Close()
	}
}

// TestDynamicFDRevalidation exercises the paper's headline dynamic scenario:
// discover FDs, insert a violating record, re-validate cheaply via updated
// cardinalities, and see the FD disappear; delete the record and see it
// return.
func TestDynamicFDRevalidation(t *testing.T) {
	schema := relation.MustNewSchema("Position", "Department")
	rel := relation.MustFromRows(schema, []relation.Row{
		{"Engineer", "R&D"},
		{"Engineer", "R&D"},
		{"Sales", "Market"},
	})
	eng := newDynamicEx(t, rel, 8)
	defer eng.Close()

	res, err := Discover(eng, 2, &Options{KeepPartitions: true})
	if err != nil {
		t.Fatal(err)
	}
	hasFD := func(fds []relation.FD, lhs, rhs relation.AttrSet) bool {
		for _, fd := range fds {
			if fd.LHS == lhs && fd.RHS == rhs {
				return true
			}
		}
		return false
	}
	if !hasFD(res.Minimal, relation.SingleAttr(0), relation.SingleAttr(1)) {
		t.Fatalf("Position -> Department not found initially: %v", res.Minimal)
	}

	// Re-validation helper via cached cardinalities (the set-level check).
	fdHolds := func() bool {
		cx, ok1 := eng.Cardinality(relation.SingleAttr(0))
		cxy, ok2 := eng.Cardinality(relation.NewAttrSet(0, 1))
		if !ok1 || !ok2 {
			t.Fatal("partitions not retained")
		}
		return cx == cxy
	}
	if !fdHolds() {
		t.Fatal("cached cardinalities disagree with discovery")
	}

	id, err := eng.Insert(relation.Row{"Engineer", "Support"}) // violates the FD
	if err != nil {
		t.Fatal(err)
	}
	if fdHolds() {
		t.Error("FD still holds after violating insertion")
	}
	if err := eng.Delete(id); err != nil {
		t.Fatal(err)
	}
	if !fdHolds() {
		t.Error("FD did not return after deleting the violating record")
	}
}

// TestOrEngineInsert checks the original ORAM method's insert-only support.
func TestOrEngineInsert(t *testing.T) {
	rel := randomRel(3, 6, 2, 7)
	eng, _ := openFor[*OrEngine](t, nil, ProtocolORAM, rel, opts{headroom: 6})
	defer eng.Close()
	materializeAll(t, eng, 3)

	var appended []relation.Row
	for i := 0; i < 4; i++ {
		row := relation.Row{"z", string(rune('a' + i%2)), "q"}
		if _, err := eng.Insert(row); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		appended = append(appended, row)
	}
	checkAgainstRelation(t, eng, liveRelation(rel, appended, nil), 3, "or-insert")
	if eng.NumRows() != 10 {
		t.Errorf("NumRows = %d, want 10", eng.NumRows())
	}
}

// TestPlainEngineDynamicParity: the trivial recompute engine also satisfies
// the DynamicEngine contract (it is the Definition 5 baseline).
func TestPlainEngineDynamicParity(t *testing.T) {
	rel := randomRel(3, 6, 2, 8)
	eng := oracle(rel)
	materializeAll(t, eng, 3)
	id, err := eng.Insert(relation.Row{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	want := liveRelation(rel, []relation.Row{{"a", "b", "c"}}, nil)
	checkAgainstRelation(t, eng, want, 3, "plain insert")
	if err := eng.Delete(id); err != nil {
		t.Fatal(err)
	}
	checkAgainstRelation(t, eng, rel, 3, "plain delete")
	if err := eng.Delete(id); !errors.Is(err, ErrUnknownID) {
		t.Errorf("double delete err = %v", err)
	}
}

var _ DynamicEngine = (*ExEngine)(nil)
var _ DynamicEngine = (*PlainEngine)(nil)
var _ Engine = (*OrEngine)(nil)
var _ Engine = (*SortEngine)(nil)

// TestFailedInsertIsNeverTraversed: one transient read failure during an
// insertion — the first set's path fetch, after the row has been appended —
// must not shift which records are live. (The failure was once the read-back
// of the new cell that built its single key; insertions take their keys from
// the row now.) Or-ORAM used to leave its row count behind the database's, so the next
// insertion's id stood in for the failed one's: every later union answered
// "id 6 missing from subset partition", and a later single counted the orphan
// and skipped the record really inserted. Now the failed id is never traversed
// and the later one is, NumRows counts live records, and the hole survives a
// checkpoint. Ex-ORAM kept live ids as a set and always skipped the orphan:
// pinned here too.
func TestFailedInsertIsNeverTraversed(t *testing.T) {
	rel := fixedWidthRel(3, 6, 21, 3)
	orphan := relation.Row{"999991", "999992", "999993"} // values nothing shares: counting it shows
	good := relation.Row{"000001", "888882", "000002"}
	a, b := relation.SingleAttr(0), relation.SingleAttr(1)

	after := relation.New(rel.Schema())
	for i := 0; i < rel.NumRows(); i++ {
		if err := after.Append(rel.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := after.Append(good); err != nil {
		t.Fatal(err)
	}
	want := func(x relation.AttrSet) int { return relation.PartitionOf(after, x).Classes }

	for _, p := range rows(resumable) {
		t.Run(short(p), func(t *testing.T) {
			svc := newFailNth(store.NewServer(), func(op *store.Op) bool {
				return op.Kind == store.KindBatch && !op.Ops[0].Write && treeOp(&op.Ops[0])
			})
			eng, edb := openFor[inserter](t, svc, p, rel, opts{headroom: 4})
			if _, err := eng.Materialize([]Request{Single(0), Single(1)}); err != nil {
				t.Fatal(err)
			}
			svc.arm(1)
			if _, err := eng.Insert(orphan); !errors.Is(err, errInjected) {
				t.Fatalf("insert whose first fetch failed: %v", err)
			}
			id, err := eng.Insert(good)
			if err != nil || id != 7 || eng.NumRows() != 7 || edb.NumRows() != 8 {
				t.Fatalf("second insert: id %d, err %v, NumRows %d, rows in the database %d; want 7, nil, 7, 8", id, err, eng.NumRows(), edb.NumRows())
			}
			for _, x := range []relation.AttrSet{a, b} {
				if got, _ := eng.Cardinality(x); got != want(x) {
					t.Errorf("|π_%v| = %d after the inserts, want %d", x, got, want(x))
				}
			}
			if got, err := CardinalityUnion(eng, a, b); err != nil || got != want(a.Union(b)) {
				t.Errorf("union after the inserts: %d, %v; want %d", got, err, want(a.Union(b)))
			}
			if got, err := CardinalitySingle(eng, 2); err != nil || got != want(relation.SingleAttr(2)) {
				t.Errorf("a single built after the inserts: %d, %v; want %d (the orphan counted, or record 7 skipped)", got, err, want(relation.SingleAttr(2)))
			}

			// The hole round-trips through a checkpoint.
			es := eng.(CheckpointableEngine).CheckpointState()
			if want := []int{6}; !reflect.DeepEqual(es.Dead, want) {
				t.Errorf("checkpointed dead ids %v, want %v", es.Dead, want)
			}
			resumed, _, _, err := ResumeEngine(svc, &Checkpoint{EDB: edb.State(), Engine: es}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.NumRows() != 7 {
				t.Errorf("resumed NumRows = %d, want 7", resumed.NumRows())
			}
			if err := resumed.Release(relation.SingleAttr(2)); err != nil {
				t.Fatal(err)
			}
			if got, err := CardinalitySingle(resumed, 2); err != nil || got != want(relation.SingleAttr(2)) {
				t.Errorf("a single built after resuming: %d, %v; want %d", got, err, want(relation.SingleAttr(2)))
			}
			if id, err := resumed.(inserter).Insert(good); err != nil || id != 8 {
				t.Errorf("insert after resuming: id %d, %v; want 8", id, err)
			}
			// eng's handles are stale now; resumed owns the server objects.
			if err := resumed.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRefusedDeleteOwesNothing: a deletion whose second round is refused —
// the sets' O^KLF lost their write-backs in an earlier deletion — leaves no
// write-back owed. The first round's, to O^IKL, are flushed before the error
// surfaces; when they were not, they rode into the next operation's first
// round, and O^IKL answered "access … while another is in flight" until then.
func TestRefusedDeleteOwesNothing(t *testing.T) {
	rel := fixedWidthRel(2, 8, 31, 3)
	srv := store.NewServer()
	klfOnly := func(op *store.Op) bool {
		if op.Kind != store.KindBatch || len(op.Ops) == 0 {
			return false
		}
		for _, b := range op.Ops {
			if !b.Write || !strings.HasSuffix(b.Name, ":KLF") {
				return false
			}
		}
		return true
	}
	fail := newFailNth(srv, klfOnly)
	rounds := store.WithRoundCounter(fail)
	eng, _ := openFor[*ExEngine](t, rounds, ProtocolDynamicORAM, rel, opts{})
	defer eng.Close()
	materializeAll(t, eng, 2)

	fail.arm(1) // the O^KLF write-back round of Delete(0)
	if err := eng.Delete(0); !errors.Is(err, errInjected) {
		t.Fatalf("Delete(0) with its O^KLF write-back lost: %v", err)
	}
	err := eng.Delete(1)
	if err == nil || !strings.Contains(err.Error(), "unusable") {
		t.Fatalf("Delete(1) over a set whose O^KLF is unusable: %v, want a refusal", err)
	}
	sent := rounds.Rounds()
	if err := eng.pipe.Flush(); err != nil || rounds.Rounds() != sent {
		t.Errorf("after the refused deletion the pipeline still owed a round (Flush: %v, %d rounds)", err, rounds.Rounds()-sent)
	}
	for x, st := range eng.sets {
		if _, _, err := st.secondary.Read(idKey(2)); err != nil {
			t.Errorf("%v's O^IKL after the refused deletion: %v", x, err)
		}
	}
}

// TestDeletedIDInvisible: which record a deletion removed is Ex-ORAM's to
// hide (§V-C), from the deletion and from every fill after it. Each pair of
// scripts deletes one of two identical records at the same point — before
// the first Discover, between two discoveries that release their sets, and
// before a Validate that builds again a single the discovery built and
// released, and a union over it no discovery built — so the two live
// relations are equal, and with them everything the protocol may leak. The
// server must see one trace shape from both, and each must answer what the
// plaintext oracle answers. A fill that skips the deleted id's column cell
// shows the server which id it was, and one that skips only its accesses shows
// which chunk it was in.
func TestDeletedIDInvisible(t *testing.T) {
	const a, b = 3, 70 // the two identical records, in different chunks of obsort.ChunkCells
	base := fixedWidthRel(3, 80, 41, 4)
	rows := make([]relation.Row, base.NumRows())
	for i := range rows {
		rows[i] = base.Row(i)
	}
	rows[b] = rows[a]
	rel := relation.MustFromRows(base.Schema(), rows)
	m := rel.NumAttrs()
	live := liveRelation(rel, nil, map[int]bool{a: true})
	wantFDs := func(t *testing.T, res *Result, of *relation.Relation) {
		t.Helper()
		if want := baseline.MinimalFDs(of); !relation.FDSetEqual(res.Minimal, want) {
			t.Errorf("FDs = %v, want %v", res.Minimal, want)
		}
	}
	scripts := []struct {
		name string
		run  func(t *testing.T, eng *ExEngine, del int)
	}{
		{"before the first Discover", func(t *testing.T, eng *ExEngine, del int) {
			if err := eng.Delete(del); err != nil {
				t.Fatal(err)
			}
			res, err := Discover(eng, m, &Options{KeepPartitions: true})
			if err != nil {
				t.Fatal(err)
			}
			wantFDs(t, res, live)
		}},
		{"between discoveries", func(t *testing.T, eng *ExEngine, del int) {
			res, err := Discover(eng, m, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantFDs(t, res, rel)
			if err := eng.Delete(del); err != nil {
				t.Fatal(err)
			}
			if res, err = Discover(eng, m, nil); err != nil {
				t.Fatal(err)
			}
			wantFDs(t, res, live)
		}},
		{"before a Validate of a new set", func(t *testing.T, eng *ExEngine, del int) {
			if _, err := Discover(eng, m, &Options{KeepPartitions: true, MaxLHS: 1}); err != nil {
				t.Fatal(err)
			}
			fd := relation.FD{LHS: relation.NewAttrSet(0, 1), RHS: relation.SingleAttr(2)}
			if err := eng.Release(fd.RHS); err != nil { // the Validate builds it again, and the union
				t.Fatal(err)
			}
			if err := eng.Delete(del); err != nil {
				t.Fatal(err)
			}
			if _, ok := eng.Cardinality(fd.LHS.Union(fd.RHS)); ok {
				t.Fatalf("%v was built before the Validate", fd.LHS.Union(fd.RHS))
			}
			holds, err := Validate(eng, fd.LHS, fd.RHS)
			if err != nil {
				t.Fatal(err)
			}
			if want := baseline.Holds(live, fd); holds != want {
				t.Errorf("Validate(%v) = %v, want %v", fd, holds, want)
			}
		}},
	}
	for _, s := range scripts {
		t.Run(s.name, func(t *testing.T) {
			var shapes [2]trace.Shape
			for i, del := range []int{a, b} {
				srv := store.NewServer()
				eng, _ := openFor[*ExEngine](t, srv, ProtocolDynamicORAM, rel, opts{})
				srv.Trace().Enable()
				s.run(t, eng, del)
				shapes[i] = trace.ShapeOf(srv.Trace().Events()).Canonical()
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if !shapes[0].Equal(shapes[1]) {
				t.Errorf("deleting record %d and record %d look different to the server:\n%s", a, b, shapes[0].Diff(shapes[1]))
			}
		})
	}
}

// TestRediscoveryAfterMutations: the dynamic protocol finds the FDs its
// mutations create or break by discovering again. Over seeded scripts of
// insertions and deletions on Ex-ORAM (m ≤ 5, n ≤ 64, every set kept), a
// second Discover answers baseline.MinimalFDs of the live rows, and it builds
// only the sets the first never built: when it needs none, it takes no round.
// In every other script the first two columns start equal, so the first
// discovery prunes the sets above C0 ↔ C1 and an insertion that breaks the
// pair needs them.
func TestRediscoveryAfterMutations(t *testing.T) {
	var none, some int // scripts whose second discovery built no set, and some
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, n, distinct := 3+rng.Intn(3), 16+rng.Intn(33), 2+rng.Intn(4)
		mutations := 4 + rng.Intn(13)
		rel := fixedWidthRel(m, n, seed, distinct)
		if seed%2 == 0 {
			rows := make([]relation.Row, n)
			for i := range rows {
				rows[i] = append(relation.Row(nil), rel.Row(i)...)
				rows[i][1] = rows[i][0]
			}
			rel = relation.MustFromRows(rel.Schema(), rows)
		}
		rounds := store.WithRoundCounter(store.NewServer())
		eng, _ := openFor[*ExEngine](t, rounds, ProtocolDynamicORAM, rel, opts{headroom: mutations})
		if _, err := Discover(eng, m, &Options{KeepPartitions: true}); err != nil {
			t.Fatal(err)
		}
		var appended []relation.Row
		deleted := make(map[int]bool)
		for range mutations {
			if id := rng.Intn(n + len(appended)); rng.Intn(2) == 0 && !deleted[id] {
				if err := eng.Delete(id); err != nil {
					t.Fatalf("seed %d: Delete(%d): %v", seed, id, err)
				}
				deleted[id] = true
				continue
			}
			row := make(relation.Row, m)
			for j := range row {
				row[j] = fmt.Sprintf("%06d", rng.Intn(distinct+1))
			}
			if _, err := eng.Insert(row); err != nil {
				t.Fatalf("seed %d: Insert: %v", seed, err)
			}
			appended = append(appended, row)
		}
		built, before := len(eng.sets), rounds.Rounds()
		res, err := Discover(eng, m, &Options{KeepPartitions: true})
		if err != nil {
			t.Fatalf("seed %d: second Discover: %v", seed, err)
		}
		if want := baseline.MinimalFDs(liveRelation(rel, appended, deleted)); !relation.FDSetEqual(res.Minimal, want) {
			t.Errorf("seed %d (m %d, n %d, %d mutations): FDs = %v, want %v", seed, m, n, mutations, res.Minimal, want)
		}
		switch newSets, spent := len(eng.sets)-built, rounds.Rounds()-before; {
		case newSets == 0 && spent != 0:
			t.Errorf("seed %d: the second Discover built no set and took %d rounds", seed, spent)
		case newSets > 0 && spent == 0:
			t.Errorf("seed %d: the second Discover built %d sets in no round", seed, newSets)
		case newSets == 0:
			none++
		default:
			some++
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if none == 0 || some == 0 {
		t.Errorf("%d scripts needed no new set and %d some: the scripts no longer cover both cases", none, some)
	}
}

// allLevels is a request list per lattice level for every set of m
// attributes, a set of size ≥ 2 over the two covers that drop its first and
// its last attribute.
func allLevels(m int) [][]Request {
	levels := make([][]Request, m)
	for x := relation.AttrSet(1); x < 1<<m; x++ {
		r := Single(x.First())
		if x.Size() > 1 {
			r = Union(x.Remove(x.First()), x.Remove(x.Last()))
		}
		levels[x.Size()-1] = append(levels[x.Size()-1], r)
	}
	return levels
}

// insertRounds is the closed form of an insertion's rounds over kept sets
// whose level k has widths[k-1] of them: the row's round, then 2 rounds for
// each group of single attributes and 3 for each group above them, a group
// being at most levelWidth sets of one level. It is a function of the kept
// sets per level alone, for Or-ORAM and Ex-ORAM alike. A deletion is 3
// rounds whatever is kept.
func insertRounds(widths []int) int64 {
	r := int64(1)
	for k, w := range widths {
		groups := int64((w + levelWidth - 1) / levelWidth)
		if k == 0 {
			r += 2 * groups
		} else {
			r += 3 * groups
		}
	}
	return r
}

const deleteRounds = 3

// TestMutationRoundsClosedForm: with every set of m = 3, 4 and 6 attributes
// kept — m = 6 has a level of 20 sets, two groups — an insertion costs
// insertRounds of the levels' widths on both ORAM engines, and on Ex-ORAM a
// deletion 3 rounds and an update (a deletion, then an insertion) their sum.
func TestMutationRoundsClosedForm(t *testing.T) {
	for _, m := range []int{3, 4, 6} {
		for _, p := range rows(resumable) {
			t.Run(fmt.Sprintf("%s/m=%d", short(p), m), func(t *testing.T) {
				rel := fixedWidthRel(m, 8, int64(m), 3)
				rounds := store.WithRoundCounter(store.NewServer())
				eng, _ := openFor[inserter](t, rounds, p, rel, opts{headroom: 2})
				defer eng.Close()
				var widths []int
				for _, reqs := range allLevels(m) {
					if _, err := eng.Materialize(reqs); err != nil {
						t.Fatal(err)
					}
					widths = append(widths, len(reqs))
				}
				row := make(relation.Row, m)
				for j := range row {
					row[j] = "999999"
				}
				before := rounds.Rounds()
				if _, err := eng.Insert(row); err != nil {
					t.Fatal(err)
				}
				if got, want := rounds.Rounds()-before, insertRounds(widths); got != want {
					t.Errorf("insertion over levels %v: %d rounds, want %d", widths, got, want)
				}
				dyn, ok := eng.(DynamicEngine)
				if !ok {
					return
				}
				before = rounds.Rounds()
				if err := dyn.Delete(0); err != nil {
					t.Fatal(err)
				}
				if got := rounds.Rounds() - before; got != deleteRounds {
					t.Errorf("deletion over levels %v: %d rounds, want %d", widths, got, deleteRounds)
				}
				before = rounds.Rounds()
				if err := dyn.Delete(1); err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Insert(row); err != nil {
					t.Fatal(err)
				}
				if got, want := rounds.Rounds()-before, deleteRounds+insertRounds(widths); got != want {
					t.Errorf("update over levels %v: %d rounds, want %d", widths, got, want)
				}
			})
		}
	}
}

// TestMutationFramingDataIndependent: what a mutation's rounds hold — which
// ops go together in one call, on which objects, at which cells, with which
// lengths (roundLog) — is the same whatever the data. An insertion whose
// values are new in every set against one whose values every set has seen,
// and a deletion of a record whose keys are shared against one whose keys are
// unique, on Or-ORAM and Ex-ORAM with every set of three attributes kept. The
// trace.Shape tests cannot see which ops arrive together; this one can, so a
// mutation that fuses its sets' rounds only when none of them misses a key
// fails here.
func TestMutationFramingDataIndependent(t *testing.T) {
	// Records 0 and 1 are equal, so each of record 0's keys is shared; record
	// 2's values nothing else has, so each of its keys is unique.
	rel := fixedWidthRel(3, 12, 61, 3)
	recs := make([]relation.Row, rel.NumRows())
	for i := range recs {
		recs[i] = rel.Row(i)
	}
	recs[1], recs[2] = recs[0], relation.Row{"777777", "777778", "777779"}
	rel = relation.MustFromRows(rel.Schema(), recs)
	mutate := func(t *testing.T, p Protocol, script func(inserter)) []string {
		log := newRoundLog(store.NewServer())
		eng, _ := openFor[inserter](t, log, p, rel, opts{headroom: 1})
		defer eng.Close()
		for _, reqs := range allLevels(3) {
			if _, err := eng.Materialize(reqs); err != nil {
				t.Fatal(err)
			}
		}
		log.rounds = log.rounds[:0]
		script(eng)
		return log.rounds
	}
	insert := func(row relation.Row) func(inserter) {
		return func(eng inserter) {
			if _, err := eng.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	remove := func(id int) func(inserter) {
		return func(eng inserter) {
			if err := eng.(DynamicEngine).Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	same := func(t *testing.T, what string, a, b []string) {
		t.Helper()
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: %d rounds against %d", what, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: round %d differs:\n %.300s\n %.300s", what, i, a[i], b[i])
			}
		}
	}
	for _, p := range rows(resumable) {
		t.Run(short(p), func(t *testing.T) {
			same(t, "insertion of new keys against seen ones",
				mutate(t, p, insert(relation.Row{"888881", "888882", "888883"})), mutate(t, p, insert(recs[0])))
			if p == ProtocolDynamicORAM {
				same(t, "deletion of shared keys against unique ones", mutate(t, p, remove(0)), mutate(t, p, remove(2)))
			}
		})
	}
}
