package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
)

// newDynamicEx uploads rel with insert headroom and returns an ExEngine.
func newDynamicEx(t *testing.T, rel *relation.Relation, capacity int) *ExEngine {
	t.Helper()
	srv := store.NewServer()
	edb, err := UploadWithCapacity(srv, crypto.MustNewCipher(crypto.MustNewKey()), "dyn", rel, capacity)
	if err != nil {
		t.Fatalf("UploadWithCapacity: %v", err)
	}
	eng, err := NewExEngine(edb)
	if err != nil {
		t.Fatalf("NewExEngine: %v", err)
	}
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
	srv := store.NewServer()
	edb, err := UploadWithCapacity(srv, crypto.MustNewCipher(crypto.MustNewKey()), "or", rel, 12)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewOrEngine(edb)
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
	eng := NewPlainEngine(rel)
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

	type inserter interface {
		Engine
		Insert(relation.Row) (int, error)
		CheckpointState() *EngineState
	}
	for _, e := range oramEngines {
		t.Run(e.name, func(t *testing.T) {
			srv := store.NewServer()
			svc := newFailNth(srv, func(op *store.Op) bool {
				return op.Kind == store.KindBatch && op.Ops[0].Kind() == store.KindReadPath
			})
			edb, err := UploadWithCapacity(svc, crypto.MustNewCipher(crypto.MustNewKey()), "t", rel, 10)
			if err != nil {
				t.Fatal(err)
			}
			made, _ := e.make(t, edb)
			eng := made.(inserter)
			if _, err := eng.Materialize([]Request{Single(0), Single(1)}, 1); err != nil {
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
			es := eng.CheckpointState()
			if want := []int{6}; !reflect.DeepEqual(es.Dead, want) {
				t.Errorf("checkpointed dead ids %v, want %v", es.Dead, want)
			}
			resumed, err := ResumeEngine(edb, es)
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

// TestRefusedDeleteOwesNothing: a deletion whose second access is refused —
// O^KLF lost a write-back in an earlier deletion — leaves no write-back owed.
// The first access's, to O^IKL, is flushed before the error surfaces; when it
// was not, it rode into the next operation's first round, and O^IKL answered
// "access … while another is in flight" until then.
func TestRefusedDeleteOwesNothing(t *testing.T) {
	rel := fixedWidthRel(2, 8, 31, 3)
	srv := store.NewServer()
	klfOnly := func(op *store.Op) bool {
		if op.Kind != store.KindBatch || len(op.Ops) == 0 {
			return false
		}
		for _, b := range op.Ops {
			if b.Kind() != store.KindWritePath || !strings.HasSuffix(b.Name, ":KLF") {
				return false
			}
		}
		return true
	}
	fail := newFailNth(srv, klfOnly)
	rounds := store.WithRoundCounter(fail)
	edb, err := UploadWithCapacity(rounds, crypto.MustNewCipher(crypto.MustNewKey()), "t", rel, 8)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewExEngine(edb)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	materializeAll(t, eng, 2)

	fail.arm(1) // the first set's O^KLF write-back in Delete(0)
	if err := eng.Delete(0); !errors.Is(err, errInjected) {
		t.Fatalf("Delete(0) with its O^KLF write-back lost: %v", err)
	}
	err = eng.Delete(1)
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
