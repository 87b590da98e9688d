package core

import (
	"errors"
	"fmt"
	"math/rand"
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
	if err := eng.Delete(99); !errors.Is(err, ErrUnknownID) {
		t.Errorf("unknown id err = %v", err)
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
