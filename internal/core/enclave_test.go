package core

import (
	"testing"

	"github.com/oblivfd/oblivfd/internal/relation"
)

func TestEnclaveCardinalitiesMatchOracle(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rel := randomRel(4, 50, 3, 7)
		e, _ := openFor[*EnclaveEngine](t, nil, ProtocolEnclave, rel, opts{workers: workers})
		for a := 0; a < 4; a++ {
			got, err := CardinalitySingle(e, a)
			if err != nil {
				t.Fatalf("workers=%d CardinalitySingle(%d): %v", workers, a, err)
			}
			want := relation.PartitionOf(rel, relation.SingleAttr(a)).Classes
			if got != want {
				t.Errorf("workers=%d |π_%d| = %d, want %d", workers, a, got, want)
			}
		}
		for a := 0; a < 4; a++ {
			for b := a + 1; b < 4; b++ {
				got, err := CardinalityUnion(e, relation.SingleAttr(a), relation.SingleAttr(b))
				if err != nil {
					t.Fatal(err)
				}
				want := relation.PartitionOf(rel, relation.NewAttrSet(a, b)).Classes
				if got != want {
					t.Errorf("workers=%d |π_{%d,%d}| = %d, want %d", workers, a, b, got, want)
				}
			}
		}
		if e.SecureMemoryBytes() <= rel.ByteSize() {
			t.Error("SecureMemoryBytes does not count the materialized labels")
		}
	}
}

func TestEnclaveTripleUnion(t *testing.T) {
	rel := randomRel(3, 40, 2, 3)
	e, _ := openFor[*EnclaveEngine](t, nil, ProtocolEnclave, rel, opts{workers: 2})
	for a := 0; a < 3; a++ {
		if _, err := CardinalitySingle(e, a); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := CardinalityUnion(e, relation.SingleAttr(0), relation.SingleAttr(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := CardinalityUnion(e, relation.SingleAttr(1), relation.SingleAttr(2)); err != nil {
		t.Fatal(err)
	}
	got, err := CardinalityUnion(e, relation.NewAttrSet(0, 1), relation.NewAttrSet(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	want := relation.PartitionOf(rel, relation.NewAttrSet(0, 1, 2)).Classes
	if got != want {
		t.Errorf("|π_{0,1,2}| = %d, want %d", got, want)
	}
	// Like SortEngine, the enclave sorts a set back by id when a union first
	// reads it and not before: the top set was read by nothing.
	for x, st := range e.sets {
		if cover := x.Size() < 3; (st.labels != nil) != cover || (st.recs == nil) != cover {
			t.Errorf("set %v: labels present = %v, labelled records dropped = %v; want both %v",
				x, st.labels != nil, st.recs == nil, cover)
		}
	}
}

func TestEnclaveIsolatedFromCallerMutation(t *testing.T) {
	rel := randomRel(2, 10, 2, 2)
	e, _ := openFor[*EnclaveEngine](t, nil, ProtocolEnclave, rel, opts{workers: 1})
	before, err := CardinalitySingle(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	rel.Row(0)[0] = "mutated-to-something-unique"
	if err := e.Release(relation.SingleAttr(0)); err != nil {
		t.Fatal(err)
	}
	after, err := CardinalitySingle(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Error("engine shares storage with the caller's relation")
	}
}

func TestHashValueDistinguishesValues(t *testing.T) {
	// The FNV mapping must separate values that concatenate equally.
	if hashValue("ab") == hashValue("a") {
		t.Error("hash collides on prefix")
	}
	if hashValue("") == hashValue("\x00") {
		t.Error("hash collides on empty vs NUL")
	}
	if hashValue("x") != hashValue("x") {
		t.Error("hash not deterministic")
	}
}
