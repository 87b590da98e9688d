package core

import (
	"errors"
	"reflect"
	"testing"

	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
)

func testRelation() *relation.Relation {
	schema := relation.MustNewSchema("Name", "City", "Birth")
	return relation.MustFromRows(schema, []relation.Row{
		{"Alice", "Boston", "Jan"},
		{"Bob", "Boston", "May"},
		{"Bob", "Boston", "Jan"},
		{"Carol", "New York", "Sep"},
	})
}

// TestEngineCardinalitiesMatchOracle runs every engine over several
// relations and compares every single and pairwise-union cardinality with
// the plaintext partition oracle.
func TestEngineCardinalitiesMatchOracle(t *testing.T) {
	rels := map[string]*relation.Relation{
		"paper":      testRelation(),
		"random":     randomRel(4, 24, 3, 11),
		"all-equal":  randomRel(3, 10, 1, 1),
		"distinct":   randomRel(3, 8, 26, 2),
		"single-row": randomRel(4, 1, 3, 3),
	}
	for _, p := range rows(everyRow) {
		for relName, rel := range rels {
			t.Run(named(p)+"/"+relName, func(t *testing.T) {
				eng, _ := openFor[Engine](t, nil, p, rel, opts{workers: 2})
				defer eng.Close()
				m := rel.NumAttrs()
				if eng.NumRows() != rel.NumRows() {
					t.Fatalf("NumRows = %d, want %d", eng.NumRows(), rel.NumRows())
				}
				for a := 0; a < m; a++ {
					got, err := CardinalitySingle(eng, a)
					if err != nil {
						t.Fatalf("CardinalitySingle(%d): %v", a, err)
					}
					want := relation.PartitionOf(rel, relation.SingleAttr(a)).Classes
					if got != want {
						t.Errorf("|π_{%d}| = %d, want %d", a, got, want)
					}
				}
				for a := 0; a < m; a++ {
					for b := a + 1; b < m; b++ {
						x1, x2 := relation.SingleAttr(a), relation.SingleAttr(b)
						got, err := CardinalityUnion(eng, x1, x2)
						if err != nil {
							t.Fatalf("CardinalityUnion(%d,%d): %v", a, b, err)
						}
						want := relation.PartitionOf(rel, x1.Union(x2)).Classes
						if got != want {
							t.Errorf("|π_{%d,%d}| = %d, want %d", a, b, got, want)
						}
					}
				}
			})
		}
	}
}

// TestEngineTripleUnions exercises |X| = 3 via Property 1 covers.
func TestEngineTripleUnions(t *testing.T) {
	rel := randomRel(4, 20, 2, 5)
	for _, p := range rows(everyRow) {
		t.Run(named(p), func(t *testing.T) {
			eng, _ := openFor[Engine](t, nil, p, rel, opts{workers: 2})
			defer eng.Close()
			for a := 0; a < 3; a++ {
				if _, err := CardinalitySingle(eng, a); err != nil {
					t.Fatal(err)
				}
			}
			ab, err := CardinalityUnion(eng, relation.SingleAttr(0), relation.SingleAttr(1))
			if err != nil {
				t.Fatal(err)
			}
			_ = ab
			if _, err := CardinalityUnion(eng, relation.SingleAttr(1), relation.SingleAttr(2)); err != nil {
				t.Fatal(err)
			}
			got, err := CardinalityUnion(eng, relation.NewAttrSet(0, 1), relation.NewAttrSet(1, 2))
			if err != nil {
				t.Fatalf("triple union: %v", err)
			}
			want := relation.PartitionOf(rel, relation.NewAttrSet(0, 1, 2)).Classes
			if got != want {
				t.Errorf("|π_{0,1,2}| = %d, want %d", got, want)
			}
		})
	}
}

func TestEngineUnionValidation(t *testing.T) {
	rel := testRelation()
	for _, p := range rows(everyRow) {
		t.Run(named(p), func(t *testing.T) {
			eng, _ := openFor[Engine](t, nil, p, rel, opts{workers: 2})
			defer eng.Close()
			if _, err := CardinalitySingle(eng, 0); err != nil {
				t.Fatal(err)
			}
			// Same set twice.
			if _, err := CardinalityUnion(eng, relation.SingleAttr(0), relation.SingleAttr(0)); !errors.Is(err, ErrBadUnion) {
				t.Errorf("identical subsets err = %v", err)
			}
			// Empty subset.
			if _, err := CardinalityUnion(eng, 0, relation.SingleAttr(0)); !errors.Is(err, ErrBadUnion) {
				t.Errorf("empty subset err = %v", err)
			}
			// Non-proper subset (x1 ⊇ x1 ∪ x2).
			if _, err := CardinalityUnion(eng, relation.NewAttrSet(0, 1), relation.SingleAttr(1)); !errors.Is(err, ErrBadUnion) {
				t.Errorf("non-proper subset err = %v", err)
			}
			// Unmaterialized input.
			if _, err := CardinalityUnion(eng, relation.SingleAttr(1), relation.SingleAttr(2)); !errors.Is(err, ErrNotMaterialized) {
				t.Errorf("unmaterialized err = %v", err)
			}
		})
	}
}

func TestEngineCachingAndRelease(t *testing.T) {
	rel := testRelation()
	for _, p := range rows(everyRow) {
		t.Run(named(p), func(t *testing.T) {
			eng, _ := openFor[Engine](t, nil, p, rel, opts{workers: 2})
			defer eng.Close()
			if _, ok := eng.Cardinality(relation.SingleAttr(0)); ok {
				t.Error("Cardinality reported before materialization")
			}
			c1, err := CardinalitySingle(eng, 0)
			if err != nil {
				t.Fatal(err)
			}
			if c, ok := eng.Cardinality(relation.SingleAttr(0)); !ok || c != c1 {
				t.Errorf("cached Cardinality = %d,%v; want %d,true", c, ok, c1)
			}
			// Second call must hit the cache (same value, no error).
			c2, err := CardinalitySingle(eng, 0)
			if err != nil || c2 != c1 {
				t.Errorf("re-materialization = %d, %v", c2, err)
			}
			if err := eng.Release(relation.SingleAttr(0)); err != nil {
				t.Fatalf("Release: %v", err)
			}
			if _, ok := eng.Cardinality(relation.SingleAttr(0)); ok {
				t.Error("Cardinality survives Release")
			}
			if err := eng.Release(relation.SingleAttr(0)); !errors.Is(err, ErrNotMaterialized) {
				t.Errorf("double Release err = %v", err)
			}
		})
	}
}

// TestEngineContract holds every engine to what the table promises the
// lattice, whatever a partition is made of: a cached set is answered without
// touching the server, a bad cover is ErrBadUnion, a cover or a released set
// that is not there is ErrNotMaterialized, and Close leaves nothing behind.
func TestEngineContract(t *testing.T) {
	rel := testRelation()
	a, b, c := relation.SingleAttr(0), relation.SingleAttr(1), relation.SingleAttr(2)
	ab := a.Union(b)
	for _, p := range rows(everyRow) {
		t.Run(named(p), func(t *testing.T) {
			srv := store.NewServer()
			eng, _ := openFor[Engine](t, srv, p, rel, opts{})
			base, _ := srv.Stats()
			reqs := []Request{Single(0), Single(1), Union(a, b)}
			first, err := eng.Materialize(reqs)
			if err != nil {
				t.Fatal(err)
			}

			srv.Trace().Reset()
			srv.Trace().Enable()
			again, err := eng.Materialize(reqs)
			if err != nil || !reflect.DeepEqual(again, first) {
				t.Errorf("cached sets requested again = %v, %v; want %v", again, err, first)
			}
			if n := len(srv.Trace().Events()); n != 0 {
				t.Errorf("answering cached sets cost %d server operations", n)
			}

			for what, r := range map[string]Request{
				"identical subsets":  Union(a, a),
				"empty subset":       Union(0, a),
				"improper subset":    Union(ab, b),
				"cover of another":   {Set: ab.Union(c), Cover: [2]relation.AttrSet{a, b}},
				"pair without cover": {Set: ab},
				"empty set":          {},
			} {
				if _, err := eng.Materialize([]Request{r}); !errors.Is(err, ErrBadUnion) {
					t.Errorf("%s: err = %v, want ErrBadUnion", what, err)
				}
			}
			if _, err := CardinalityUnion(eng, b, c); !errors.Is(err, ErrNotMaterialized) {
				t.Errorf("unmaterialized cover: err = %v, want ErrNotMaterialized", err)
			}
			if err := eng.Release(c); !errors.Is(err, ErrNotMaterialized) {
				t.Errorf("Release of an unknown set: err = %v, want ErrNotMaterialized", err)
			}

			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			for _, x := range []relation.AttrSet{a, b, ab} {
				if _, ok := eng.Cardinality(x); ok {
					t.Errorf("π_%v survives Close", x)
				}
			}
			if end, _ := srv.Stats(); end.Objects != base.Objects {
				t.Errorf("%d server objects survive Close", end.Objects-base.Objects)
			}
		})
	}
}

func TestEngineCloseFreesServerStorage(t *testing.T) {
	// failAt 0 is the clean run; 4 fails the materialization's 4th storage
	// call, its last, after the ORAM tree and the label array were set up
	// (one batch), the column was fetched (one) and the chunk's four paths
	// were fetched and taken in (one): the 4th carries their write-backs with
	// the chunk's label cells.
	for _, failAt := range []int{0, 4} {
		rel := testRelation()
		srv := store.NewServer()
		svc := newFailNth(srv, func(*store.Op) bool { return true })
		eng, _ := openFor[Engine](t, svc, ProtocolORAM, rel, opts{})
		base, _ := srv.Stats()
		svc.arm(failAt)
		_, err := CardinalitySingle(eng, 0)
		if failAt == 0 && err != nil {
			t.Fatal(err)
		}
		if failAt != 0 && !errors.Is(err, errInjected) {
			t.Fatalf("failAt %d: CardinalitySingle = %v, want the injected failure", failAt, err)
		}
		mid, _ := srv.Stats()
		if failAt == 0 && mid.StoredBytes <= base.StoredBytes {
			t.Error("materialization did not grow server storage")
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		end, _ := srv.Stats()
		if end.Objects != base.Objects || end.StoredBytes != base.StoredBytes {
			t.Errorf("failAt %d: Close did not restore storage: %+v vs %+v", failAt, end, base)
		}
	}
}

func TestClientMemoryShapes(t *testing.T) {
	// Fig. 5's qualitative claim: Sort's client memory is O(1); ORAM
	// methods grow with n — Ex-ORAM with a position per record, Or-ORAM,
	// whose record-indexed labels sit in an array on the server, with the
	// distinct keys, which grow with n here — and so does the deterministic
	// comparator, which keeps a label per record.
	small := randomRel(2, 16, 16, 1)
	big := randomRel(2, 256, 256, 1)

	mem := func(p Protocol, rel *relation.Relation) int {
		eng, _ := openFor[Engine](t, nil, p, rel, opts{workers: 2})
		defer eng.Close()
		if _, err := CardinalitySingle(eng, 0); err != nil {
			t.Fatal(err)
		}
		return eng.ClientMemoryBytes()
	}
	for _, p := range rows(func(p Protocol) bool { return p != ProtocolPlaintext }) { // the baseline holds the relation: no protocol memory
		sm, bm := mem(p, small), mem(p, big)
		switch p {
		case ProtocolSort, ProtocolEnclave: // the enclave's client holds nothing
			if sm != bm {
				t.Errorf("%v client memory grew with n: %d -> %d", p, sm, bm)
			}
		default:
			if bm <= sm {
				t.Errorf("%v client memory did not grow with n: %d -> %d", p, sm, bm)
			}
		}
	}
}

// randomRel builds a reproducible random relation for engine tests.
func randomRel(m, n, cardinality int, seed int64) *relation.Relation {
	names := make([]string, m)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	rel := relation.New(relation.MustNewSchema(names...))
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	for i := 0; i < n; i++ {
		row := make(relation.Row, m)
		for j := range row {
			row[j] = string(rune('a' + int(next())%cardinality))
		}
		if err := rel.Append(row); err != nil {
			panic(err)
		}
	}
	return rel
}
