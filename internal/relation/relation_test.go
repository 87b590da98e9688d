package relation

import (
	"testing"
	"testing/quick"
)

// paperExample is the relation from Fig. 1 of the paper.
func paperExample() *Relation {
	schema := MustNewSchema("Name", "City", "Birth")
	return MustFromRows(schema, []Row{
		{"Alice", "Boston", "Jan"},
		{"Bob", "Boston", "May"},
		{"Bob", "Boston", "Jan"},
		{"Carol", "New York", "Sep"},
	})
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := NewSchema("a", "a"); err == nil {
		t.Error("duplicate names accepted")
	}
	if _, err := NewSchema("a", ""); err == nil {
		t.Error("empty name accepted")
	}
	names := make([]string, MaxAttrs+1)
	for i := range names {
		names[i] = string(rune('A'+i%26)) + string(rune('0'+i/26))
	}
	if _, err := NewSchema(names...); err == nil {
		t.Error("oversized schema accepted")
	}
}

func TestSchemaLookup(t *testing.T) {
	s := MustNewSchema("Name", "City")
	if i, ok := s.Index("City"); !ok || i != 1 {
		t.Errorf("Index(City) = %d,%v", i, ok)
	}
	if _, ok := s.Index("Nope"); ok {
		t.Error("Index on unknown name succeeded")
	}
	set, err := s.Set("Name", "City")
	if err != nil || set != NewAttrSet(0, 1) {
		t.Errorf("Set = %v, %v", set, err)
	}
	if _, err := s.Set("Nope"); err == nil {
		t.Error("Set on unknown name succeeded")
	}
}

func TestAppendValidatesWidth(t *testing.T) {
	r := New(MustNewSchema("a", "b"))
	if err := r.Append(Row{"1"}); err == nil {
		t.Error("short row accepted")
	}
	if err := r.Append(Row{"1", "2"}); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	if r.NumRows() != 1 {
		t.Errorf("NumRows = %d", r.NumRows())
	}
}

func TestProjectKeyUnambiguous(t *testing.T) {
	schema := MustNewSchema("a", "b")
	r := MustFromRows(schema, []Row{{"ab", "c"}, {"a", "bc"}})
	x := NewAttrSet(0, 1)
	if r.ProjectKey(0, x) == r.ProjectKey(1, x) {
		t.Error(`ProjectKey collides on ("ab","c") vs ("a","bc")`)
	}
}

func TestPaperExamplePartitions(t *testing.T) {
	r := paperExample()
	name := NewAttrSet(0)
	nameCity := NewAttrSet(0, 1)
	nameBirth := NewAttrSet(0, 2)

	pn := PartitionOf(r, name)
	if pn.Classes != 3 {
		t.Errorf("|π_Name| = %d, want 3", pn.Classes)
	}
	if got := PartitionOf(r, nameCity).Classes; got != 3 {
		t.Errorf("|π_{Name,City}| = %d, want 3", got)
	}
	if got := PartitionOf(r, nameBirth).Classes; got != 4 {
		t.Errorf("|π_{Name,Birth}| = %d, want 4", got)
	}
}

func TestPaperExampleFDs(t *testing.T) {
	r := paperExample()
	nameToCity := FD{LHS: NewAttrSet(0), RHS: NewAttrSet(1)}
	nameToBirth := FD{LHS: NewAttrSet(0), RHS: NewAttrSet(2)}
	if !nameToCity.Holds(r) {
		t.Error("Name -> City should hold (paper Fig. 1)")
	}
	if nameToBirth.Holds(r) {
		t.Error("Name -> Birth should not hold (paper Fig. 1)")
	}
}

// TestTheorem1Property checks Theorem 1: A→B iff |π_A| == |π_{A∪B}|,
// against the direct pairwise definition, on random small relations.
func TestTheorem1Property(t *testing.T) {
	f := func(seed uint8, aRaw, bRaw uint8) bool {
		r := randomRelation(int(seed)%7+2, int(seed)%29+1, 3, int64(seed))
		m := r.NumAttrs()
		a := AttrSet(aRaw) & FullSet(m)
		b := AttrSet(bRaw) & FullSet(m)
		if a.IsEmpty() || b.IsEmpty() {
			return true
		}
		fd := FD{LHS: a, RHS: b}
		viaTheorem := PartitionOf(r, a).Classes == PartitionOf(r, a.Union(b)).Classes
		return fd.Holds(r) == viaTheorem
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := paperExample()
	c := r.Clone()
	c.Row(0)[0] = "Mallory"
	if r.Value(0, 0) != "Alice" {
		t.Error("Clone shares row storage with original")
	}
}

func TestSampleAndByteSize(t *testing.T) {
	r := paperExample()
	want := 0
	for i := 0; i < r.NumRows(); i++ {
		for j := 0; j < r.NumAttrs(); j++ {
			want += len(r.Value(i, j))
		}
	}
	if got := r.ByteSize(); got != want {
		t.Errorf("ByteSize = %d, want %d", got, want)
	}
}

func TestFDSetEqual(t *testing.T) {
	a := []FD{{LHS: 1, RHS: 2}, {LHS: 3, RHS: 4}}
	b := []FD{{LHS: 3, RHS: 4}, {LHS: 1, RHS: 2}, {LHS: 1, RHS: 2}}
	if !FDSetEqual(a, b) {
		t.Error("equal sets reported unequal")
	}
	c := []FD{{LHS: 1, RHS: 2}}
	if FDSetEqual(a, c) {
		t.Error("unequal sets reported equal")
	}
}

func TestSortFDsDeterministic(t *testing.T) {
	fds := []FD{{LHS: 3, RHS: 1}, {LHS: 1, RHS: 2}, {LHS: 1, RHS: 1}}
	SortFDs(fds)
	want := []FD{{LHS: 1, RHS: 1}, {LHS: 1, RHS: 2}, {LHS: 3, RHS: 1}}
	for i := range want {
		if fds[i] != want[i] {
			t.Errorf("fds[%d] = %v, want %v", i, fds[i], want[i])
		}
	}
}

// randomRelation builds a small random relation for property tests. Values
// are drawn from a small alphabet so FDs and collisions actually occur.
func randomRelation(m, n, cardinality int, seed int64) *Relation {
	names := make([]string, m)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	r := New(MustNewSchema(names...))
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	for i := 0; i < n; i++ {
		row := make(Row, m)
		for j := range row {
			row[j] = string(rune('a' + int(next())%cardinality))
		}
		if err := r.Append(row); err != nil {
			panic(err)
		}
	}
	return r
}
