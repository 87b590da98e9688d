package relation

import (
	"testing"
	"testing/quick"
)

func TestAttrSetBasics(t *testing.T) {
	s := NewAttrSet(0, 2, 5)
	if got := s.Size(); got != 3 {
		t.Errorf("Size = %d, want 3", got)
	}
	for _, a := range []int{0, 2, 5} {
		if !s.Has(a) {
			t.Errorf("Has(%d) = false, want true", a)
		}
	}
	for _, a := range []int{1, 3, 4, 6, 63, -1, 64} {
		if s.Has(a) {
			t.Errorf("Has(%d) = true, want false", a)
		}
	}
	if got := s.String(); got != "{0,2,5}" {
		t.Errorf("String = %q, want {0,2,5}", got)
	}
}

func TestAttrSetOps(t *testing.T) {
	a := NewAttrSet(0, 1, 2)
	b := NewAttrSet(2, 3)
	if got := a.Union(b); got != NewAttrSet(0, 1, 2, 3) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); got != NewAttrSet(2) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Minus(b); got != NewAttrSet(0, 1) {
		t.Errorf("Minus = %v", got)
	}
	if !a.Contains(NewAttrSet(0, 2)) {
		t.Error("Contains subset = false")
	}
	if a.Contains(b) {
		t.Error("Contains non-subset = true")
	}
}

func TestAttrSetFirstLast(t *testing.T) {
	s := NewAttrSet(3, 17, 41)
	if s.First() != 3 {
		t.Errorf("First = %d, want 3", s.First())
	}
	if s.Last() != 41 {
		t.Errorf("Last = %d, want 41", s.Last())
	}
	var empty AttrSet
	if empty.First() != -1 || empty.Last() != -1 {
		t.Error("empty set First/Last should be -1")
	}
}

func TestSplitCoverProperty(t *testing.T) {
	// For any set with |X| ≥ 2: X1, X2 ⊊ X, X1 ≠ X2, X1 ∪ X2 = X.
	f := func(raw uint64) bool {
		s := AttrSet(raw)
		if s.Size() < 2 {
			return true
		}
		x1, x2 := s.SplitCover()
		return x1 != x2 &&
			s.Contains(x1) && x1 != s && s.Contains(x2) && x2 != s &&
			x1.Union(x2) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSplitCoverPanicsOnSmall(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SplitCover on singleton did not panic")
		}
	}()
	NewAttrSet(4).SplitCover()
}

func TestSubsetsEnumeratesParents(t *testing.T) {
	s := NewAttrSet(1, 4, 9)
	var got []AttrSet
	s.Subsets(func(sub AttrSet) { got = append(got, sub) })
	want := []AttrSet{NewAttrSet(4, 9), NewAttrSet(1, 9), NewAttrSet(1, 4)}
	if len(got) != len(want) {
		t.Fatalf("got %d subsets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("subset %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFullSet(t *testing.T) {
	if got := FullSet(3); got != NewAttrSet(0, 1, 2) {
		t.Errorf("FullSet(3) = %v", got)
	}
	if got := FullSet(0); got != 0 {
		t.Errorf("FullSet(0) = %v, want empty", got)
	}
	if got := FullSet(64).Size(); got != 64 {
		t.Errorf("FullSet(64).Size = %d", got)
	}
}

func TestAttrsRoundTrip(t *testing.T) {
	f := func(raw uint64) bool {
		s := AttrSet(raw)
		return NewAttrSet(s.Attrs()...) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllSingletons(t *testing.T) {
	singles := AllSingletons(5)
	if len(singles) != 5 {
		t.Fatalf("len = %d, want 5", len(singles))
	}
	for i, s := range singles {
		if s.Size() != 1 || !s.Has(i) {
			t.Errorf("singleton %d = %v", i, s)
		}
	}
}
