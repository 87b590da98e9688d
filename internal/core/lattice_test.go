package core

import (
	"fmt"
	"strings"
	"testing"

	"github.com/oblivfd/oblivfd/internal/baseline"
	"github.com/oblivfd/oblivfd/internal/relation"
)

func TestDiscoverPaperExampleAllEngines(t *testing.T) {
	rel := testRelation()
	want := baseline.MinimalFDs(rel)
	for _, p := range rows(everyRow) {
		t.Run(named(p), func(t *testing.T) {
			eng, _ := openFor[Engine](t, nil, p, rel, opts{workers: 2})
			defer eng.Close()
			res, err := Discover(eng, rel.NumAttrs(), nil)
			if err != nil {
				t.Fatalf("Discover: %v", err)
			}
			if !relation.FDSetEqual(res.Minimal, want) {
				t.Errorf("Minimal = %v, want %v", res.Minimal, want)
			}
		})
	}
}

// TestDiscoverMatchesBaselineRandom is the central correctness property:
// on random relations, every engine's discovery output equals the
// independent brute-force oracle.
func TestDiscoverMatchesBaselineRandom(t *testing.T) {
	type scenario struct {
		m, n, card int
		seed       int64
	}
	scenarios := []scenario{
		{3, 12, 2, 1},
		{4, 20, 2, 2},
		{4, 16, 3, 3},
		{5, 24, 2, 4},
		{3, 6, 1, 5},   // all columns constant
		{4, 10, 26, 6}, // likely all-distinct columns (keys everywhere)
	}
	for _, sc := range scenarios {
		rel := randomRel(sc.m, sc.n, sc.card, sc.seed)
		want := baseline.MinimalFDs(rel)
		for _, p := range rows(everyRow) {
			eng, _ := openFor[Engine](t, nil, p, rel, opts{workers: 2})
			res, err := Discover(eng, rel.NumAttrs(), nil)
			if err != nil {
				t.Fatalf("%v seed %d: Discover: %v", p, sc.seed, err)
			}
			eng.Close()
			if !relation.FDSetEqual(res.Minimal, want) {
				t.Errorf("%v seed %d: Minimal = %v, want %v", p, sc.seed, res.Minimal, want)
			}
		}
	}
}

// TestDiscoverMatchesBaselineManySeedsPlain drives many more random cases
// through the (fast) plaintext engine; the lattice logic under test is
// shared by all engines.
func TestDiscoverMatchesBaselineManySeedsPlain(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		m := 3 + int(seed)%3
		n := 5 + int(seed*7)%25
		card := 1 + int(seed)%4
		rel := randomRel(m, n, card, seed)
		want := baseline.MinimalFDs(rel)
		eng := oracle(rel)
		res, err := Discover(eng, m, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !relation.FDSetEqual(res.Minimal, want) {
			t.Errorf("seed %d (m=%d n=%d card=%d): got %v, want %v", seed, m, n, card, res.Minimal, want)
		}
	}
}

// TestDiscoverStressManyShapes hammers the lattice (including key pruning
// and C⁺ reconstruction) with hundreds of random relations across attribute
// counts and cardinalities, cross-validated against the brute-force oracle.
func TestDiscoverStressManyShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test in -short mode")
	}
	seed := int64(1000)
	for m := 2; m <= 7; m++ {
		for card := 1; card <= 3; card++ {
			for rep := 0; rep < 25; rep++ {
				seed++
				n := 2 + int(seed*13)%30
				rel := randomRel(m, n, card, seed)
				want := baseline.MinimalFDs(rel)
				res, err := Discover(oracle(rel), m, nil)
				if err != nil {
					t.Fatalf("m=%d card=%d seed=%d: %v", m, card, seed, err)
				}
				if !relation.FDSetEqual(res.Minimal, want) {
					t.Fatalf("m=%d n=%d card=%d seed=%d:\ngot  %v\nwant %v",
						m, n, card, seed, res.Minimal, want)
				}
			}
		}
	}
}

func TestDiscoverRevealsOnlyAllowedLeakage(t *testing.T) {
	rel := testRelation()
	eng := oracle(rel)
	defer eng.Close()
	var revealed []string
	res, err := Discover(eng, rel.NumAttrs(), &Options{
		Reveal: func(decisions []Decision) {
			for _, d := range decisions {
				revealed = append(revealed, d.FD.String())
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every set-level decision is disclosed — and the count matches the
	// number of checks, i.e. nothing else was disclosed.
	if len(revealed) < res.Checks {
		t.Errorf("revealed %d decisions, checks %d", len(revealed), res.Checks)
	}
}

func TestDiscoverMaxLHS(t *testing.T) {
	// With MaxLHS=1 only single-attribute determinants may be searched.
	rel := randomRel(5, 30, 2, 9)
	eng := oracle(rel)
	defer eng.Close()
	res, err := Discover(eng, rel.NumAttrs(), &Options{MaxLHS: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range res.Minimal {
		if fd.LHS.Size() > 1 {
			t.Errorf("FD %v exceeds MaxLHS=1", fd)
		}
	}
	// And those it finds agree with the oracle's size-≤1 subset.
	var want []relation.FD
	for _, fd := range baseline.MinimalFDs(rel) {
		if fd.LHS.Size() <= 1 {
			want = append(want, fd)
		}
	}
	if !relation.FDSetEqual(res.Minimal, want) {
		t.Errorf("MaxLHS=1 minimal = %v, want %v", res.Minimal, want)
	}

	// Regression: a relation whose two-attribute sets are superkeys used
	// to leak |LHS|=2 FDs through the key-pruning harvest despite
	// MaxLHS=1 (found by the flight integration test).
	keyed := relation.MustFromRows(relation.MustNewSchema("a", "b", "c"), []relation.Row{
		{"1", "x", "p"}, {"1", "y", "q"}, {"2", "x", "r"}, {"2", "y", "s"},
	})
	res, err = Discover(oracle(keyed), 3, &Options{MaxLHS: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range res.Minimal {
		if fd.LHS.Size() > 1 {
			t.Errorf("superkey harvest leaked %v past MaxLHS=1", fd)
		}
	}
}

// TestDiscoverRefusesNegativeMaxLHS: a negative bound used to skip the
// superkey harvest without bounding the levels, so discovery on this
// relation returned only c → b (losing a → b and a → c, harvested from the
// key a) and no error.
func TestDiscoverRefusesNegativeMaxLHS(t *testing.T) {
	rel := relation.MustFromRows(relation.MustNewSchema("a", "b", "c"), []relation.Row{
		{"1", "x", "p"}, {"2", "x", "p"}, {"3", "y", "q"}, {"4", "y", "r"},
	})
	res, err := Discover(oracle(rel), 3, &Options{MaxLHS: 0})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := relation.SingleAttr(0), relation.SingleAttr(1), relation.SingleAttr(2)
	want := []relation.FD{{LHS: a, RHS: b}, {LHS: a, RHS: c}, {LHS: c, RHS: b}}
	if !relation.FDSetEqual(res.Minimal, want) {
		t.Fatalf("MaxLHS=0 minimal = %v, want %v", res.Minimal, want)
	}
	for _, bound := range []int{-1, -5} {
		if res, err := Discover(oracle(rel), 3, &Options{MaxLHS: bound}); err == nil || !strings.Contains(err.Error(), "MaxLHS") {
			t.Errorf("MaxLHS=%d: Discover = %v, %v; want an error naming MaxLHS", bound, res, err)
		}
	}
}

func TestDiscoverEdgeCases(t *testing.T) {
	eng := oracle(randomRel(1, 5, 2, 1))
	if _, err := Discover(eng, 0, nil); err == nil {
		t.Error("m=0 accepted")
	}
	empty := relation.New(relation.MustNewSchema("a"))
	if _, err := Discover(oracle(empty), 1, nil); err == nil {
		t.Error("empty database accepted")
	}
	// Single column, n=1: the column is a key and constant; ∅ → a holds.
	one := relation.MustFromRows(relation.MustNewSchema("a"), []relation.Row{{"x"}})
	res, err := Discover(oracle(one), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []relation.FD{{LHS: 0, RHS: relation.SingleAttr(0)}}
	if !relation.FDSetEqual(res.Minimal, want) {
		t.Errorf("single-cell minimal = %v, want %v", res.Minimal, want)
	}
}

// TestDiscoverTraversalDeterministic: two discovery runs over the same data
// must make identical set-level decisions in identical order — the access
// pattern is defined to be a function of (m, n, FD(DB)), never of map
// iteration order (a regression guard for the prefix-bucket join).
func TestDiscoverTraversalDeterministic(t *testing.T) {
	rel := randomRel(6, 40, 2, 77)
	runOnce := func() []string {
		var log []string
		_, err := Discover(oracle(rel), rel.NumAttrs(), &Options{
			Reveal: func(decisions []Decision) {
				for _, d := range decisions {
					log = append(log, fmt.Sprintf("%v=%v", d.FD, d.Holds))
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("decision counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestAggregateFDs(t *testing.T) {
	in := []relation.FD{
		{LHS: relation.NewAttrSet(0), RHS: relation.SingleAttr(1)},
		{LHS: relation.NewAttrSet(0), RHS: relation.SingleAttr(2)},
		{LHS: relation.NewAttrSet(3), RHS: relation.SingleAttr(1)},
	}
	out := AggregateFDs(in)
	want := []relation.FD{
		{LHS: relation.NewAttrSet(0), RHS: relation.NewAttrSet(1, 2)},
		{LHS: relation.NewAttrSet(3), RHS: relation.NewAttrSet(1)},
	}
	if !relation.FDSetEqual(out, want) {
		t.Errorf("AggregateFDs = %v, want %v", out, want)
	}
}

func TestValidateAgainstOracle(t *testing.T) {
	rel := randomRel(4, 18, 2, 21)
	for _, p := range rows(everyRow) {
		t.Run(named(p), func(t *testing.T) {
			eng, _ := openFor[Engine](t, nil, p, rel, opts{workers: 2})
			defer eng.Close()
			cases := []struct{ x, y relation.AttrSet }{
				{relation.NewAttrSet(0), relation.NewAttrSet(1)},
				{relation.NewAttrSet(0, 1), relation.NewAttrSet(2)},
				{relation.NewAttrSet(0, 1, 2), relation.NewAttrSet(3)},
				{relation.NewAttrSet(2), relation.NewAttrSet(0, 3)},
				{relation.NewAttrSet(1), relation.NewAttrSet(1)}, // trivial
			}
			for _, c := range cases {
				got, err := Validate(eng, c.x, c.y)
				if err != nil {
					t.Fatalf("Validate(%v,%v): %v", c.x, c.y, err)
				}
				want := baseline.Holds(rel, relation.FD{LHS: c.x, RHS: c.y})
				if got != want {
					t.Errorf("Validate(%v -> %v) = %v, want %v", c.x, c.y, got, want)
				}
			}
		})
	}
}

func TestValidateRejectsEmptySets(t *testing.T) {
	eng := oracle(testRelation())
	if _, err := Validate(eng, 0, relation.SingleAttr(1)); err == nil {
		t.Error("empty X accepted")
	}
	if _, err := Validate(eng, relation.SingleAttr(1), 0); err == nil {
		t.Error("empty Y accepted")
	}
}

// TestDiscoverReleasesServerState: without KeepPartitions the lattice frees
// levels as it ascends; by the end only the final level's state remains
// (here bounded by a small multiple of the last level's size).
func TestDiscoverReleasesServerState(t *testing.T) {
	rel := randomRel(4, 24, 2, 33)
	eng, _ := openFor[*OrEngine](t, nil, ProtocolORAM, rel, opts{})
	defer eng.Close()
	if _, err := Discover(eng, rel.NumAttrs(), nil); err != nil {
		t.Fatal(err)
	}
	if len(eng.sets) > 12 {
		t.Errorf("%d partitions still materialized after Discover; release is not working", len(eng.sets))
	}
	// With KeepPartitions everything stays.
	eng2, _ := openFor[*OrEngine](t, nil, ProtocolORAM, rel, opts{})
	defer eng2.Close()
	res, err := Discover(eng2, rel.NumAttrs(), &Options{KeepPartitions: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(eng2.sets) != res.SetsMaterialized {
		t.Errorf("KeepPartitions retained %d of %d sets", len(eng2.sets), res.SetsMaterialized)
	}
}
