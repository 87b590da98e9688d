package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/oblivfd/oblivfd/internal/baseline"
	"github.com/oblivfd/oblivfd/internal/relation"
)

// plaintextCards stands in for an engine's Cardinality: every set of rel is
// held, at its plaintext cardinality.
func plaintextCards(rel *relation.Relation) func(relation.AttrSet) (int, bool) {
	return func(x relation.AttrSet) (int, bool) { return relation.PartitionOf(rel, x).Classes, true }
}

// renderLatticeState writes a checkpointed state as golden lines: the plan
// resumePlan replays from it over rel. C⁺ and the cardinalities are tables
// whose order carries no meaning, so they are sorted by set; every other list
// keeps the order the traversal gave it.
func renderLatticeState(t *testing.T, run string, ls *LatticeState, rel *relation.Relation) []string {
	t.Helper()
	p, err := resumePlan(ls, rel.NumAttrs(), rel.NumRows(), plaintextCards(rel))
	if err != nil {
		t.Fatalf("%s: replaying the checkpoint at level %d: %v", run, ls.NextLevel, err)
	}
	head := fmt.Sprintf("%s next=%d", run, p.nextLevel)
	var cp, cd, mn []string
	for _, x := range sortedSets(p.cplus) {
		cp = append(cp, fmt.Sprintf("%v:%v", x, p.cplus[x]))
	}
	for _, x := range sortedSets(p.cards) {
		cd = append(cd, fmt.Sprintf("%v=%d", x, p.cards[x]))
	}
	for _, fd := range p.minimal {
		mn = append(mn, fd.String())
	}
	return []string{
		fmt.Sprintf("%s m=%d maxlhs=%d keep=%t sets=%d checks=%d", head, p.m, p.maxLHS, p.keep, p.sets, p.checks),
		fmt.Sprintf("%s level %v", head, p.level),
		fmt.Sprintf("%s cplus %s", head, strings.Join(cp, " ")),
		fmt.Sprintf("%s minimal %s", head, strings.Join(mn, ", ")),
		fmt.Sprintf("%s cards %s", head, strings.Join(cd, " ")),
	}
}

// sortedSets returns the sets a table is keyed by, in order.
func sortedSets[V any](table map[relation.AttrSet]V) []relation.AttrSet {
	sets := make([]relation.AttrSet, 0, len(table))
	for x := range table {
		sets = append(sets, x)
	}
	slices.Sort(sets)
	return sets
}

// TestLatticeStateGolden pins what a checkpoint holds, not only how it is
// framed: the plain engine's checkpointed states on two relations, each run
// once with MaxLHS = 2 and once keeping partitions, rendered by
// renderLatticeState from the plan each replays to.
// testdata/lattice-state-golden.txt was written by the loop Discover ran
// before the traversal became a plan and an executor, from the states it
// stored in full.
func TestLatticeStateGolden(t *testing.T) {
	rels := []struct {
		name string
		rel  *relation.Relation
	}{
		{"ckpt", ckptRelation(t)},
		{"rand5", randomRel(5, 24, 2, 4)},
	}
	var lines []string
	for _, r := range rels {
		for _, o := range []struct {
			name string
			opts Options
		}{
			{"maxlhs2", Options{MaxLHS: 2}},
			{"keep", Options{KeepPartitions: true}},
		} {
			rel := r.rel
			run := r.name + "/" + o.name
			opts := o.opts
			opts.Checkpoint = func(ls *LatticeState) error {
				lines = append(lines, renderLatticeState(t, run, ls, rel)...)
				return nil
			}
			if _, err := Discover(oracle(rel), rel.NumAttrs(), &opts); err != nil {
				t.Fatalf("%s: %v", run, err)
			}
		}
	}
	compareGolden(t, "lattice-state-golden.txt", lines)
}

// discoveryLog is what a discovery did: each Materialize call's requests and
// each Release in order, each level's reveal, each checkpointed state
// (rendered) and the Result.
type discoveryLog struct {
	calls   []string
	reveals [][]Decision
	states  []string
	res     *Result
}

// engineLog records a discovery's Materialize and Release calls into log.
type engineLog struct {
	Engine
	log *discoveryLog
}

func (e engineLog) Materialize(reqs []Request) ([]int, error) {
	e.log.calls = append(e.log.calls, fmt.Sprint("materialize ", reqs))
	return e.Engine.Materialize(reqs)
}

func (e engineLog) Release(x relation.AttrSet) error {
	e.log.calls = append(e.log.calls, fmt.Sprint("release ", x))
	return e.Engine.Release(x)
}

// replayPlan runs the plan alone, handing it cardinalities counted from the
// plaintext relation, and logs what it asks for as Discover would carry it
// out.
func replayPlan(t *testing.T, rel *relation.Relation, maxLHS int, keep bool) *discoveryLog {
	var log discoveryLog
	p := newPlan(rel.NumAttrs(), rel.NumRows(), maxLHS, keep)
	releases := func(sets []relation.AttrSet) {
		for _, x := range sets {
			log.calls = append(log.calls, fmt.Sprint("release ", x))
		}
	}
	for !p.done() {
		s := p.check()
		releases(s.before)
		if len(s.decided) > 0 {
			log.reveals = append(log.reveals, s.decided)
		}
		if len(s.reqs) > 0 {
			log.calls = append(log.calls, fmt.Sprint("materialize ", s.reqs))
			cards := make([]int, len(s.reqs))
			for i, r := range s.reqs {
				cards[i] = relation.PartitionOf(rel, r.Set).Classes
			}
			p.record(cards)
		}
		releases(s.after)
		if !p.done() {
			log.states = append(log.states, renderLatticeState(t, "", p.state(), rel)...)
		}
	}
	log.res = p.result()
	return &log
}

// TestPlanReplaysEveryEngine: the plan alone, replayed on cardinalities
// counted from the plaintext relation, asks for exactly what a real
// discovery asks of each engine, at one worker and at four — the same
// Materialize requests and Release
// calls in the same order, the same reveals and checkpoints — and comes to
// the same Result, on random relations of up to six attributes, with and
// without MaxLHS, keeping partitions or not. Keeping none, the engine holds
// exactly the state's level at every checkpoint and nothing the run built
// once Discover returns.
func TestPlanReplaysEveryEngine(t *testing.T) {
	rels := []struct{ m, n, card int }{{3, 9, 2}, {4, 12, 3}, {5, 10, 2}, {5, 20, 4}, {6, 12, 2}, {6, 8, 3}, {6, 16, 3}}
	for i, r := range rels {
		rel := randomRel(r.m, r.n, r.card, int64(100+i))
		for _, maxLHS := range []int{0, 2} {
			for _, keep := range []bool{false, true} {
				want := replayPlan(t, rel, maxLHS, keep)
				if oracle := baseline.MinimalFDs(rel); maxLHS == 0 && !relation.FDSetEqual(want.res.Minimal, oracle) {
					t.Errorf("m=%d seed %d: the plan alone finds %v, the oracle %v", r.m, 100+i, want.res.Minimal, oracle)
				}
				for _, p := range rows(everyRow) {
					for _, workers := range []int{1, 4} {
						name := fmt.Sprintf("m=%d/seed=%d/maxlhs=%d/keep=%t/%v/w=%d", r.m, 100+i, maxLHS, keep, p, workers)
						got := &discoveryLog{}
						eng, _ := openFor[Engine](t, nil, p, rel, opts{workers: workers})
						res, err := Discover(engineLog{eng, got}, r.m, &Options{
							MaxLHS:         maxLHS,
							KeepPartitions: keep,
							Reveal:         func(d []Decision) { got.reveals = append(got.reveals, d) },
							Checkpoint: func(ls *LatticeState) error {
								got.states = append(got.states, renderLatticeState(t, "", ls, rel)...)
								if !keep {
									p, err := resumePlan(ls, r.m, r.n, plaintextCards(rel))
									if err != nil {
										t.Fatal(err)
									}
									for _, c := range ls.Cardinalities {
										if _, held := eng.Cardinality(c.Set); held != slices.Contains(p.level, c.Set) {
											t.Errorf("%s: checkpoint before level %d: %v is held: %t, in the level: %t",
												name, ls.NextLevel, c.Set, held, !held)
										}
									}
								}
								return nil
							},
						})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						for x := range res.Cardinalities {
							if _, held := eng.Cardinality(x); held && !keep {
								t.Errorf("%s: %v is still held after Discover", name, x)
							}
						}
						if err := eng.Close(); err != nil {
							t.Fatalf("%s: Close: %v", name, err)
						}
						got.res = res
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s: the discovery and the plan's replay differ\n got  %v\n want %v", name, got, want)
						}
					}
				}
			}
		}
	}
}
