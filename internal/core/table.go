package core

import (
	"errors"
	"fmt"

	"github.com/oblivfd/oblivfd/internal/relation"
)

// This file is the attribute-level scaffold every engine shares. Algorithms
// 1/2, 3 and 4 of the paper are one procedure with three bodies: look π_X up,
// otherwise materialize it from a column (|X| = 1) or from the two Property 1
// covers (|X| ≥ 2), cache |π_X|, and free it on Release. The table owns that
// procedure and the map of materialized sets; an engine supplies the bodies
// (fills) and its per-set state type.

// setState is what the table reads from an engine's per-set state.
type setState interface{ cardinality() int }

// target is one set a fill is to build: its prepared state and, for |X| ≥ 2,
// the committed states of its two covers.
type target[S setState] struct {
	set   relation.AttrSet
	st    S
	cover [2]S // zero for a single attribute
}

// fills is the part of materializing π_X that differs between engines.
type fills[S setState] interface {
	// prepare runs serially, in request order, and only for a set that is
	// going to be built — one neither cached nor requested earlier in the
	// same batch. Everything the server sees of the new structure's identity
	// is decided here (an array name, the names of a pair of ORAM trees), so
	// names and set-up order are the same under every worker count.
	prepare(x relation.AttrSet, cover [2]relation.AttrSet) (S, error)
	// fill does the work proportional to n for a group of prepared sets: as
	// many as the engine's grouping allows, all of one |X|, in request order,
	// every cover committed. Where the grouping lets fills run side by side, a
	// fill may run concurrently with fills whose targets and covers are all
	// different from its own — its covers' states are its own to write for as
	// long as it runs (the sort engine puts a cover in r[ID] order there) —
	// and must not write engine-wide state.
	fill(group []target[S]) error
	// destroy frees what prepare and a fill — complete, partial or failed —
	// left on the server.
	destroy(st S) error
}

// group is the targets of one fill and the request each one answers.
type group[S setState] struct {
	targets []target[S]
	reqs    []int
}

// grouping is how an engine lets the table hand it the sets of one call.
type grouping struct {
	width   int // the most targets one fill takes
	workers int // the most fills of disjoint groups run at the same time; ≤ 1 is serial
}

var oneSetAtATime = grouping{width: 1}

// fillEach is fill for an engine that builds a set at a time, and where an
// integrity failure of such an engine gets its attribute set.
func fillEach[S setState](group []target[S], single func(st S, attr int) error, union func(st S, x relation.AttrSet, cover1, cover2 S) error) error {
	for _, t := range group {
		var err error
		if t.set.Size() == 1 {
			err = single(t.st, t.set.First())
		} else {
			err = union(t.st, t.set, t.cover[0], t.cover[1])
		}
		if err != nil {
			return describeSet(err, fmt.Sprintf("attribute set %v", t.set))
		}
	}
	return nil
}

// setTable is the map of materialized partitions and every operation on it
// that does not depend on how a partition is represented. Embedding it is
// what makes a type an Engine, apart from NumRows and ClientMemoryBytes.
type setTable[S setState] struct {
	sets  map[relation.AttrSet]S
	fills fills[S]
	grouping
}

func newSetTable[S setState](f fills[S], g grouping) setTable[S] {
	return setTable[S]{sets: make(map[relation.AttrSet]S), fills: f, grouping: g}
}

// Materialize implements Engine. Each set that has to be built is prepared up
// front, in request order, and joins the group being gathered if that group
// has sets of its size and room for one more; otherwise it opens the next
// group. A cover is a proper subset, so never in its target's group. The
// groups are filled under runBatch's wave schedule and committed in request
// order, so with groups of one, one worker and one request this *is* the
// serial algorithm: prepare, fill, cache.
//
// Jobs sharing a target or a cover never share a wave. For the sort engine
// that keeps each cover array's read sequence in serial order, and makes the
// first reader's by-ID sort of the cover a step no other job can be in the
// middle of. An engine whose fills are not concurrent (the ORAM engines: one
// pipeline sends every group's rounds, reading a cover's ID ORAM in Ex-ORAM is
// a mutating access on a handle that is not goroutine-safe, and the groups of
// a level share their covers) has no workers, and its groups run one after
// the other.
//
// When the batch stops on an error, every state that was prepared and not
// committed is destroyed, best effort: it is in no map, so nothing else could
// ever free it, and the caller is owed the error that stopped the batch.
func (t *setTable[S]) Materialize(reqs []Request) ([]int, error) {
	for _, r := range reqs {
		if err := validateCover(r); err != nil {
			return nil, err
		}
	}
	cards := make([]int, len(reqs))
	var jobs []batchJob
	pending := make(map[relation.AttrSet]S) // prepared here, not yet committed
	abandon := func(err error) ([]int, error) {
		for _, r := range reqs {
			if st, ok := pending[r.Set]; ok {
				_ = t.fills.destroy(st)
				delete(pending, r.Set)
			}
		}
		return nil, err
	}
	known := func(x relation.AttrSet) bool {
		_, cached := t.sets[x]
		_, requested := pending[x]
		return cached || requested
	}
	var open *group[S] // the group being gathered
	var openJob int    // and its place in jobs
	for k, r := range reqs {
		if known(r.Set) {
			jobs = append(jobs, batchJob{
				resources: []relation.AttrSet{r.Set},
				run:       func() error { return nil },
				commit:    func() { cards[k] = t.sets[r.Set].cardinality() },
			})
			continue
		}
		for _, c := range r.Cover {
			if !c.IsEmpty() && !known(c) { // a Property 1 ordering violation by the caller
				return abandon(fmt.Errorf("%w: %v", ErrNotMaterialized, c))
			}
		}
		st, err := t.fills.prepare(r.Set, r.Cover)
		if err != nil {
			return abandon(err)
		}
		pending[r.Set] = st
		if open == nil || len(open.targets) == t.width || open.targets[0].set.Size() != r.Set.Size() {
			g := &group[S]{}
			open, openJob = g, len(jobs)
			jobs = append(jobs, batchJob{
				run: func() error {
					// The covers are committed by now: one requested in this
					// call is in an earlier group, which shares a resource with
					// this one, so it ran — and succeeded, or the batch
					// stopped — in an earlier wave.
					for i, k := range g.reqs {
						for j, c := range reqs[k].Cover {
							g.targets[i].cover[j] = t.sets[c] // the zero S for a single
						}
					}
					return t.fills.fill(g.targets)
				},
				commit: func() {
					for i, tg := range g.targets {
						t.sets[tg.set] = tg.st
						delete(pending, tg.set)
						cards[g.reqs[i]] = tg.st.cardinality()
					}
				},
			})
		}
		open.targets, open.reqs = append(open.targets, target[S]{set: r.Set, st: st}), append(open.reqs, k)
		job := &jobs[openJob]
		job.resources = append(job.resources, r.Set)
		if r.Set.Size() > 1 {
			job.resources = append(job.resources, r.Cover[0], r.Cover[1])
		}
	}
	if err := runBatch(jobs, t.workers); err != nil {
		return abandon(err)
	}
	return cards, nil
}

// Cardinality implements Engine.
func (t *setTable[S]) Cardinality(x relation.AttrSet) (int, bool) {
	st, ok := t.sets[x]
	if !ok {
		return 0, false
	}
	return st.cardinality(), true
}

// Release implements Engine.
func (t *setTable[S]) Release(x relation.AttrSet) error {
	st, ok := t.sets[x]
	if !ok {
		return fmt.Errorf("%w: %v", ErrNotMaterialized, x)
	}
	if err := t.fills.destroy(st); err != nil {
		return err
	}
	delete(t.sets, x)
	return nil
}

// Close implements Engine. One set that cannot be released does not strand
// the others: every set is tried and the failures are returned together.
func (t *setTable[S]) Close() error {
	var errs []error
	for x := range t.sets {
		errs = append(errs, t.Release(x))
	}
	return errors.Join(errs...)
}

// state is the table's checkpoint form: every materialized set, covers before
// unions, with its cardinality and what set adds of its state.
func (t *setTable[S]) state(p Protocol, instance string, seq int64, set func(S) SetState) *EngineState {
	es := &EngineState{Kind: p.String(), Instance: instance, Seq: seq, Workers: t.workers}
	for _, x := range t.setsBySize() {
		s := set(t.sets[x])
		s.Set, s.Card = x, uint64(t.sets[x].cardinality())
		es.Sets = append(es.Sets, s)
	}
	return es
}

// setsBySize returns the materialized sets ordered by |X| then value, so
// covers always precede their unions.
func (t *setTable[S]) setsBySize() []relation.AttrSet {
	out := make([]relation.AttrSet, 0, len(t.sets))
	for x := range t.sets {
		out = append(out, x)
	}
	sortSets(out)
	return out
}
