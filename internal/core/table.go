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

// fills is the part of materializing π_X that differs between engines.
type fills[S setState] interface {
	// prepare runs serially, in request order, and only for a set that is
	// going to be built — one neither cached nor requested earlier in the
	// same batch. Everything the server sees of the new structure's identity
	// is decided here (an array name, a freshly set-up pair of ORAM trees),
	// so names and set-up order are the same under every worker count.
	prepare(x relation.AttrSet, cover [2]relation.AttrSet) (S, error)
	// fillSingle and fillUnion do the work proportional to n. A fill may
	// run concurrently with fills whose target and covers are all different
	// from its own, and must not write engine-wide state.
	fillSingle(st S, attr int) error
	fillUnion(st S, x relation.AttrSet, cover1, cover2 S) error
	// destroy frees what prepare and a fill — complete, partial or failed —
	// left on the server.
	destroy(st S) error
}

// setTable is the map of materialized partitions and every operation on it
// that does not depend on how a partition is represented.
type setTable[S setState] struct {
	sets  map[relation.AttrSet]S
	fills fills[S]
}

func newSetTable[S setState](f fills[S]) setTable[S] {
	return setTable[S]{sets: make(map[relation.AttrSet]S), fills: f}
}

// request is one partition asked of the table. A singleton column has a zero
// cover and is the only kind of request with |x| = 1.
type request struct {
	x     relation.AttrSet
	cover [2]relation.AttrSet
}

// materialize answers the requests in order. Each set that has to be built is
// prepared up front, filled under runBatch's wave schedule and committed in
// request order, so with workers ≤ 1 this *is* the serial algorithm: prepare,
// fill, cache, next.
//
// Jobs sharing a target or a cover never share a wave. For the ORAM engines
// that is a correctness requirement (reading a cover's ID ORAM is a mutating
// access on a handle that is not goroutine-safe); for the sort engine it keeps
// each cover array's read sequence in serial order.
//
// When the batch stops on an error, every state that was prepared and not
// committed is destroyed, best effort: it is in no map, so nothing else could
// ever free it, and the caller is owed the error that stopped the batch.
func (t *setTable[S]) materialize(reqs []request, workers int) ([]int, error) {
	cards := make([]int, len(reqs))
	jobs := make([]batchJob, len(reqs))
	pending := make(map[relation.AttrSet]S) // prepared here, not yet committed
	abandon := func(err error) ([]int, error) {
		for _, r := range reqs {
			if st, ok := pending[r.x]; ok {
				_ = t.fills.destroy(st)
				delete(pending, r.x)
			}
		}
		return nil, err
	}
	known := func(x relation.AttrSet) bool {
		_, cached := t.sets[x]
		_, requested := pending[x]
		return cached || requested
	}
	for k, r := range reqs {
		single := r.x.Size() == 1
		job := batchJob{
			resources: []relation.AttrSet{r.x},
			run:       func() error { return nil },
			commit:    func() { cards[k] = t.sets[r.x].cardinality() },
		}
		if !single {
			job.resources = []relation.AttrSet{r.cover[0], r.cover[1], r.x}
		}
		if !known(r.x) {
			if !single {
				for _, c := range r.cover {
					if !known(c) { // a Property 1 ordering violation by the caller
						return abandon(fmt.Errorf("%w: %v", ErrNotMaterialized, c))
					}
				}
			}
			st, err := t.fills.prepare(r.x, r.cover)
			if err != nil {
				return abandon(err)
			}
			pending[r.x] = st
			job.run = func() error {
				if single {
					return t.fills.fillSingle(st, r.x.First())
				}
				// Both covers are committed by now: one requested in this
				// batch shares a resource with this job, so it ran — and
				// succeeded, or the batch stopped — in an earlier wave.
				return t.fills.fillUnion(st, r.x, t.sets[r.cover[0]], t.sets[r.cover[1]])
			}
			job.commit = func() {
				t.sets[r.x] = st
				delete(pending, r.x)
				cards[k] = st.cardinality()
			}
		}
		jobs[k] = job
	}
	if err := runBatch(jobs, workers); err != nil {
		return abandon(err)
	}
	return cards, nil
}

func (t *setTable[S]) singles(attrs []int, workers int) ([]int, error) {
	reqs := make([]request, len(attrs))
	for k, attr := range attrs {
		reqs[k] = request{x: relation.SingleAttr(attr)}
	}
	return t.materialize(reqs, workers)
}

func (t *setTable[S]) unions(jobs []UnionJob, workers int) ([]int, error) {
	reqs := make([]request, len(jobs))
	for k, j := range jobs {
		x, err := validateUnion(j.X1, j.X2)
		if err != nil {
			return nil, err
		}
		reqs[k] = request{x: x, cover: [2]relation.AttrSet{j.X1, j.X2}}
	}
	return t.materialize(reqs, workers)
}

func only(cards []int, err error) (int, error) {
	if err != nil {
		return 0, err
	}
	return cards[0], nil
}

// CardinalitySingle implements Engine: a batch of one.
func (t *setTable[S]) CardinalitySingle(attr int) (int, error) {
	return only(t.singles([]int{attr}, 1))
}

// CardinalityUnion implements Engine: a batch of one.
func (t *setTable[S]) CardinalityUnion(x1, x2 relation.AttrSet) (int, error) {
	return only(t.unions([]UnionJob{{X1: x1, X2: x2}}, 1))
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

// parallelTable is a setTable whose engine's fills are safe to run
// concurrently; embedding it makes the engine a ParallelEngine.
type parallelTable[S setState] struct{ setTable[S] }

// CardinalitySingleBatch implements ParallelEngine. Singleton fills touch
// only their own column and their own fresh structure, so all share a wave.
func (t *parallelTable[S]) CardinalitySingleBatch(attrs []int, workers int) ([]int, error) {
	return t.singles(attrs, workers)
}

// CardinalityUnionBatch implements ParallelEngine.
func (t *parallelTable[S]) CardinalityUnionBatch(jobs []UnionJob, workers int) ([]int, error) {
	return t.unions(jobs, workers)
}
