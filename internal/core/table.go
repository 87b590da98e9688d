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
	// from its own — its covers' states are its own to write for as long as
	// it runs (the sort engine puts a cover in r[ID] order there) — and must
	// not write engine-wide state.
	fillSingle(st S, attr int) error
	fillUnion(st S, x relation.AttrSet, cover1, cover2 S) error
	// destroy frees what prepare and a fill — complete, partial or failed —
	// left on the server.
	destroy(st S) error
}

// setTable is the map of materialized partitions and every operation on it
// that does not depend on how a partition is represented. Embedding it is
// what makes a type an Engine, apart from NumRows and ClientMemoryBytes.
type setTable[S setState] struct {
	sets  map[relation.AttrSet]S
	fills fills[S]
	// concurrent says the engine's fills keep the promise in fills' comment;
	// without it the table builds one set at a time whatever workers is.
	concurrent bool
}

// How many sets an engine lets the table build at a time.
const (
	oneSetAtATime  = false
	setsInParallel = true
)

func newSetTable[S setState](f fills[S], concurrent bool) setTable[S] {
	return setTable[S]{sets: make(map[relation.AttrSet]S), fills: f, concurrent: concurrent}
}

// Materialize implements Engine. Each set that has to be built is prepared up
// front, filled under runBatch's wave schedule and committed in request order,
// so with workers ≤ 1 and one request this *is* the serial algorithm: prepare,
// fill, cache.
//
// Jobs sharing a target or a cover never share a wave. For the ORAM engines
// that is a correctness requirement (reading a cover's ID ORAM is a mutating
// access on a handle that is not goroutine-safe); for the sort engine it keeps
// each cover array's read sequence in serial order, and makes the first
// reader's by-ID sort of the cover a step no other job can be in the middle of.
//
// When the batch stops on an error, every state that was prepared and not
// committed is destroyed, best effort: it is in no map, so nothing else could
// ever free it, and the caller is owed the error that stopped the batch.
func (t *setTable[S]) Materialize(reqs []Request, workers int) ([]int, error) {
	for _, r := range reqs {
		if err := validateCover(r); err != nil {
			return nil, err
		}
	}
	if !t.concurrent {
		workers = 1
	}
	cards := make([]int, len(reqs))
	jobs := make([]batchJob, len(reqs))
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
	for k, r := range reqs {
		single := r.Set.Size() == 1
		job := batchJob{
			resources: []relation.AttrSet{r.Set},
			run:       func() error { return nil },
			commit:    func() { cards[k] = t.sets[r.Set].cardinality() },
		}
		if !single {
			job.resources = []relation.AttrSet{r.Cover[0], r.Cover[1], r.Set}
		}
		if !known(r.Set) {
			if !single {
				for _, c := range r.Cover {
					if !known(c) { // a Property 1 ordering violation by the caller
						return abandon(fmt.Errorf("%w: %v", ErrNotMaterialized, c))
					}
				}
			}
			st, err := t.fills.prepare(r.Set, r.Cover)
			if err != nil {
				return abandon(err)
			}
			pending[r.Set] = st
			job.run = func() error {
				if single {
					return t.fills.fillSingle(st, r.Set.First())
				}
				// Both covers are committed by now: one requested in this
				// batch shares a resource with this job, so it ran — and
				// succeeded, or the batch stopped — in an earlier wave.
				return t.fills.fillUnion(st, r.Set, t.sets[r.Cover[0]], t.sets[r.Cover[1]])
			}
			job.commit = func() {
				t.sets[r.Set] = st
				delete(pending, r.Set)
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
