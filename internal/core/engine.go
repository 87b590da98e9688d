package core

import (
	"errors"
	"fmt"
	"sort"

	"github.com/oblivfd/oblivfd/internal/relation"
)

// Engine computes partition cardinalities obliviously at the attribute
// level. The database-level lattice drives it in an order satisfying
// Property 1: every multi-attribute set is requested as the union of two
// previously materialized proper subsets.
//
// Engines retain the materialized partition of each computed set (the
// paper's π_X, as ORAM pairs or a sorted label array) until Release is
// called, because supersets derive their keys from it.
type Engine interface {
	// NumRows returns n, the number of live records.
	NumRows() int
	// Materialize answers the requests in order with |π_Set| of each,
	// building the partitions that are not cached (Algorithms 1–4). The sort
	// engine builds as many at a time as the workers it was opened with, one
	// by one in request order with one; the ORAM engines build the sets of
	// one lattice level together, a group at a time; the others build one set
	// at a time. A request's covers must be materialized, before the call or
	// by an earlier request of it.
	Materialize(reqs []Request) ([]int, error)
	// Cardinality returns the cached |π_x| of a materialized set.
	Cardinality(x relation.AttrSet) (int, bool)
	// Release frees the server-side state backing π_x.
	Release(x relation.AttrSet) error
	// ClientMemoryBytes estimates client-held protocol memory (Fig. 5).
	ClientMemoryBytes() int
	// Close releases all remaining server-side state.
	Close() error
}

// Request asks an engine for π_Set. A single attribute is built from its
// column and has a zero Cover; a larger set names the two distinct proper
// subsets whose union it is (Property 1).
type Request struct {
	Set   relation.AttrSet
	Cover [2]relation.AttrSet
}

// Single is the request for π_{attr}.
func Single(attr int) Request { return Request{Set: relation.SingleAttr(attr)} }

// Union is the request for π_{x1∪x2} from the partitions of x1 and x2.
func Union(x1, x2 relation.AttrSet) Request {
	return Request{Set: x1.Union(x2), Cover: [2]relation.AttrSet{x1, x2}}
}

// CardinalitySingle materializes π_{attr} alone and returns |π_{attr}|.
func CardinalitySingle(e Engine, attr int) (int, error) {
	return materializeOne(e, Single(attr))
}

// CardinalityUnion materializes π_{x1∪x2} alone and returns its cardinality.
func CardinalityUnion(e Engine, x1, x2 relation.AttrSet) (int, error) {
	return materializeOne(e, Union(x1, x2))
}

func materializeOne(e Engine, r Request) (int, error) {
	cards, err := e.Materialize([]Request{r})
	if err != nil {
		return 0, err
	}
	return cards[0], nil
}

// DynamicEngine extends Engine with incremental maintenance: every
// materialized partition is updated in O(polylog n) per operation instead of
// being recomputed (§V, the non-trivial dynamic protocol of Definition 5).
type DynamicEngine interface {
	Engine
	// Insert appends a record with the next free identifier, updating all
	// materialized partitions, and returns its id.
	Insert(row relation.Row) (int, error)
	// Delete removes the record with the given identifier from all
	// materialized partitions (Algorithm 5).
	Delete(id int) error
}

// Common engine errors.
var (
	// ErrNotMaterialized is returned when a requested subset partition has
	// not been computed yet (a Property 1 ordering violation by the
	// caller).
	ErrNotMaterialized = errors.New("core: partition not materialized")
	// ErrBadUnion is returned for a request whose Cover is not a valid
	// two-subset cover of its Set.
	ErrBadUnion = errors.New("core: invalid union cover")
	// ErrRowWidth is returned by Insert when the row width does not match
	// the schema.
	ErrRowWidth = errors.New("core: row width mismatch")
	// ErrUnknownID is returned by Delete for an id that is not live.
	ErrUnknownID = errors.New("core: unknown record id")
)

// sortSets orders attribute sets by size then value, so every Property 1
// cover precedes its union when engines replay per-set work (insertions).
func sortSets(sets []relation.AttrSet) {
	sort.Slice(sets, func(i, j int) bool {
		si, sj := sets[i].Size(), sets[j].Size()
		if si != sj {
			return si < sj
		}
		return sets[i] < sets[j]
	})
}

// validateCover checks the Property 1 contract shared by all engines.
func validateCover(r Request) error {
	x1, x2 := r.Cover[0], r.Cover[1]
	switch {
	case r.Cover == [2]relation.AttrSet{}:
		if r.Set.Size() != 1 {
			return fmt.Errorf("%w: %v is not a single attribute and names no cover", ErrBadUnion, r.Set)
		}
	case x1.IsEmpty() || x2.IsEmpty():
		return fmt.Errorf("%w: empty subset", ErrBadUnion)
	case x1 == x2:
		return fmt.Errorf("%w: identical subsets %v", ErrBadUnion, x1)
	case r.Set != x1.Union(x2):
		return fmt.Errorf("%w: %v is not the union of %v and %v", ErrBadUnion, r.Set, x1, x2)
	case r.Set == x1 || r.Set == x2:
		return fmt.Errorf("%w: %v and %v are not proper subsets of %v", ErrBadUnion, x1, x2, r.Set)
	}
	return nil
}
