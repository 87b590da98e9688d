package core

import (
	"fmt"

	"github.com/oblivfd/oblivfd/internal/relation"
)

// PlainEngine computes partitions directly on a plaintext relation. It is
// the insecure comparator: the same database-level search as the secure
// engines, with none of their protections, representing the conventional
// partition-based discovery the paper builds on (§II-C). It also serves as
// the correctness oracle in tests and implements DynamicEngine by
// recomputation, which is exactly the Ω(n)-per-operation "trivial" dynamic
// solution of Definition 5 that ExEngine improves upon.
type PlainEngine struct {
	setTable[*plainState]
	rel  *relation.Relation
	live map[int]bool
}

type plainState struct {
	labels map[int]int // r[ID] → label
	card   int
	cover  [2]relation.AttrSet
}

func (st *plainState) cardinality() int { return st.card }

// newPlainEngine builds a plaintext engine over a relation. The relation is
// cloned, so later mutations of rel do not affect the engine.
func newPlainEngine(rel *relation.Relation) *PlainEngine {
	live := make(map[int]bool, rel.NumRows())
	for i := 0; i < rel.NumRows(); i++ {
		live[i] = true
	}
	e := &PlainEngine{rel: rel.Clone(), live: live}
	e.setTable = newSetTable[*plainState](e, oneSetAtATime)
	return e
}

// NumRows implements Engine.
func (e *PlainEngine) NumRows() int { return len(e.live) }

func (e *PlainEngine) prepare(_ relation.AttrSet, cover [2]relation.AttrSet) (*plainState, error) {
	return &plainState{cover: cover}, nil
}

// destroy has nothing to free: the partitions live in client memory.
func (e *PlainEngine) destroy(*plainState) error { return nil }

// fill builds one set at a time (see fillEach).
func (e *PlainEngine) fill(group []target[*plainState]) error {
	return fillEach(group, e.fillSingle, e.fillUnion)
}

func (e *PlainEngine) fillSingle(st *plainState, attr int) error {
	st.labels, st.card = make(map[int]int, len(e.live)), 0
	seen := make(map[string]int)
	for id := 0; id < e.rel.NumRows(); id++ {
		if !e.live[id] {
			continue
		}
		v := e.rel.Value(id, attr)
		lbl, ok := seen[v]
		if !ok {
			lbl = st.card
			st.card++
			seen[v] = lbl
		}
		st.labels[id] = lbl
	}
	return nil
}

func (e *PlainEngine) fillUnion(st *plainState, _ relation.AttrSet, st1, st2 *plainState) error {
	st.labels, st.card = make(map[int]int, len(e.live)), 0
	seen := make(map[[2]int]int)
	for id := 0; id < e.rel.NumRows(); id++ {
		if !e.live[id] {
			continue
		}
		k := [2]int{st1.labels[id], st2.labels[id]}
		lbl, ok := seen[k]
		if !ok {
			lbl = st.card
			st.card++
			seen[k] = lbl
		}
		st.labels[id] = lbl
	}
	return nil
}

// Insert implements DynamicEngine by full recomputation (the trivial
// solution: Ω(n) per materialized set).
func (e *PlainEngine) Insert(row relation.Row) (int, error) {
	if err := e.rel.Append(row); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrRowWidth, err)
	}
	id := e.rel.NumRows() - 1
	e.live[id] = true
	e.recomputeAll()
	return id, nil
}

// Delete implements DynamicEngine by full recomputation.
func (e *PlainEngine) Delete(id int) error {
	if !e.live[id] {
		return fmt.Errorf("%w: %d", ErrUnknownID, id)
	}
	delete(e.live, id)
	e.recomputeAll()
	return nil
}

// recomputeAll fills every materialized set again, covers first.
func (e *PlainEngine) recomputeAll() {
	for _, x := range e.setsBySize() {
		st := e.sets[x]
		if x.Size() == 1 {
			_ = e.fillSingle(st, x.First()) // PlainEngine's fills cannot fail
		} else {
			_ = e.fillUnion(st, x, e.sets[st.cover[0]], e.sets[st.cover[1]])
		}
	}
}

// ClientMemoryBytes implements Engine: the plaintext baseline holds all
// partitions client-side.
func (e *PlainEngine) ClientMemoryBytes() int {
	total := 0
	for _, st := range e.sets {
		total += 16 * len(st.labels)
	}
	return total
}
