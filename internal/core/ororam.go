package core

import (
	"fmt"
	"sync/atomic"

	"github.com/oblivfd/oblivfd/internal/relation"
)

// OrEngine is the original ORAM-based method of §IV-C (Algorithms 1 and 2).
// For each materialized attribute set X it maintains two ORAMs:
//
//	Key-Label ORAM  O_X^KL : key_X  → label_X   (counts distinct keys)
//	ID-Label  ORAM  O_X^IL : r[ID]  → label_X   (feeds supersets of X)
//
// It supports static databases and insertions (the method traverses records
// one by one, so appended records are simply untraversed records, §IV-C(c)).
// Deletion is not supported — that is ExEngine's job.
type OrEngine struct {
	oramCore
	n int // live rows, ids 0..n-1 (insert-only keeps ids contiguous)
}

// orEngines is a package-level counter so two engines over the same service
// never collide on object names.
var orEngines atomic.Int64

func newOrEngine(n int) *OrEngine {
	e := &OrEngine{n: n}
	e.step = orStep
	e.ids = func() []int {
		ids := make([]int, e.n)
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	return e
}

// NewOrEngine builds an engine over an uploaded database.
func NewOrEngine(edb *EncryptedDB) *OrEngine {
	e := newOrEngine(edb.NumRows())
	e.init(edb, fmt.Sprintf("or%d", orEngines.Add(1)), orLayout)
	return e
}

// NumRows implements Engine.
func (e *OrEngine) NumRows() int { return e.n }

// orStep executes one iteration of Algorithm 1/2's loop body for record id
// with the already-constructed key_X. The ORAM access sequence — one Read
// and two Writes — is identical regardless of whether the key was seen
// before (the branchless flag arithmetic of the paper's lines 6–10).
func orStep(st *oramState, id int, key uint64) error {
	keyStr := encodeUint64(key)
	labelBytes, found, err := st.primary.Read(keyStr)
	if err != nil {
		return fmt.Errorf("core: O^KL read: %w", err)
	}
	label := st.card
	if found {
		label = decodeUint64(labelBytes)
	}
	enc := encodeUint64(label)
	if err := st.secondary.Write(idKey(id), []byte(enc)); err != nil {
		return fmt.Errorf("core: O^IL write: %w", err)
	}
	if err := st.primary.Write(keyStr, []byte(enc)); err != nil {
		return fmt.Errorf("core: O^KL write: %w", err)
	}
	if !found {
		st.card++
	}
	return nil
}

var _ ParallelEngine = (*OrEngine)(nil)

// Insert continues the traversal for one appended record across every
// materialized attribute set. OrEngine is deliberately not a DynamicEngine:
// it has no Delete.
func (e *OrEngine) Insert(row relation.Row) (int, error) {
	id, err := e.insert(row, nil)
	if err == nil {
		e.n++
	}
	return id, err
}

// CheckpointState implements CheckpointableEngine.
func (e *OrEngine) CheckpointState() *EngineState {
	es := e.checkpointState()
	es.N = e.n
	return es
}

// ResumeOrEngine rebuilds an OrEngine from checkpointed state; see
// oramCore.resume for what the server must hold.
func ResumeOrEngine(edb *EncryptedDB, st *EngineState) (*OrEngine, error) {
	e := newOrEngine(st.N)
	if err := e.resume(edb, st, orLayout); err != nil {
		return nil, err
	}
	return e, nil
}
