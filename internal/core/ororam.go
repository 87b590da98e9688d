package core

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"github.com/oblivfd/oblivfd/internal/oram"
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
	e.live = func(id int) bool { return id < e.n }
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
// with the already-constructed key_X: one access to O^KL that hands back the
// key's label or, for a key not seen before, leaves card_X there as its label
// (the paper's lines 6–10 as a single read-modify-write), and one write of
// that label to O^IL. Two accesses, whether or not the key was seen before.
func orStep(st *oramState, id string, key uint64) error {
	label, fresh := st.val[:labelWidth], false
	err := st.pipe.Do(
		oram.Access{Store: st.primary, Key: encodeUint64(key), Fn: func(old []byte, found bool) ([]byte, bool) {
			fresh = !found
			if found {
				copy(label, old)
			} else {
				binary.BigEndian.PutUint64(label, st.card)
			}
			return label, true
		}},
		oram.Access{Store: st.secondary, Key: id, Fn: func([]byte, bool) ([]byte, bool) { return label, true }})
	if err == nil {
		err = st.pipe.Flush()
	}
	if err != nil {
		return fmt.Errorf("core: O^KL/O^IL step: %w", err)
	}
	// Both write-backs are on the server; only now does card_X move.
	if fresh {
		st.card++
	}
	return nil
}

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
