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
	n int // ids 0..n-1 have been handed out (insert-only keeps them contiguous)
	// orphans are the ids below n whose insertion failed: the row is in the
	// database, some set was not stepped, and the record is never traversed.
	orphans map[int]bool
}

// orEngines is a package-level counter so two engines over the same service
// never collide on object names.
var orEngines atomic.Int64

func newOrEngine(n int) *OrEngine {
	e := &OrEngine{n: n, orphans: make(map[int]bool)}
	e.step = orStep
	e.live = func(id int) bool { return id < e.n && !e.orphans[id] }
	return e
}

// NewOrEngine builds an engine over an uploaded database.
func NewOrEngine(edb *EncryptedDB) *OrEngine {
	e := newOrEngine(edb.NumRows())
	e.init(edb, fmt.Sprintf("or%d", orEngines.Add(1)), orLayout)
	return e
}

// NumRows implements Engine.
func (e *OrEngine) NumRows() int { return e.n - len(e.orphans) }

// orStep is one iteration of Algorithm 1/2's loop body for record id with the
// already-constructed key_X: one access to O^KL that hands back the key's label
// or, for a key not seen before, leaves card_X there as its label (the paper's
// lines 6–10 as a single read-modify-write), and one write of that label to
// O^IL. Two accesses, whether or not the key was seen before; card_X moves in
// commit, once both write-backs are on the server.
func orStep(st *oramState, id string, key uint64) (primary, secondary oram.Access, commit func()) {
	label, fresh := st.val[:labelWidth], false
	primary = oram.Access{Store: st.primary, Key: encodeUint64(key), Fn: func(old []byte, found bool) ([]byte, bool) {
		fresh = !found
		if found {
			copy(label, old)
		} else {
			binary.BigEndian.PutUint64(label, st.card)
		}
		return label, true
	}}
	secondary = oram.Access{Store: st.secondary, Key: id, Fn: func([]byte, bool) ([]byte, bool) { return label, true }}
	return primary, secondary, func() {
		if fresh {
			st.card++
		}
	}
}

// Insert continues the traversal for one appended record across every
// materialized attribute set. OrEngine is deliberately not a DynamicEngine:
// it has no Delete.
//
// When an insertion fails after the row has been appended, the id stays taken
// and is never traversed: NumRows does not count it and the next insertion gets
// the next id. The sets stepped before the failure have counted the record —
// their card_X and ID ORAM include it, a set stepped after has not, and a set
// whose write-back round was lost refuses further use — so the partitions no
// longer describe one relation: release them and materialize again.
func (e *OrEngine) Insert(row relation.Row) (int, error) {
	id, err := e.edb.AppendRow(row)
	if err != nil {
		return 0, err
	}
	e.n = id + 1
	if err := e.insert(id, nil); err != nil {
		e.orphans[id] = true
		return 0, err
	}
	return id, nil
}

// CheckpointState implements CheckpointableEngine. The live ids are spelt out
// only once a failed insertion has left a hole in 0..N-1.
func (e *OrEngine) CheckpointState() *EngineState {
	es := e.checkpointState()
	es.N = e.n
	if len(e.orphans) > 0 {
		for id := 0; id < e.n; id++ {
			if !e.orphans[id] {
				es.LiveIDs = append(es.LiveIDs, id)
			}
		}
	}
	return es
}

// ResumeOrEngine rebuilds an OrEngine from checkpointed state; see
// oramCore.resume for what the server must hold.
func ResumeOrEngine(edb *EncryptedDB, st *EngineState) (*OrEngine, error) {
	e := newOrEngine(st.N)
	if len(st.LiveIDs) > 0 {
		for id := 0; id < st.N; id++ {
			e.orphans[id] = true
		}
		for _, id := range st.LiveIDs {
			delete(e.orphans, id)
		}
	}
	if err := e.resume(edb, st, orLayout); err != nil {
		return nil, err
	}
	return e, nil
}
