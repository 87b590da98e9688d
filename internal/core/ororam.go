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
}

// orEngines is a package-level counter so two engines over the same service
// never collide on object names.
var orEngines atomic.Int64

// NewOrEngine builds an engine over an uploaded database.
func NewOrEngine(edb *EncryptedDB) *OrEngine {
	e := new(OrEngine)
	e.init(edb, fmt.Sprintf("or%d", orEngines.Add(1)), orLayout)
	return e
}

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
// materialized attribute set; see oramCore.insert for a failed one. OrEngine
// is deliberately not a DynamicEngine: it has no Delete.
func (e *OrEngine) Insert(row relation.Row) (int, error) { return e.insert(row, nil) }
