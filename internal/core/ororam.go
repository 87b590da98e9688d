package core

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"github.com/oblivfd/oblivfd/internal/oram"
	"github.com/oblivfd/oblivfd/internal/relation"
)

// OrEngine is the original ORAM-based method of §IV-C (Algorithms 1 and 2).
// For each materialized attribute set X it maintains:
//
//	Key-Label ORAM   O_X^KL : key_X  → label_X   (counts distinct keys)
//	ID-Label array   O_X^IL : r[ID]  → label_X   (feeds supersets of X)
//
// The paper's O^IL is an ORAM; here it is a sealed positional array, because
// its addresses are public: record ids in ascending order, then appended ids
// (DESIGN.md §2). It supports static databases and insertions (the method
// traverses records one by one, so appended records are simply untraversed
// records, §IV-C(c)). Deletion is not supported — that is ExEngine's job.
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

// orStep is one iteration of Algorithm 1/2's loop body for a record with the
// already-constructed key_X: one access to O^KL that hands back the key's label
// or, for a key not seen before, leaves the next fresh label there — card_X
// counting the fresh labels of its chunk's earlier records — as its label (the
// paper's lines 6–10 as a single read-modify-write). One access, whether or
// not the key was seen before; the label goes to the record's O^IL cell with
// the rest of its chunk's, and card_X moves when the write-back lands.
func orStep(st *oramState, _ string, key uint64, label *uint64) (primary, _ oram.Access) {
	fresh := false
	return oram.Access{Store: st.primary, Key: encodeUint64(key), Fn: func(old []byte, found bool) ([]byte, bool) {
		fresh = !found
		if found {
			*label = decodeUint64(old)
		} else {
			*label = st.card + st.pending
			st.pending++
		}
		binary.BigEndian.PutUint64(st.val[:labelWidth], *label)
		return st.val[:labelWidth], true
	}, Landed: func() {
		if fresh {
			st.card++
			st.pending--
		}
	}}, oram.Access{}
}

// Insert continues the traversal for one appended record across every
// materialized attribute set; see oramCore.insert for a failed one. OrEngine
// is deliberately not a DynamicEngine: it has no Delete.
func (e *OrEngine) Insert(row relation.Row) (int, error) { return e.insert(row, nil) }
