package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/oblivfd/oblivfd/internal/oram"
	"github.com/oblivfd/oblivfd/internal/relation"
)

// ExEngine is the extended ORAM-based method of §V (Algorithms 4 and 5),
// the first non-trivial secure FD protocol for fully dynamic databases. For
// each materialized attribute set X it maintains:
//
//	Key-(Label,Frequency) ORAM  O_X^KLF : key_X → (label_X, fre_X)
//	ID-(Key,Label)        ORAM  O_X^IKL : r[ID] → (key_X, label_X)
//
// fre_X counts how many live records share key_X, which is exactly what
// deletion needs: a key's pair is removed from O^KLF only when its last
// record goes (Algorithm 5's flag arithmetic). Our ORAM's Remove is
// trace-indistinguishable from Write, so both deletion branches look
// identical to the server; the paper encodes the same idea by writing
// (⊥, ⊥).
//
// One deviation: labels are drawn from a monotone counter instead of the
// paper's card_X. Algorithm 5 decrements card_X, so reusing it as the next
// label (Algorithm 4 line 6) could hand a new key the label of a live one
// and corrupt every superset's key_X = pair(label_{X1}, label_{X2}). The
// monotone counter preserves the injective key→label mapping the
// construction depends on; card_X is tracked separately and still equals
// |π_X| at all times.
type ExEngine struct {
	oramCore
	timing func(x relation.AttrSet, d time.Duration)
}

// SetTimingHook installs a callback receiving the duration of each
// per-attribute-set maintenance step performed by Insert and Delete. The
// Fig. 7 benchmark uses it to isolate the marginal cost of one partition.
func (e *ExEngine) SetTimingHook(fn func(x relation.AttrSet, d time.Duration)) {
	e.timing = fn
}

var exEngines atomic.Int64

// NewExEngine builds a dynamic engine over an uploaded database. The
// database's capacity bounds total insertions over the engine's lifetime.
func NewExEngine(edb *EncryptedDB) (*ExEngine, error) {
	if edb.Capacity() >= maxLabel {
		return nil, fmt.Errorf("core: capacity %d exceeds label space", edb.Capacity())
	}
	e := new(ExEngine)
	e.init(edb, fmt.Sprintf("ex%d", exEngines.Add(1)), exLayout)
	return e, nil
}

// exStep is Algorithm 4's loop body: one access to O^KLF that takes the key's
// label (for a key not seen before the next fresh one, counting those its
// chunk's earlier records drew) and leaves its frequency one higher, and one
// write of (key_X, label) to O^IKL. Exactly two ORAM accesses regardless of
// data; card_X and the label source move when the chunk's write-backs land.
func exStep(st *oramState, id string, key uint64, label *uint64) (primary, secondary oram.Access) {
	primary = oram.Access{Store: st.primary, Key: encodeUint64(key), Fn: func(old []byte, found bool) ([]byte, bool) {
		fre := uint64(0)
		if found {
			*label, fre = decodeLabel(old), decodeLabel(old[labelWidth:])
		} else {
			*label = st.nextLabel + st.pending
			st.pending++
		}
		return st.labelFre(*label, fre+1), true
	}}
	secondary = oram.Access{Store: st.secondary, Key: id, Fn: func([]byte, bool) ([]byte, bool) { return st.keyLabel(key, *label), true }}
	return primary, secondary
}

// exRemove executes Algorithm 5 for one record: one access takes the record's
// pair out of O^IKL, which names its key, and one access to O^KLF decrements
// that key's frequency or, at 1, removes the pair. Keeping and removing are
// the same access on the wire, so the trace is fixed: two accesses, the
// second's fetch sharing a round with the first's write-back.
func exRemove(pipe *oram.Pipeline, st *oramState, id int) error {
	var key uint64
	var known, counted, last bool
	err := pipe.Do(oram.Access{Store: st.secondary, Key: idKey(id), Fn: func(old []byte, found bool) ([]byte, bool) {
		known = found
		if found {
			key = decodeUint64(old)
		}
		return nil, false
	}})
	if err == nil {
		// An id O^IKL does not know makes this a miss on an arbitrary key:
		// the access count stays what it is for every record.
		err = pipe.Do(oram.Access{Store: st.primary, Key: encodeUint64(key), Fn: func(old []byte, found bool) ([]byte, bool) {
			counted = found && known
			if !counted {
				return old, found
			}
			label, fre := decodeLabel(old), decodeLabel(old[labelWidth:])
			last = fre == 1
			if last {
				return nil, false
			}
			return st.labelFre(label, fre-1), true
		}})
	}
	// Flushed whatever happened: a refused second access leaves the first's
	// write-back owed, and it must not ride into the next operation's round.
	if ferr := pipe.Flush(); ferr != nil {
		err = errors.Join(err, ferr)
	}
	switch {
	case err != nil:
		return fmt.Errorf("core: O^IKL/O^KLF removal: %w", err)
	case !known:
		return fmt.Errorf("%w: id %d", ErrUnknownID, id)
	case !counted:
		return fmt.Errorf("core: O^KLF missing key for live id %d", id)
	}
	if last {
		st.card--
	}
	return nil
}

// Insert implements DynamicEngine: the new record is an untraversed record,
// processed by one Algorithm 4 step per materialized set, covers first. See
// oramCore.insert for a failed insertion.
func (e *ExEngine) Insert(row relation.Row) (int, error) { return e.insert(row, e.timing) }

// Delete implements DynamicEngine: one Algorithm 5 pass per materialized
// set. Deletions across sets are order-independent (§V-C).
func (e *ExEngine) Delete(id int) error {
	if !e.live(id) {
		return fmt.Errorf("%w: %d", ErrUnknownID, id)
	}
	err := e.eachSet(e.timing, func(_ relation.AttrSet, st *oramState) error { return exRemove(e.pipe, st, id) })
	if err == nil {
		e.dead[id] = true
	}
	return err
}

// ClientMemoryBytes implements Engine: the ORAM client states plus 8 bytes
// per live record id.
func (e *ExEngine) ClientMemoryBytes() int {
	return 8*e.NumRows() + e.oramCore.ClientMemoryBytes()
}
