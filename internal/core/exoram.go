package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/oblivfd/oblivfd/internal/oram"
	"github.com/oblivfd/oblivfd/internal/telemetry"
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
}

var exEngines atomic.Int64

// newExEngine builds a dynamic engine over an uploaded database, its ORAMs
// instrumented with reg. The database's capacity bounds total insertions
// over the engine's lifetime.
func newExEngine(edb *EncryptedDB, reg *telemetry.Registry) (*ExEngine, error) {
	if edb.Capacity() >= maxLabel {
		return nil, fmt.Errorf("core: capacity %d exceeds label space", edb.Capacity())
	}
	e := new(ExEngine)
	e.init(edb, fmt.Sprintf("ex%d", exEngines.Add(1)), exLayout, reg)
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

// removal is Algorithm 5 for one record on one set: the access to O^IKL
// takes the record's pair out, which names its key, and the access to O^KLF
// decrements that key's frequency or, at 1, removes the pair. Keeping and
// removing are the same access on the wire.
type removal struct {
	st                   *oramState
	key                  uint64
	known, counted, last bool
}

func (r *removal) take(old []byte, found bool) ([]byte, bool) {
	r.known = found
	if found {
		r.key = decodeUint64(old)
	}
	return nil, false
}

func (r *removal) decrement(old []byte, found bool) ([]byte, bool) {
	r.counted = found && r.known
	if !r.counted {
		return old, found
	}
	label, fre := decodeLabel(old), decodeLabel(old[labelWidth:])
	r.last = fre == 1
	if r.last {
		return nil, false
	}
	return r.st.labelFre(label, fre-1), true
}

// Delete implements DynamicEngine: Algorithm 5 on every materialized set in
// one pipeline, as deletions across sets are order-independent (§V-C). The
// first round fetches every set's O^IKL path for the record; the second
// carries their write-backs and fetches every set's O^KLF path for the key
// the first found; the third writes those back. Three rounds and 2 accesses a
// set, whichever branch each set takes: an id O^IKL does not know makes its
// set's second access a miss on an arbitrary key. card_X moves once the last
// round has landed, and whatever happens nothing is owed after.
func (e *ExEngine) Delete(id int) error {
	if !e.live(id) {
		return fmt.Errorf("%w: %d", ErrUnknownID, id)
	}
	sets := e.setsBySize()
	rm := make([]removal, len(sets))
	accesses := make([]oram.Access, len(sets))
	for i, x := range sets {
		rm[i].st = e.sets[x]
		accesses[i] = oram.Access{Store: rm[i].st.secondary, Key: idKey(id), Fn: rm[i].take}
	}
	_, err := e.pipe.Do(accesses)
	if err == nil {
		for i := range rm {
			accesses[i] = oram.Access{Store: rm[i].st.primary, Key: encodeUint64(rm[i].key), Fn: rm[i].decrement}
		}
		_, err = e.pipe.Do(accesses)
	}
	// Flushed whatever happened: a refused second round leaves the first's
	// write-backs owed, and they must not ride into the next operation's.
	if ferr := e.pipe.Flush(); ferr != nil {
		err = errors.Join(err, ferr)
	}
	if err != nil {
		return inAccess(fmt.Errorf("core: O^IKL/O^KLF removal: %w", err), func(i int) string { return fmt.Sprintf("attribute set %v", sets[i]) })
	}
	for i, r := range rm {
		switch {
		case !r.known:
			return fmt.Errorf("%w: id %d in %v", ErrUnknownID, id, sets[i])
		case !r.counted:
			return fmt.Errorf("core: O^KLF of %v missing key for live id %d", sets[i], id)
		}
	}
	for _, r := range rm {
		if r.last {
			r.st.card--
		}
	}
	e.dead[id] = true
	return nil
}

// ClientMemoryBytes implements Engine: the ORAM client states plus 8 bytes
// per live record id.
func (e *ExEngine) ClientMemoryBytes() int {
	return 8*e.NumRows() + e.oramCore.ClientMemoryBytes()
}
