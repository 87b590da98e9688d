package core

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"github.com/oblivfd/oblivfd/internal/obsort"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/telemetry"
)

// SortEngine is the oblivious-sorting method of §IV-D (Algorithm 3). For
// each attribute set X it materializes the array B_X of (label_X, r[ID])
// records:
//
//  1. build A = {(key_X, r[ID])} — key_X from the cell value (|X|=1) or
//     from the covering subsets' labels (|X|≥2, Property 1),
//  2. ObliviousSort A by key_X,
//  3. one sequential pass replaces each key with a dense label via the
//     card_X counter (branchless, every cell rewritten) and re-seals every
//     run at the label width, (label_X, r[ID]) — |π_X| is known here,
//  4. ObliviousSort back by r[ID], the first time X is read as a Property 1
//     cover and never otherwise: r[ID] order exists only so that B_X lines up
//     positionally with the other cover's array, and a set that no union is
//     built from is released without it (DESIGN.md §11, "Deferred order
//     restoration").
//
// B_X lives on the server as sealed runs of obsort.RunRecords records, one
// ciphertext each, at the width of the phase (DESIGN.md §11, "Sealed runs"):
// sortRecWidth bytes a record until the labelling pass, labelRecWidth after.
// The method needs O(1) client memory (one obsort block, two runs, in flight
// per worker), is static only, and parallelizes inside the bitonic
// network and across the sets of a level — the workers it is opened with
// (its grouping's) set both degrees (Fig. 6a).
type SortEngine struct {
	setTable[*sortState]
	edb      *EncryptedDB
	instance string
	// metrics, if non-nil, instruments every working array the engine
	// creates (comparison/stage counters and sort-pass spans).
	metrics *telemetry.Registry
	n       int
	seq     atomic.Int64
}

type sortState struct {
	name string // drawn by prepare, before the array exists
	// arr holds the (label_X, r[ID]) records: ordered by label_X as the
	// labelling pass left them until byID, ordered by r[ID] from then on.
	arr  *obsort.Array
	byID bool // set only once a whole by-ID network has returned nil
	card uint64
}

func (st *sortState) cardinality() int { return int(st.card) }

var sortEngines atomic.Int64

// sortRecWidth is A's record: key_X (keyWidth, 8 bytes) followed by r[ID]
// (labelWidth, 4 bytes). Both are big-endian, so byte order is numeric order.
const sortRecWidth = keyWidth + labelWidth

// labelRecWidth is B_X's record, as the labelling pass leaves it: label_X
// followed by r[ID], labelWidth (4) bytes each, big-endian. A label is below
// n, which newSortEngine holds to at most maxLabel.
const labelRecWidth = 2 * labelWidth

// newSortEngine builds a sorting engine over an uploaded database, its arrays
// instrumented with reg. It refuses a relation of more than maxLabel rows:
// their ids would not fit r[ID]'s labelWidth bytes, nor their labels
// unionKey's halves.
func newSortEngine(edb *EncryptedDB, workers int, reg *telemetry.Registry) (*SortEngine, error) {
	if edb.NumRows() > maxLabel {
		return nil, fmt.Errorf("core: %d rows exceed the sort engine's id space of %d", edb.NumRows(), maxLabel)
	}
	e := &SortEngine{
		edb:      edb,
		instance: fmt.Sprintf("sort%d", sortEngines.Add(1)),
		metrics:  reg,
		n:        edb.NumRows(),
	}
	e.setTable = newSetTable[*sortState](e, grouping{width: 1, workers: workers})
	return e, nil
}

// NumRows implements Engine.
func (e *SortEngine) NumRows() int { return e.n }

// lessByKey orders A's records by their leading keyWidth-byte key.
func lessByKey(a, b []byte) bool { return decodeUint64(a) < decodeUint64(b) }

// lessByID orders B_X's records by their trailing labelWidth-byte r[ID].
func lessByID(a, b []byte) bool { return decodeLabel(a[labelWidth:]) < decodeLabel(b[labelWidth:]) }

// materialize runs Algorithm 3's lines 1–8 on st.arr, which already holds
// the (key_X, r[ID]) records; line 9 is restoreOrder's.
func (e *SortEngine) materialize(st *sortState) error {
	// Line 1: sort by key_X so equal keys are consecutive.
	if err := st.arr.Sort(lessByKey, e.workers); err != nil {
		return fmt.Errorf("core: sorting by key: %w", err)
	}
	// Lines 2–8: one oblivious pass assigns dense labels. The pass reads
	// every run and re-seals it at the label width whether or not a label in
	// it changed — the runs that hold only padding too, so the array has one
	// layout from here on, for the by-ID network and every cover read.
	var tmp, card uint64
	out := make([]byte, labelRecWidth)
	err := st.arr.Reseal(labelRecWidth, func(i int, rec []byte) ([]byte, error) {
		key := decodeUint64(rec)
		if i == 0 {
			tmp = key
		}
		if key != tmp {
			card++
			tmp = key
		}
		putLabel(out, card)
		copy(out[labelWidth:], rec[keyWidth:sortRecWidth])
		return out, nil
	})
	if err != nil {
		return fmt.Errorf("core: labeling pass: %w", err)
	}
	st.card = card + 1
	return nil
}

// restoreOrder is Algorithm 3's line 9, run when st is first read as a cover:
// sort back by r[ID] so B_X aligns with every other B_Y. The table never runs
// two jobs sharing a cover in one wave, so no lock is needed. A network that
// fails half-way leaves some permutation of the labelled records (a block
// write rewrites every run its comparators touch); byID stays false and
// the next reader runs the whole network again.
func (e *SortEngine) restoreOrder(st *sortState) error {
	if st.byID {
		return nil
	}
	if err := st.arr.Sort(lessByID, e.workers); err != nil {
		return fmt.Errorf("core: sorting %s by id: %w", st.name, err)
	}
	st.byID = true
	e.metrics.Counter("oblivfd_sort_restores_total").Inc()
	return nil
}

// prepare draws the set's unique server-side array name. Names are drawn
// serially, in job order and only for sets that get built, so naming is
// deterministic under any worker count.
func (e *SortEngine) prepare(relation.AttrSet, [2]relation.AttrSet) (*sortState, error) {
	return &sortState{name: fmt.Sprintf("%s:%d:B", e.instance, e.seq.Add(1))}, nil
}

// destroy frees the set's array. A state whose fill never got as far as a
// handle has nothing on the server: obsort.CreateStreamed removes what it
// could not finish.
func (e *SortEngine) destroy(st *sortState) error {
	if st.arr == nil {
		return nil
	}
	return st.arr.Destroy()
}

// fill builds one set at a time (see fillEach).
func (e *SortEngine) fill(group []target[*sortState]) error {
	return fillEach(group, e.fillSingle, e.fillUnion)
}

// fillSingle materializes B_{attr}. Each block CreateStreamed hands over is
// filled from one column read of the block's records; the per-cell accesses
// the server records are the same ascending scan as a one-at-a-time read.
func (e *SortEngine) fillSingle(st *sortState, attr int) error {
	arr, err := obsort.CreateStreamed(e.edb.svc, e.edb.cipher, st.name, e.n, sortRecWidth, e.metrics,
		func(lo int, recs [][]byte) error {
			vals, err := e.edb.CellValues(lo, lo+len(recs), attr)
			if err != nil {
				return err
			}
			for k, rec := range recs {
				binary.BigEndian.PutUint64(rec, singleKey(e.edb.cipher, vals[k]))
				putLabel(rec[keyWidth:], uint64(lo+k))
			}
			return nil
		})
	if err != nil {
		return fmt.Errorf("core: building A for attr %d: %w", attr, err)
	}
	st.arr = arr
	return e.materialize(st)
}

// fillUnion materializes B_{x1∪x2} from the covers' arrays. Labels are
// extracted positionally: both B arrays are put in r[ID] order, if no earlier
// union has done so, and then B_X1[i] and B_X2[i] describe the same record
// (§IV-D's extraction). Each block CreateStreamed hands over is filled from
// both covers' label records of the block's range — the runs that hold it —
// fused into a single batched round when the storage service supports it.
func (e *SortEngine) fillUnion(st *sortState, x relation.AttrSet, st1, st2 *sortState) error {
	for _, c := range []*sortState{st1, st2} {
		if err := e.restoreOrder(c); err != nil {
			return err
		}
	}
	covers := []*obsort.Array{st1.arr, st2.arr}
	arr, err := obsort.CreateStreamed(e.edb.svc, e.edb.cipher, st.name, e.n, sortRecWidth, e.metrics,
		func(lo int, recs [][]byte) error {
			labels, err := obsort.GetRanges(covers, lo, lo+len(recs))
			if err != nil {
				return err
			}
			for k, rec := range recs {
				r1, r2 := labels[0][k], labels[1][k]
				binary.BigEndian.PutUint64(rec, unionKey(decodeLabel(r1), decodeLabel(r2)))
				copy(rec[keyWidth:], r1[labelWidth:labelRecWidth]) // r[ID], identical in both inputs
			}
			return nil
		})
	if err != nil {
		return fmt.Errorf("core: building A for %v: %w", x, err)
	}
	st.arr = arr
	return e.materialize(st)
}

// ClientMemoryBytes implements Engine. §VII-C reports a constant, and the
// figure returned is that accounting: the encryption key and one in-flight
// record pair at the widest record in use, A's, behind a padding flag only
// where the array holds padding. What a worker of this client really holds
// is two blocks in flight: the one it works on, two runs of
// obsort.RunRecords records in plaintext, and the one sealed before it, two
// runs plus crypto.Overhead bytes of ciphertext awaiting the write that
// rides with the next read; plus its scratch (both blocks' run indices, one
// record for a swap, one associated-data string) — larger, but just as
// independent of n.
func (e *SortEngine) ClientMemoryBytes() int {
	return 16 /* AES key */ + 2*obsort.RecordBytes(e.n, sortRecWidth)
}
