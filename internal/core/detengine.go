package core

import (
	"fmt"
	"sync/atomic"

	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
)

// DetEngine reproduces the security level of the paper's main prior work
// (Dong & Wang, ICDE 2017 — the paper's [14]): FD discovery over
// *deterministically* encrypted cells. Equal plaintexts produce equal
// ciphertexts, so the partition of any column is computable by anyone who
// can read the stored ciphertexts — including the server. Discovery is fast
// (no ORAM, no oblivious sorting; one linear grouping pass per attribute
// set), but the server learns the full frequency histogram of every column,
// the leakage the paper calls "extremely dangerous" (§I-B) and which
// frequency-analysis attacks exploit (see TestFrequencyAttack…).
//
// It exists as the insecure-but-fast comparator the secure protocols
// replace. DO NOT use it for sensitive data.
type DetEngine struct {
	setTable[*detState]
	edb      *EncryptedDB
	instance string
	n        int
}

type detState struct {
	x      relation.AttrSet
	labels []uint64
	card   uint64
}

func (st *detState) cardinality() int { return int(st.card) }

var detEngines atomic.Int64

// newDetEngine builds a deterministic-encryption engine over an uploaded
// database. The EncryptedDB's cells stay semantically secure; the engine
// additionally derives and stores per-cell deterministic tags on the
// server, which is what creates the frequency leakage (Dong & Wang encrypt
// the cells themselves deterministically; storing tags beside semantically
// secure cells leaks the same information and keeps the upload format
// shared with the other engines).
func newDetEngine(edb *EncryptedDB) *DetEngine {
	e := &DetEngine{
		edb:      edb,
		instance: fmt.Sprintf("det%d", detEngines.Add(1)),
		n:        edb.NumRows(),
	}
	e.setTable = newSetTable[*detState](e, oneSetAtATime)
	return e
}

// NumRows implements Engine.
func (e *DetEngine) NumRows() int { return e.n }

// tagArrayName is the server object holding a set's deterministic tags.
func (e *DetEngine) tagArrayName(x relation.AttrSet) string {
	return fmt.Sprintf("%s:%x:TAGS", e.instance, uint64(x))
}

func (e *DetEngine) prepare(x relation.AttrSet, _ [2]relation.AttrSet) (*detState, error) {
	return &detState{x: x}, nil
}

func (e *DetEngine) destroy(st *detState) error { return e.edb.svc.Delete(e.tagArrayName(st.x)) }

// materialize publishes the tag column to the server (the leakage!) and
// groups it into a partition.
func (e *DetEngine) materialize(st *detState, tags []uint64) error {
	// Publish: the server stores the deterministic tags in the clear.
	// (They are PRF images, but equal values collide — that equality
	// pattern IS the frequency leakage.)
	// One batch: the array's create, then its cells.
	name := e.tagArrayName(st.x)
	write := store.BatchOp{Write: true, Name: name, Idx: make([]int64, len(tags)), Cts: make([][]byte, len(tags))}
	for i, tag := range tags {
		write.Idx[i], write.Cts[i] = int64(i), []byte(encodeUint64(tag))
	}
	if _, err := store.DoBatch(e.edb.svc, []store.BatchOp{store.CreateArrayOp(name, len(tags)), write}); err != nil {
		return fmt.Errorf("core: publishing tags for %v: %w", st.x, err)
	}

	// Group — this is exactly the computation the server could run by
	// itself on the published tags.
	st.labels = make([]uint64, len(tags))
	seen := make(map[uint64]uint64, len(tags))
	for i, tag := range tags {
		lbl, ok := seen[tag]
		if !ok {
			lbl = st.card
			st.card++
			seen[tag] = lbl
		}
		st.labels[i] = lbl
	}
	return nil
}

// fill builds one set at a time (see fillEach).
func (e *DetEngine) fill(group []target[*detState]) error {
	return fillEach(group, e.fillSingle, e.fillUnion)
}

func (e *DetEngine) fillSingle(st *detState, attr int) error {
	tags := make([]uint64, e.n)
	for i := 0; i < e.n; i++ {
		v, err := e.edb.CellValue(i, attr)
		if err != nil {
			return err
		}
		tags[i] = singleKey(e.edb.cipher, v) // deterministic PRF tag
	}
	return e.materialize(st, tags)
}

func (e *DetEngine) fillUnion(st *detState, _ relation.AttrSet, st1, st2 *detState) error {
	tags := make([]uint64, e.n)
	for i := 0; i < e.n; i++ {
		tags[i] = unionKey(st1.labels[i], st2.labels[i])
	}
	return e.materialize(st, tags)
}

// ClientMemoryBytes implements Engine.
func (e *DetEngine) ClientMemoryBytes() int {
	total := 0
	for _, st := range e.sets {
		total += 8 * len(st.labels)
	}
	return total
}
