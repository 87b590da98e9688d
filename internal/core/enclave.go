package core

import (
	"encoding/binary"
	"fmt"
	"sync"

	"github.com/oblivfd/oblivfd/internal/obsort"
	"github.com/oblivfd/oblivfd/internal/relation"
)

// EnclaveEngine simulates deploying the sorting protocol inside a
// server-side secure enclave (the paper's SGX experiment, §VII-D, Fig. 6b).
//
// Substitution note (DESIGN.md §2): we do not have SGX hardware, so the
// enclave is modeled as client logic co-located with the data: plaintext
// records live in "secure memory" the untrusted server cannot read, which
// removes exactly the costs the paper's SGX deployment removes — the
// client↔server transfer of every compare-exchange and the re-encryption of
// every value written back. The algorithm itself is unchanged: the same
// bitonic network (obsort.Stages), the same labeling pass, the same
// Property 1 key construction, so the access pattern inside the enclave is
// still data-independent (SGX enclaves leak memory access patterns to the
// host, so obliviousness still matters inside the enclave).
//
// Its parallelism is the sorting network's (workers comparators of a stage at
// a time, what Fig. 6b measures), so it builds one set at a time.
type EnclaveEngine struct {
	setTable[*enclaveState]
	rel     *relation.Relation
	workers int
}

type enclaveState struct {
	// recs is the padded array of (label, id) records as the labelling pass
	// left it, in label order; restoreOrder turns it into labels.
	recs   []enclaveRec
	labels []uint64 // label per r[ID]; nil until the set is first read as a cover
	card   uint64
}

func (st *enclaveState) cardinality() int { return int(st.card) }

// enclaveRec is one in-enclave record: (key-or-label, id), mirroring the
// sorting protocol's records; SecureMemoryBytes counts a kept one at the
// width the protocol keeps after its labelling pass, labelRecWidth (a 4-byte
// label, a 4-byte id).
type enclaveRec struct {
	key uint64
	id  uint64
	pad bool
}

// newEnclaveEngine loads the (decrypted) relation into enclave memory. In a
// real deployment the enclave would decrypt the uploaded ciphertexts with a
// provisioned key; the simulation starts from plaintext directly, which
// costs O(n·m) either way.
func newEnclaveEngine(rel *relation.Relation, workers int) *EnclaveEngine {
	if workers < 1 {
		workers = 1
	}
	e := &EnclaveEngine{rel: rel.Clone(), workers: workers}
	e.setTable = newSetTable[*enclaveState](e, oneSetAtATime)
	return e
}

// NumRows implements Engine.
func (e *EnclaveEngine) NumRows() int { return e.rel.NumRows() }

func (e *EnclaveEngine) prepare(relation.AttrSet, [2]relation.AttrSet) (*enclaveState, error) {
	return &enclaveState{}, nil
}

// destroy has nothing to free: the label arrays live in enclave memory.
func (e *EnclaveEngine) destroy(*enclaveState) error { return nil }

// fill builds one set at a time (see fillEach).
func (e *EnclaveEngine) fill(group []target[*enclaveState]) error {
	return fillEach(group, e.fillSingle, e.fillUnion)
}

func (e *EnclaveEngine) fillSingle(st *enclaveState, attr int) error {
	return e.materialize(st, func(i int) uint64 { return hashValue(e.rel.Value(i, attr)) })
}

func (e *EnclaveEngine) fillUnion(st *enclaveState, _ relation.AttrSet, st1, st2 *enclaveState) error {
	for _, c := range []*enclaveState{st1, st2} {
		if err := e.restoreOrder(c); err != nil {
			return err
		}
	}
	return e.materialize(st, func(i int) uint64 { return unionKey(st1.labels[i], st2.labels[i]) })
}

// restoreOrder is Algorithm 3's last phase, run like SortEngine's when st is
// first read as a cover: bitonic sort back by id, then keep the labels alone.
func (e *EnclaveEngine) restoreOrder(st *enclaveState) error {
	if st.labels != nil {
		return nil
	}
	if err := e.bitonic(st.recs, func(a, b enclaveRec) bool { return a.id < b.id }); err != nil {
		return err
	}
	labels := make([]uint64, e.rel.NumRows())
	for i := range labels {
		labels[i] = st.recs[i].key
	}
	st.labels, st.recs = labels, nil
	return nil
}

// materialize runs Algorithm 3's first two phases on the records (key(i), i).
func (e *EnclaveEngine) materialize(st *enclaveState, key func(i int) uint64) error {
	n := e.rel.NumRows()
	if n == 0 {
		return fmt.Errorf("core: enclave holds an empty relation")
	}
	p := 1
	for p < n {
		p <<= 1
	}
	arr := make([]enclaveRec, p)
	for i := range arr {
		if i < n {
			arr[i] = enclaveRec{key: key(i), id: uint64(i)}
		} else {
			arr[i] = enclaveRec{pad: true}
		}
	}

	// Phase 1: bitonic sort by key (pads last).
	if err := e.bitonic(arr, func(a, b enclaveRec) bool { return a.key < b.key }); err != nil {
		return err
	}
	// Phase 2: dense labeling pass.
	var card uint64
	tmp := arr[0].key
	for i := 0; i < n; i++ {
		if arr[i].key != tmp {
			card++
			tmp = arr[i].key
		}
		arr[i].key = card
	}
	st.recs, st.card = arr, card+1
	return nil
}

// bitonic replays the oblivious network over the in-memory array, with the
// engine's parallelism degree (each stage's comparators are disjoint).
func (e *EnclaveEngine) bitonic(arr []enclaveRec, less func(a, b enclaveRec) bool) error {
	cmpEx := func(lo, hi int64) {
		a, b := arr[lo], arr[hi]
		swap := false
		switch {
		case a.pad && !b.pad:
			swap = true
		case !a.pad && !b.pad:
			swap = less(b, a)
		}
		if swap {
			arr[lo], arr[hi] = b, a
		}
	}
	return obsort.Stages(len(arr), func(pairs [][2]int64) error {
		if e.workers == 1 || len(pairs) < 2*e.workers {
			for _, pr := range pairs {
				cmpEx(pr[0], pr[1])
			}
			return nil
		}
		var wg sync.WaitGroup
		chunk := (len(pairs) + e.workers - 1) / e.workers
		for w := 0; w < e.workers; w++ {
			lo := w * chunk
			if lo >= len(pairs) {
				break
			}
			hi := lo + chunk
			if hi > len(pairs) {
				hi = len(pairs)
			}
			wg.Add(1)
			go func(part [][2]int64) {
				defer wg.Done()
				for _, pr := range part {
					cmpEx(pr[0], pr[1])
				}
			}(pairs[lo:hi])
		}
		wg.Wait()
		return nil
	})
}

// ClientMemoryBytes implements Engine. The untrusted client outside the
// enclave holds nothing; secure memory usage is reported instead.
func (e *EnclaveEngine) ClientMemoryBytes() int { return 0 }

// SecureMemoryBytes estimates enclave-resident memory: the relation plus
// materialized label arrays, or the (label, id) records of a set no union has
// read yet.
func (e *EnclaveEngine) SecureMemoryBytes() int {
	total := e.rel.ByteSize()
	for _, st := range e.sets {
		total += 8*len(st.labels) + labelRecWidth*len(st.recs)
	}
	return total
}

// hashValue maps a cell value to a 64-bit key with FNV-1a. Inside the
// enclave no PRF key is needed; any injective-w.h.p. fixed-width mapping
// preserves partitions.
func hashValue(v string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(v); i++ {
		h ^= uint64(v[i])
		h *= prime
	}
	var lenTag [8]byte
	binary.BigEndian.PutUint64(lenTag[:], uint64(len(v)))
	for _, b := range lenTag {
		h ^= uint64(b)
		h *= prime
	}
	return h
}
