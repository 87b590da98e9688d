// Package core implements the paper's contribution: oblivious partition
// computation at the attribute level (Algorithms 1–5), the set-level
// cardinality check (Theorem 1), and the database-level top-down lattice
// search (TANE-style, with Property 1's partition-friendly guarantee),
// assembled into secure FD discovery protocols:
//
//   - OrEngine  — the ORAM-based method of §IV-C (static + insertions)
//   - ExEngine  — the extended ORAM method of §V (fully dynamic)
//   - SortEngine — the oblivious-sorting method of §IV-D (static, parallel)
//   - PlainEngine — the insecure plaintext comparator used as a baseline
//   - DetEngine — the deterministic-tag comparator (the prior work's leakage)
//   - EnclaveEngine — Algorithm 3 replayed in simulated enclave memory (§VII-D)
//
// All engines share one Engine interface so the lattice (database level) is
// written once and every protocol inherits identical leakage there.
package core

import (
	"encoding/binary"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/oram"
)

// Attribute compression (§IV-B). Every record's value under an attribute
// set X is compressed to a fixed-width pair (key_X, label_X):
//
//   - |X| = 1: the paper uses r[X] itself as key_X. We instead use an
//     8-byte PRF image of r[X] under the client's key, which keeps every
//     ORAM block and sort record the same size for every column and every
//     dataset (collisions occur with probability ≈ n²/2⁶⁴, negligible at
//     the paper's scales). This strictly reduces what block geometry could
//     reveal and preserves the injective-mapping property the algorithms
//     need.
//   - |X| ≥ 2: key_X = label_{X1}·n + label_{X2} ∈ [n²+n], exactly the
//     paper's construction, where X1 ∪ X2 = X are the two previously
//     computed proper subsets guaranteed by Property 1.
//
// label_X ∈ [n] is assigned densely in first-appearance order by the
// incremental card_X counter of Algorithms 1/2/4.

// keyWidth is the fixed ORAM/sort key width in bytes: a PRF image or a pair
// of labels.
const keyWidth = 8

// labelWidth is the width in bytes of a label, a frequency and a record id
// where the ORAM engines store them — in O^KL, O^KLF and O^IKL values and in
// O^IL cells — and of r[ID] in a Sort record.
const labelWidth = 4

// maxLabel bounds labels, frequencies and record ids, so that they fit
// labelWidth bytes and unionKey stays injective. Every one is below the
// database's capacity — an engine draws at most one fresh label per record
// appended, and counts at most its live records — and oram.Setup refuses a
// capacity above oram.MaxCapacity, which is maxLabel: Or-ORAM, whose ORAMs
// and label arrays are sized by that capacity, meets the bound by
// construction. Ex-ORAM's monotone labels, frequencies and ids fit with the
// capacity strictly below it (newExEngine). The Sort engine's ids and labels
// are below n, which newSortEngine holds to at most maxLabel.
const maxLabel = 1 << (8 * labelWidth)

// The build fails if the ORAMs' capacity bound ever exceeds the label bound.
var _ [maxLabel - oram.MaxCapacity]struct{}

// singleKey compresses a single-attribute cell value to its fixed-width
// key_X via the client's PRF.
func singleKey(c *crypto.Cipher, value string) uint64 {
	return c.PRF([]byte(value))
}

// unionKey builds key_X for |X| ≥ 2 from the labels of the two covering
// subsets. The paper pairs them as label1·n + label2 ∈ [n²+n], which is
// injective while labels stay below n. In the dynamic protocol labels must
// keep growing monotonically across insert/delete cycles (reusing a
// decremented card_X as the next label could collide with a live label and
// corrupt superset keys — see ExEngine), so we use the equivalent
// fixed-base pairing label1·2³² + label2, injective for all labels < 2³².
// Same width (8 bytes), same role, strictly safer.
func unionKey(label1, label2 uint64) uint64 {
	return label1<<32 | label2
}

// putLabel writes a label or a frequency, below maxLabel, in labelWidth
// big-endian bytes.
func putLabel(b []byte, v uint64) { binary.BigEndian.PutUint32(b, uint32(v)) }

// decodeLabel reverses putLabel.
func decodeLabel(b []byte) uint64 { return uint64(binary.BigEndian.Uint32(b)) }

// encodeUint64 renders a uint64 as a fixed 8-byte big-endian string, the
// canonical key/value encoding used by every engine.
func encodeUint64(v uint64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return string(b[:])
}

// decodeUint64 reverses encodeUint64 for an 8-byte prefix.
func decodeUint64(s []byte) uint64 {
	return binary.BigEndian.Uint64(s[:8])
}

// idKey encodes a record identifier r[ID] as an ORAM key.
func idKey(id int) string {
	return encodeUint64(uint64(id))
}
