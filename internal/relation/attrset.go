// Package relation defines the plaintext data model shared by every layer:
// schemas, relations (n rows × m attributes), attribute sets, and functional
// dependencies. It mirrors the paper's notation (§II): a database DB has n
// rows and m attributes T = {T_1..T_m}; r[X] is record r's value under
// attribute set X; r[ID] is the record's unique row number.
package relation

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// MaxAttrs is the largest number of attributes an AttrSet can hold. 64 is
// far beyond the paper's datasets (m ≤ 20) and keeps sets a single word.
const MaxAttrs = 64

// AttrSet is a set of attribute indices represented as a bitset; attribute
// i ∈ [m] is present iff bit i is set. The zero value is the empty set.
type AttrSet uint64

// NewAttrSet builds a set from attribute indices.
func NewAttrSet(attrs ...int) AttrSet {
	var s AttrSet
	for _, a := range attrs {
		s = s.Add(a)
	}
	return s
}

// SingleAttr returns the singleton set {a}.
func SingleAttr(a int) AttrSet { return AttrSet(1) << uint(a) }

// Add returns s ∪ {a}.
func (s AttrSet) Add(a int) AttrSet {
	if a < 0 || a >= MaxAttrs {
		panic(fmt.Sprintf("relation: attribute index %d out of range [0,%d)", a, MaxAttrs))
	}
	return s | SingleAttr(a)
}

// Remove returns s \ {a}.
func (s AttrSet) Remove(a int) AttrSet { return s &^ SingleAttr(a) }

// Has reports whether a ∈ s.
func (s AttrSet) Has(a int) bool {
	return a >= 0 && a < MaxAttrs && s&SingleAttr(a) != 0
}

// Union returns s ∪ t.
func (s AttrSet) Union(t AttrSet) AttrSet { return s | t }

// Intersect returns s ∩ t.
func (s AttrSet) Intersect(t AttrSet) AttrSet { return s & t }

// Minus returns s \ t.
func (s AttrSet) Minus(t AttrSet) AttrSet { return s &^ t }

// Contains reports whether t ⊆ s.
func (s AttrSet) Contains(t AttrSet) bool { return s&t == t }

// Size returns |s|.
func (s AttrSet) Size() int { return bits.OnesCount64(uint64(s)) }

// IsEmpty reports whether s is the empty set.
func (s AttrSet) IsEmpty() bool { return s == 0 }

// Attrs returns the attribute indices in ascending order.
func (s AttrSet) Attrs() []int {
	out := make([]int, 0, s.Size())
	for v := uint64(s); v != 0; v &= v - 1 {
		out = append(out, bits.TrailingZeros64(v))
	}
	return out
}

// First returns the smallest attribute index in s, or -1 if s is empty.
func (s AttrSet) First() int {
	if s == 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(s))
}

// Last returns the largest attribute index in s, or -1 if s is empty.
func (s AttrSet) Last() int {
	if s == 0 {
		return -1
	}
	return 63 - bits.LeadingZeros64(uint64(s))
}

// SplitCover returns two distinct proper subsets X1, X2 ⊊ s with
// X1 ∪ X2 = s, as required by the partition-friendly Property 1 (§IV-A).
// It panics if |s| < 2, where no such cover exists. The split removes the
// largest (resp. smallest) attribute, matching the prefix-based covers the
// levelwise lattice has already materialized.
func (s AttrSet) SplitCover() (x1, x2 AttrSet) {
	if s.Size() < 2 {
		panic(fmt.Sprintf("relation: SplitCover on %v needs |X| ≥ 2", s))
	}
	return s.Remove(s.Last()), s.Remove(s.First())
}

// Subsets invokes fn on every non-empty proper subset of s that removes
// exactly one attribute (the "parents" of s in the containment lattice).
func (s AttrSet) Subsets(fn func(sub AttrSet)) {
	for _, a := range s.Attrs() {
		fn(s.Remove(a))
	}
}

// String renders the set as {i,j,...} with attribute indices.
func (s AttrSet) String() string {
	parts := make([]string, 0, s.Size())
	for _, a := range s.Attrs() {
		parts = append(parts, fmt.Sprint(a))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Names renders the set using a schema's attribute names, sorted by index.
func (s AttrSet) Names(schema *Schema) string {
	parts := make([]string, 0, s.Size())
	for _, a := range s.Attrs() {
		parts = append(parts, schema.Name(a))
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ",") + "}"
}

// AllSingletons returns the m singleton sets {0}..{m-1}.
func AllSingletons(m int) []AttrSet {
	out := make([]AttrSet, m)
	for i := range out {
		out[i] = SingleAttr(i)
	}
	return out
}

// FullSet returns {0..m-1}.
func FullSet(m int) AttrSet {
	if m < 0 || m > MaxAttrs {
		panic(fmt.Sprintf("relation: FullSet(%d) out of range", m))
	}
	if m == MaxAttrs {
		return ^AttrSet(0)
	}
	return (AttrSet(1) << uint(m)) - 1
}
