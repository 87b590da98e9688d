// Package trace models the view of the persistent adversary (§III-B): the
// complete sequence of server-visible events during a protocol run. The
// server records one Event per storage operation; obliviousness tests
// compare traces of runs on same-size databases with different contents.
//
// What the adversary sees per event: which object was touched, the kind of
// operation, the physical index involved, and ciphertext lengths — never
// plaintext. For ORAM path operations the physical index is the (uniformly
// random) leaf, so Shape normalizes it away before comparison; everything
// else must match exactly for an oblivious protocol.
//
// A cell call (ReadCells, WriteCells) is one event per cell, and a call's
// events are appended together: the events of calls that run concurrently do
// not interleave within a call. A cell call on a tree records its cells as
// ReadTreeCell / WriteTreeCell events, so that Shape can tell a tree's
// positions, which an ORAM round draws from uniform leaves, from an array's,
// which it keeps exactly (see TreeRound).
package trace

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Op enumerates server-visible operation kinds.
type Op uint8

// Operation kinds recorded by the server.
const (
	OpCreateArray Op = iota
	OpReadCell
	OpWriteCell
	OpCreateTree
	OpReadPath
	OpWritePath
	OpWriteBucket
	OpDelete
	OpReveal        // client reveals a public result bit/count to the server's log
	OpCheckpoint    // client marks a recovery epoch (public: a property of timing)
	OpReadTreeCell  // a cell read on a tree: Index is the bucket's flat position
	OpWriteTreeCell // a cell write on a tree, likewise
)

var opNames = [...]string{
	"CreateArray", "ReadCell", "WriteCell", "CreateTree",
	"ReadPath", "WritePath", "WriteBucket", "Delete", "Reveal", "Checkpoint",
	"ReadTreeCell", "WriteTreeCell",
}

// String returns the operation name.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Event is one server-visible storage operation.
type Event struct {
	Op     Op
	Object string // storage object name
	Index  int64  // cell index, or ORAM leaf for path ops
	Bytes  int    // total ciphertext bytes moved
	// First marks the first cell of a tree cell call: two calls of one op
	// on one tree in a row (a fetch sent again) stay two calls (ShapeOf).
	First bool
}

// String renders the event compactly.
func (e Event) String() string {
	return fmt.Sprintf("%s(%s,%d,%dB)", e.Op, e.Object, e.Index, e.Bytes)
}

// Recorder accumulates events. It is safe for concurrent use, and the
// always-on counters are lock-free so recording never serializes the
// parallel sorting workers.
type Recorder struct {
	enabled atomic.Bool
	counts  [len(opNames)]atomic.Int64
	bytes   atomic.Int64

	mu     sync.Mutex // guards events only
	events []Event
}

// NewRecorder returns a recorder; events are only retained after Enable.
// Operation counters and byte totals are always maintained.
func NewRecorder() *Recorder { return &Recorder{} }

// Enable starts retaining full event sequences (memory-heavy; used by
// obliviousness tests and the fdbench trace experiment).
func (r *Recorder) Enable() { r.enabled.Store(true) }

// Disable stops retaining event sequences; counters keep accumulating.
func (r *Recorder) Disable() { r.enabled.Store(false) }

// Record appends an event.
func (r *Recorder) Record(e Event) {
	r.counts[e.Op].Add(1)
	r.bytes.Add(int64(e.Bytes))
	if r.enabled.Load() {
		r.mu.Lock()
		r.events = append(r.events, e)
		r.mu.Unlock()
	}
}

// RecordCells records one op event per cell of a cell call on object: cell
// idx[k] moved cts[k]. It is Record for each cell in turn, with the counters
// updated and the lock taken once per call, and on a tree the call's first
// cell marked First.
func (r *Recorder) RecordCells(op Op, object string, idx []int64, cts [][]byte) {
	var n int
	for _, ct := range cts {
		n += len(ct)
	}
	r.counts[op].Add(int64(len(idx)))
	r.bytes.Add(int64(n))
	if !r.enabled.Load() {
		return
	}
	tree := op == OpReadTreeCell || op == OpWriteTreeCell
	r.mu.Lock()
	for k, i := range idx {
		r.events = append(r.events, Event{Op: op, Object: object, Index: i, Bytes: len(cts[k]), First: tree && k == 0})
	}
	r.mu.Unlock()
}

// Reset clears retained events and counters.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.events = nil
	r.mu.Unlock()
	for i := range r.counts {
		r.counts[i].Store(0)
	}
	r.bytes.Store(0)
}

// Events returns a copy of the retained event sequence.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Count returns how many events of the given op were recorded since Reset.
func (r *Recorder) Count(op Op) int64 { return r.counts[op].Load() }

// TotalOps returns the total number of events since Reset.
func (r *Recorder) TotalOps() int64 {
	var total int64
	for i := range r.counts {
		total += r.counts[i].Load()
	}
	return total
}

// TotalBytes returns the total ciphertext bytes moved since Reset.
func (r *Recorder) TotalBytes() int64 { return r.bytes.Load() }

// Shape is a trace with data-independent content only: for path operations
// the leaf index is replaced by -1 (it is sampled uniformly by the client
// and carries no information about the database contents beyond its length),
// and a tree cell call whose positions form a treetop round has each position
// replaced by its level (see TreeRound). Every other index is kept.
type Shape []Event

// ShapeOf normalizes a trace for comparison. A tree cell call is its First
// event and the events of its op on its object that follow it, which is how
// the server records it.
func ShapeOf(events []Event) Shape {
	out := make(Shape, len(events))
	copy(out, events)
	var pos []int64
	for i := 0; i < len(out); {
		e := out[i]
		switch e.Op {
		case OpReadPath, OpWritePath:
			out[i].Index = -1
		case OpReadTreeCell, OpWriteTreeCell:
			j := i + 1
			for j < len(out) && out[j].Op == e.Op && out[j].Object == e.Object && !out[j].First {
				j++
			}
			pos = pos[:0]
			for _, c := range out[i:j] {
				pos = append(pos, c.Index)
			}
			for k, p := range TreeRound(pos) {
				out[i+k].Index = p
			}
			i = j
			continue
		}
		i++
	}
	return out
}

// TreeRound returns what a Shape keeps of pos, the bucket positions of one
// cell call on a tree in the order sent (heap order, root = 0, one cell per
// bucket). When they form a treetop round — every bucket of the top t levels
// in heap order, then r chains, each running from a bucket at level t down
// through a child at each level to the deepest level any of them reaches —
// each position becomes −1 − its level: a sequence that is a function of
// (t, r, L) alone, where the positions are a function of (t, r, L) and the
// r leaves the chains end at. Any other set of positions is returned as it
// is, so a round whose positions follow anything but that structure shows
// raw and fails every comparison of shapes. A round may fit the structure
// under more than one t (the top t levels and 2^t chains of length one are
// the top t + 1 levels); the levels are the same under each.
func TreeRound(pos []int64) []int64 {
	out := slices.Clone(pos)
	if !isTreeRound(pos) {
		return out
	}
	for k, p := range pos {
		out[k] = -1 - int64(level(p))
	}
	return out
}

// level is the level of heap position p, the root's 0.
func level(p int64) int { return bits.Len64(uint64(p)+1) - 1 }

// isTreeRound reports whether pos is a treetop round (see TreeRound) for
// some t, the leaf level being the deepest level in pos.
func isTreeRound(pos []int64) bool {
	if len(pos) == 0 || slices.Min(pos) < 0 {
		return false
	}
	levels := level(slices.Max(pos)) + 1
	inOrder := 0 // how many leading positions are 0, 1, 2, …
	for inOrder < len(pos) && pos[inOrder] == int64(inOrder) {
		inOrder++
	}
	for t := 0; t <= levels && 1<<t-1 <= inOrder; t++ {
		top, seg := 1<<t-1, levels-t
		rest := len(pos) - top
		if seg == 0 {
			if rest == 0 {
				return true
			}
			continue
		}
		if rest == 0 || rest%seg != 0 {
			continue
		}
		chains := true
		for c := top; c < len(pos) && chains; c += seg {
			chains = level(pos[c]) == t
			for j := c + 1; j < c+seg && chains; j++ {
				chains = pos[j] > 0 && (pos[j]-1)/2 == pos[j-1]
			}
		}
		if chains {
			return true
		}
	}
	return false
}

// Canonical returns a copy of the shape with object names replaced by
// placeholders ("obj0", "obj1", …) in order of first appearance. Object
// names are chosen by the client data-independently (they embed process-
// local counters), so comparing two independent runs requires canonical
// names; distinctness of objects is preserved, which is all the adversary
// learns from names.
func (s Shape) Canonical() Shape {
	names := make(map[string]string)
	out := make(Shape, len(s))
	for i, e := range s {
		canon, ok := names[e.Object]
		if !ok {
			canon = fmt.Sprintf("obj%d", len(names))
			names[e.Object] = canon
		}
		e.Object = canon
		out[i] = e
	}
	return out
}

// CanonicalPerStructure returns a canonical form that is invariant under
// interleaving of accesses to *distinct* objects, while preserving the exact
// per-object access sequence. It groups events by object (keeping each
// object's internal order), renders every group, sorts the groups by their
// rendered content, and reassigns placeholder names ("obj0", "obj1", …) in
// sorted order. Two runs have equal CanonicalPerStructure shapes iff they
// touch the same multiset of per-object access sequences — exactly the
// obliviousness invariant for level-parallel execution (DESIGN.md §11):
// each structure's sequence is unchanged from the serial run; only the
// cross-structure interleaving (scheduling noise) differs. Groups with
// identical content are interchangeable, so ties sort stably by content
// alone without affecting equality.
func (s Shape) CanonicalPerStructure() Shape {
	type group struct {
		events   []Event
		rendered string
	}
	byObj := make(map[string]*group)
	var order []*group
	for _, e := range s {
		g, ok := byObj[e.Object]
		if !ok {
			g = &group{}
			byObj[e.Object] = g
			order = append(order, g)
		}
		e.Object = "" // blanked: identity is carried by group membership
		g.events = append(g.events, e)
	}
	for _, g := range order {
		var b strings.Builder
		for _, e := range g.events {
			b.WriteString(e.String())
			b.WriteByte('\n')
		}
		g.rendered = b.String()
	}
	sort.Slice(order, func(i, j int) bool { return order[i].rendered < order[j].rendered })
	out := make(Shape, 0, len(s))
	for i, g := range order {
		name := fmt.Sprintf("obj%d", i)
		for _, e := range g.events {
			e.Object = name
			out = append(out, e)
		}
	}
	return out
}

// Equal reports whether two shapes are identical.
func (s Shape) Equal(t Shape) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Diff returns a human-readable description of the first few positions where
// the shapes differ, or "" if they are equal.
func (s Shape) Diff(t Shape) string {
	var b strings.Builder
	if len(s) != len(t) {
		fmt.Fprintf(&b, "lengths differ: %d vs %d\n", len(s), len(t))
	}
	n := len(s)
	if len(t) < n {
		n = len(t)
	}
	reported := 0
	for i := 0; i < n && reported < 5; i++ {
		if s[i] != t[i] {
			fmt.Fprintf(&b, "event %d: %v vs %v\n", i, s[i], t[i])
			reported++
		}
	}
	return b.String()
}
