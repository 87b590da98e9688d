package trace

import (
	"math/bits"
	"slices"
	"sync"
	"testing"
)

func TestOpString(t *testing.T) {
	if OpReadPath.String() != "ReadPath" {
		t.Errorf("OpReadPath = %q", OpReadPath.String())
	}
	if Op(200).String() == "" {
		t.Error("unknown op renders empty")
	}
}

func TestRecorderCountsWithoutEnable(t *testing.T) {
	r := NewRecorder()
	r.Record(Event{Op: OpReadCell, Bytes: 10})
	r.Record(Event{Op: OpReadCell, Bytes: 5})
	r.Record(Event{Op: OpWriteCell, Bytes: 1})
	if got := r.Count(OpReadCell); got != 2 {
		t.Errorf("Count(ReadCell) = %d", got)
	}
	if got := r.TotalOps(); got != 3 {
		t.Errorf("TotalOps = %d", got)
	}
	if got := r.TotalBytes(); got != 16 {
		t.Errorf("TotalBytes = %d", got)
	}
	if got := r.Events(); len(got) != 0 {
		t.Errorf("events retained without Enable: %v", got)
	}
}

func TestRecorderEnableDisableReset(t *testing.T) {
	r := NewRecorder()
	r.Enable()
	r.Record(Event{Op: OpDelete, Object: "x"})
	r.Disable()
	r.Record(Event{Op: OpDelete, Object: "y"})
	ev := r.Events()
	if len(ev) != 1 || ev[0].Object != "x" {
		t.Errorf("Events = %v", ev)
	}
	r.Reset()
	if r.TotalOps() != 0 || len(r.Events()) != 0 {
		t.Error("Reset did not clear state")
	}
}

// TestRecordCellsIsRecordPerCell: one RecordCells call leaves the events,
// counts and bytes that a Record per cell does, whether events are retained
// or not.
func TestRecordCellsIsRecordPerCell(t *testing.T) {
	idx := []int64{7, 0, 3}
	cts := [][]byte{make([]byte, 45), nil, make([]byte, 12)}
	for _, enabled := range []bool{false, true} {
		perCell, perCall := NewRecorder(), NewRecorder()
		if enabled {
			perCell.Enable()
			perCall.Enable()
		}
		for _, r := range []*Recorder{perCell, perCall} {
			r.Record(Event{Op: OpCreateArray, Object: "a", Index: 8})
		}
		for k, i := range idx {
			perCell.Record(Event{Op: OpWriteCell, Object: "a", Index: i, Bytes: len(cts[k])})
		}
		perCall.RecordCells(OpWriteCell, "a", idx, cts)
		if got, want := perCall.Count(OpWriteCell), perCell.Count(OpWriteCell); got != want || got != 3 {
			t.Errorf("enabled=%v: Count(WriteCell) = %d, want %d", enabled, got, want)
		}
		if got, want := perCall.TotalBytes(), perCell.TotalBytes(); got != want || got != 57 {
			t.Errorf("enabled=%v: TotalBytes = %d, want %d", enabled, got, want)
		}
		if got, want := ShapeOf(perCall.Events()), ShapeOf(perCell.Events()); !got.Equal(want) {
			t.Errorf("enabled=%v: events differ:\n%s", enabled, got.Diff(want))
		}
	}
}

func TestRecorderConcurrentSafe(t *testing.T) {
	r := NewRecorder()
	r.Enable()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(Event{Op: OpReadCell, Bytes: 1})
			}
		}()
	}
	wg.Wait()
	if got := r.TotalOps(); got != 800 {
		t.Errorf("TotalOps = %d, want 800", got)
	}
	if got := len(r.Events()); got != 800 {
		t.Errorf("Events len = %d, want 800", got)
	}
}

func TestShapeEqualAndDiff(t *testing.T) {
	a := []Event{
		{Op: OpReadPath, Object: "t", Index: 3, Bytes: 10},
		{Op: OpWritePath, Object: "t", Index: 3, Bytes: 10},
		{Op: OpReveal, Object: "fd", Index: 1},
	}
	b := []Event{
		{Op: OpReadPath, Object: "t", Index: 7, Bytes: 10},
		{Op: OpWritePath, Object: "t", Index: 1, Bytes: 10},
		{Op: OpReveal, Object: "fd", Index: 1},
	}
	if !ShapeOf(a).Equal(ShapeOf(b)) {
		t.Error("shapes differing only in path leaves unequal")
	}
	c := append([]Event(nil), b...)
	c[2].Index = 0 // reveal value IS part of the shape (allowed leakage)
	if ShapeOf(a).Equal(ShapeOf(c)) {
		t.Error("differing reveal values compare equal")
	}
	if ShapeOf(a).Diff(ShapeOf(c)) == "" {
		t.Error("Diff empty for unequal shapes")
	}
	short := ShapeOf(a[:2])
	if ShapeOf(a).Equal(short) {
		t.Error("different lengths compare equal")
	}
	if ShapeOf(a).Diff(short) == "" {
		t.Error("Diff empty for different lengths")
	}
}

func TestCanonicalRenamesStably(t *testing.T) {
	a := ShapeOf([]Event{
		{Op: OpReadCell, Object: "run1:alpha", Index: 1},
		{Op: OpWriteCell, Object: "run1:beta", Index: 2},
		{Op: OpReadCell, Object: "run1:alpha", Index: 3},
	})
	b := ShapeOf([]Event{
		{Op: OpReadCell, Object: "run2:gamma", Index: 1},
		{Op: OpWriteCell, Object: "run2:delta", Index: 2},
		{Op: OpReadCell, Object: "run2:gamma", Index: 3},
	})
	if a.Equal(b) {
		t.Fatal("raw shapes with different names should differ")
	}
	if !a.Canonical().Equal(b.Canonical()) {
		t.Error("canonical shapes with isomorphic names differ")
	}
	// Distinctness is preserved: collapsing two objects must NOT compare
	// equal to the two-object trace.
	c := ShapeOf([]Event{
		{Op: OpReadCell, Object: "x", Index: 1},
		{Op: OpWriteCell, Object: "x", Index: 2},
		{Op: OpReadCell, Object: "x", Index: 3},
	})
	if a.Canonical().Equal(c.Canonical()) {
		t.Error("canonicalization erased object distinctness")
	}
}

func TestEventString(t *testing.T) {
	e := Event{Op: OpReadCell, Object: "a", Index: 2, Bytes: 16}
	if got := e.String(); got != "ReadCell(a,2,16B)" {
		t.Errorf("String = %q", got)
	}
}

// treetopRound returns the positions of a treetop round on a tree of levels
// levels: the top t levels in heap order, then the chain from level t to the
// leaf level of each leaf.
func treetopRound(levels, t int, leaves ...int64) []int64 {
	var pos []int64
	for p := int64(0); p < 1<<t-1; p++ {
		pos = append(pos, p)
	}
	for _, leaf := range leaves {
		for l := t; l < levels; l++ {
			pos = append(pos, 1<<l-1+leaf>>(levels-1-l))
		}
	}
	return pos
}

// treeCalls renders each position list as one tree cell call's events.
func treeCalls(op Op, calls ...[]int64) []Event {
	var events []Event
	for _, pos := range calls {
		for k, p := range pos {
			events = append(events, Event{Op: op, Object: "t", Index: p, Bytes: 144, First: k == 0})
		}
		events = append(events, Event{Op: OpReadCell, Object: "a", Index: 0, Bytes: 8}) // a call in between
	}
	return events
}

// TestTreetopRoundsShapeByLevel: two treetop rounds with the same (t, r, L)
// and different leaves, repeats among them included, have equal shapes, and
// the shape holds each position's level; rounds with another t or r differ.
func TestTreetopRoundsShapeByLevel(t *testing.T) {
	for _, op := range []Op{OpReadTreeCell, OpWriteTreeCell} {
		a := ShapeOf(treeCalls(op, treetopRound(5, 2, 0, 9, 9, 15), treetopRound(5, 0, 3)))
		b := ShapeOf(treeCalls(op, treetopRound(5, 2, 14, 2, 7, 1), treetopRound(5, 0, 12)))
		if !a.Equal(b) {
			t.Errorf("%v: equal (t, r, L), different leaves:\n%s", op, a.Diff(b))
		}
		if got, want := a[0].Index, int64(-1); got != want {
			t.Errorf("%v: the root's position shapes as %d, want %d", op, got, want)
		}
		if got, want := a[3].Index, int64(-3); got != want { // the first chain's first bucket, level 2
			t.Errorf("%v: a level-2 position shapes as %d, want %d", op, got, want)
		}
		for _, other := range [][]int64{
			treetopRound(5, 3, 0, 9, 9, 15), // another t
			treetopRound(5, 2, 0, 9, 9),     // another r
		} {
			c := ShapeOf(treeCalls(op, other, treetopRound(5, 0, 3)))
			if a.Equal(c) {
				t.Errorf("%v: rounds of another t or r shape alike", op)
			}
		}
	}
}

// TestTreetopRoundMovedOffStaysRaw: a treetop round with one position moved
// off the structure — a chain bucket that is no child of the one above it, a
// top bucket out of heap order, a chain that stops short of the leaf level —
// keeps its raw positions, so its shape differs from that of a round of the
// same (t, r, L), and from a copy of itself with other leaves.
func TestTreetopRoundMovedOffStaysRaw(t *testing.T) {
	good := treetopRound(5, 2, 0, 9, 9, 15)
	moved := func(edit func([]int64) []int64) []int64 { return edit(slices.Clone(good)) }
	for _, c := range []struct {
		name string
		pos  []int64
	}{
		{"chain bucket under another parent", moved(func(p []int64) []int64 { p[5] = 17; return p })},
		{"top bucket out of order", moved(func(p []int64) []int64 { p[1], p[2] = p[2], p[1]; return p })},
		{"chain stops a level short", moved(func(p []int64) []int64 { return append(p[:len(p)-1:len(p)-1], 0) })},
		{"a bucket of another leaf's chain", moved(func(p []int64) []int64 { p[4] = 9; return p })},
	} {
		if got := TreeRound(c.pos); !slices.Equal(got, c.pos) {
			t.Errorf("%s: %v normalized to %v", c.name, c.pos, got)
		}
		a, b := ShapeOf(treeCalls(OpReadTreeCell, good)), ShapeOf(treeCalls(OpReadTreeCell, c.pos))
		if a.Equal(b) {
			t.Errorf("%s: shape equals a valid round's", c.name)
		}
	}
	if got := TreeRound(good); slices.Equal(got, good) {
		t.Errorf("a valid round was left raw: %v", got)
	}
}

// TestTreeRoundEdgeCases: the whole tree read once (t = L), a single path
// (t = 0, r = 1), the ambiguous parse of 2^t chains of length one, and the
// array ops, which are never normalized.
func TestTreeRoundEdgeCases(t *testing.T) {
	for _, pos := range [][]int64{
		treetopRound(4, 4),          // the whole tree
		treetopRound(4, 0, 6),       // one path
		treetopRound(3, 2, 0, 1, 2), // top 2 levels, chains of length 1
		treetopRound(3, 2, 3, 2, 1, 0),
	} {
		got := TreeRound(pos)
		for k, p := range pos {
			if want := -1 - int64(bits.Len64(uint64(p)+1)-1); got[k] != want {
				t.Fatalf("%v: position %d shapes as %d, want %d", pos, p, got[k], want)
			}
		}
	}
	cells := []Event{{Op: OpReadCell, Object: "a", Index: 0}, {Op: OpReadCell, Object: "a", Index: 1}, {Op: OpReadCell, Object: "a", Index: 2}}
	if got := ShapeOf(cells); !got.Equal(Shape(cells)) {
		t.Errorf("array cells normalized: %v", got)
	}
	for _, pos := range [][]int64{{}, {-1}, {1}, {2, 1}, {0, 3}} {
		if !slices.Equal(TreeRound(pos), pos) {
			t.Errorf("%v normalized to %v", pos, TreeRound(pos))
		}
	}
}
