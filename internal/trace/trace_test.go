package trace

import (
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
