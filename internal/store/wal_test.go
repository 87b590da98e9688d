package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// testRecords is a representative mutation sequence: creates, overwrites, a
// delete-then-recreate, tree traffic, and a checkpoint mark.
func testRecords() []*Op {
	return []*Op{
		{Kind: KindCreateArray, Name: "a", N: 4},
		{Kind: KindWriteCells, Name: "a", Idx: []int64{0, 3}, Cts: [][]byte{{1}, {2, 3}}},
		{Kind: KindCreateTree, Name: "t", Levels: 3, Slots: 2},
		{Kind: KindWritePath, Name: "t", Leaf: 1, Cts: [][]byte{{9}, {8}, {7}, nil, nil, nil}},
		{Kind: KindWriteBuckets, Name: "t", N: 0, Cts: [][]byte{{5}, nil}},
		{Kind: KindDelete, Name: "a"},
		{Kind: KindCreateArray, Name: "a", N: 2},
		{Kind: KindWriteCells, Name: "a", Idx: []int64{1}, Cts: [][]byte{{42}}},
		{Kind: KindCheckpoint, Value: 7},
	}
}

func encodeAll(t *testing.T, recs []*Op) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, rec := range recs {
		frame, err := encodeWALRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(frame)
	}
	return buf.Bytes()
}

func TestWALRecordRoundTrip(t *testing.T) {
	for _, rec := range testRecords() {
		frame, err := encodeWALRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, validEnd, torn, err := scanWAL(bytes.NewReader(frame))
		if err != nil || torn || len(got) != 1 {
			t.Fatalf("%v: scan = %d records, torn %v, err %v", rec.Kind, len(got), torn, err)
		}
		if validEnd != int64(len(frame)) {
			t.Errorf("%v: consumed %d bytes, frame is %d", rec.Kind, validEnd, len(frame))
		}
		if !reflect.DeepEqual(got[0], rec) {
			t.Errorf("round trip: got %+v, want %+v", got[0], rec)
		}
	}
}

func TestScanWALStopsAtTornTail(t *testing.T) {
	recs := testRecords()
	data := encodeAll(t, recs)
	// Append a torn frame: the first half of another record.
	extra, err := encodeWALRecord(&Op{Kind: KindWriteCells, Name: "a", Idx: []int64{0}, Cts: [][]byte{{1, 2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte(nil), data...), extra[:len(extra)/2]...)

	got, validEnd, isTorn, err := scanWAL(bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	if !isTorn {
		t.Error("torn tail not detected")
	}
	if len(got) != len(recs) {
		t.Errorf("scanned %d records, want %d", len(got), len(recs))
	}
	if validEnd != int64(len(data)) {
		t.Errorf("validEnd = %d, want %d", validEnd, len(data))
	}
}

func TestScanWALGarbage(t *testing.T) {
	recs, validEnd, torn, err := scanWAL(bytes.NewReader([]byte("this is not a log")))
	if len(recs) != 0 || validEnd != 0 || !torn || err != nil {
		t.Errorf("garbage scan = %d records, end %d, torn %v, err %v", len(recs), validEnd, torn, err)
	}
}

// TestWALReplayIdempotent is the recovery-correctness core: replaying the
// same log once or twice must converge to the same state, because a crash
// between snapshot rename and log truncation makes recovery replay records
// the snapshot already absorbed.
func TestWALReplayIdempotent(t *testing.T) {
	recs := testRecords()

	once := NewServer()
	if err := replayWAL(once, recs); err != nil {
		t.Fatalf("first replay: %v", err)
	}
	statsOnce, _ := once.Stats()

	twice := NewServer()
	if err := replayWAL(twice, recs); err != nil {
		t.Fatal(err)
	}
	if err := replayWAL(twice, recs); err != nil {
		t.Fatalf("second replay over same state: %v", err)
	}
	statsTwice, _ := twice.Stats()

	if statsOnce.Objects != statsTwice.Objects || statsOnce.StoredBytes != statsTwice.StoredBytes ||
		statsOnce.Epoch != statsTwice.Epoch || statsOnce.MutationsSinceEpoch != statsTwice.MutationsSinceEpoch {
		t.Errorf("double replay diverged: once %+v, twice %+v", statsOnce, statsTwice)
	}
	for _, s := range []*Server{once, twice} {
		got, err := s.ReadCells("a", []int64{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != nil || !bytes.Equal(got[1], []byte{42}) {
			t.Errorf("cells after replay = %v", got)
		}
		if s.Epoch() != 7 {
			t.Errorf("epoch after replay = %d, want 7", s.Epoch())
		}
	}
}

func TestWALReplayRejectsMidLogFailure(t *testing.T) {
	// A write to an object no create established cannot extend any snapshot:
	// that is corruption, not a torn tail.
	recs := []*Op{{Kind: KindWriteCells, Name: "ghost", Idx: []int64{0}, Cts: [][]byte{{1}}}}
	err := replayWAL(NewServer(), recs)
	if !errors.Is(err, ErrCorruptWAL) {
		t.Errorf("replay of dangling write = %v, want ErrCorruptWAL", err)
	}
}

func TestWALWriterTornAppendRecoverable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, walName)
	w, err := openWALWriter(OSFS, path)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	for _, rec := range recs {
		if err := w.append(encodeAll(t, []*Op{rec})); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.appendTorn(encodeAll(t, []*Op{{Kind: KindDelete, Name: "a"}})); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, _, torn, err := scanWAL(f)
	if err != nil {
		t.Fatal(err)
	}
	if !torn {
		t.Error("torn append not detected on disk")
	}
	if len(got) != len(recs) {
		t.Errorf("recovered %d records, want %d", len(got), len(recs))
	}
}
