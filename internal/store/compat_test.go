package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Compatibility pins: testdata/v3-state.snap and testdata/v2-repair-wal.log
// were written at commit b309b58, the last build whose server kept arrays and
// trees in separate maps and logged a tree repair with flag 1. The tests
// below hold every later build to reading them, and to writing the same
// snapshot bytes for the same state.

const (
	pinnedSnapshot  = "v3-state.snap"
	pinnedRepairLog = "v2-repair-wal.log"
)

// compatState builds the state v3-state.snap holds: root arrays (one empty)
// and trees, a tenant's array and tree, and both recovery marks with
// mutations after them.
func compatState(t testing.TB) *Server {
	t.Helper()
	s := NewServer()
	cells := func(n int, seed byte) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = bytes.Repeat([]byte{seed + byte(i)}, 1+i%5)
		}
		return out
	}
	for _, err := range []error{
		s.CreateArray("a", 4),
		s.WriteCells("a", []int64{0, 2, 3}, [][]byte{{1, 2, 3}, {}, bytes.Repeat([]byte{0xa5}, 40)}),
		s.CreateArray("empty", 0),
		s.CreateTree("t", 3, 2),
		s.WriteBuckets("t", 0, cells(14, 0x10)),
		s.WritePath("t", 2, cells(6, 0x40)),
		s.CreateTree("u", 1, 3),
		CheckpointIn(s, "tenant", 5),
		s.CreateArray("tenant/a", 2),
		s.WriteCells("tenant/a", []int64{1}, [][]byte{{7, 7}}),
		s.CreateTree("tenant/t", 2, 1),
		s.WriteBuckets("tenant/t", 1, cells(2, 0x70)),
		s.Checkpoint(3),
		s.WriteCells("a", []int64{1}, [][]byte{{9}}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestSnapshotBytesPinned(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", pinnedSnapshot))
	if err != nil {
		t.Fatal(err)
	}
	s := compatState(t)
	var got bytes.Buffer
	if err := s.SaveSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("SaveSnapshot wrote %d bytes that differ from the pinned %d", got.Len(), len(want))
	}

	loaded := NewServer()
	if err := loaded.LoadSnapshot(bytes.NewReader(want)); err != nil {
		t.Fatalf("pinned snapshot does not load: %v", err)
	}
	var again bytes.Buffer
	if err := loaded.SaveSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Error("the pinned snapshot, loaded and saved, changed")
	}
	for _, db := range []string{"", "tenant"} {
		stWant, _ := StatsIn(s, db)
		if st, _ := StatsIn(loaded, db); st != stWant {
			t.Errorf("namespace %q: loaded stats %+v, want %+v", db, st, stWant)
		}
	}
	if names, want := loaded.ObjectNames(), s.ObjectNames(); !reflect.DeepEqual(names, want) {
		t.Errorf("loaded objects %v, want %v", names, want)
	}
	if _, err := loaded.ReadPath("t", 2); err != nil {
		t.Errorf("ReadPath on the loaded tree: %v", err)
	}
}

// pinnedRepairRecords is what v2-repair-wal.log holds: an array and a tree
// written, then a repair of each installing bytes that differ from the ones
// written, so a replay that skipped or misplaced a repair shows.
func pinnedRepairRecords() []*Op {
	return []*Op{
		{Kind: KindCreateArray, Name: "a", N: 4},
		{Kind: KindWriteCells, Name: "a", Idx: []int64{0, 1, 2, 3}, Cts: [][]byte{{0xa0}, {0xa1}, {0xa2}, {0xa3}}},
		{Kind: KindCreateTree, Name: "t", Levels: 2, Slots: 2},
		{Kind: KindWriteBuckets, Name: "t", N: 0, Cts: [][]byte{{0x70}, {0x71}, {0x72}, {0x73}, {0x74}, {0x75}}},
		{Kind: KindRepair, Name: "t", N: 1, Idx: []int64{4}, Cts: [][]byte{{0xee, 0x74}}},
		{Kind: KindRepair, Name: "a", N: 0, Idx: []int64{1}, Cts: [][]byte{{0xee, 0xa1}}},
	}
}

// TestPinnedRepairLogReplays: a log whose tree repair carries the old flag 1
// and whose array repair carries 0 replays, and both repairs install their
// bytes into the object they name, without counting as mutations.
func TestPinnedRepairLogReplays(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", pinnedRepairLog))
	if err != nil {
		t.Fatal(err)
	}
	records, _, torn, err := scanWAL(bytes.NewReader(raw))
	if err != nil || torn {
		t.Fatalf("scanning the pinned log: torn %v, %v", torn, err)
	}
	if want := pinnedRepairRecords(); !reflect.DeepEqual(records, want) {
		t.Fatalf("pinned log decodes to %+v, want %+v", records, want)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("OpenDir over the pinned log: %v", err)
	}
	defer d.Close()
	cells, err := d.ReadCells("a", []int64{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]byte{{0xa0}, {0xee, 0xa1}, {0xa2}, {0xa3}}; !reflect.DeepEqual(cells, want) {
		t.Errorf("array after replay = %v, want %v", cells, want)
	}
	slots, err := d.ReadPath("t", 1) // buckets 0 and 2: slots 0, 1, 4, 5
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]byte{{0x70}, {0x71}, {0xee, 0x74}, {0x75}}; !reflect.DeepEqual(slots, want) {
		t.Errorf("tree path after replay = %v, want %v", slots, want)
	}
	st, err := d.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.StoredBytes != 4+1+6+1 || st.MutationsSinceEpoch != 4 {
		t.Errorf("stats after replay = %+v, want 12 stored bytes and 4 mutations", st)
	}
}

// walPayloads splits a log into its frames' payloads.
func walPayloads(t testing.TB, log []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for len(log) > 0 {
		if len(log) < walHeaderLen {
			t.Fatalf("log ends in a %d-byte partial header", len(log))
		}
		end := walHeaderLen + int(binary.LittleEndian.Uint32(log))
		if end > len(log) {
			t.Fatalf("log ends in a partial frame")
		}
		out = append(out, log[walHeaderLen:end])
		log = log[end:]
	}
	return out
}
