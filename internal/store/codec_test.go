package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// codecRecords covers every kind the log carries — the mutating Service
// kinds, Promote and Repair of cells and of slots — with the ciphertext
// shapes callers actually produce: absent, empty, and lists holding nil and
// zero-length elements (both of which mean "this cell was never written").
func codecRecords() []*Op {
	return []*Op{
		{Kind: KindCreateArray, Name: "db/a", N: 4096},
		{Kind: KindCreateArray, Name: "", N: 0},
		{Kind: KindWriteCells, Name: "a", Idx: []int64{0, 1, 2, 63}, Cts: [][]byte{{1}, {2, 3}, nil, bytes.Repeat([]byte{0xAB}, 200)}},
		{Kind: KindWriteCells, Name: "a", Idx: []int64{9, 3, -1 << 62, 1<<62 + 5}, Cts: [][]byte{{}, nil, {7}, {}}},
		{Kind: KindWriteCells, Name: "a"},
		{Kind: KindWriteCells, Name: "a", Idx: []int64{}, Cts: [][]byte{}},
		{Kind: KindCreateTree, Name: "t", Levels: 11, Slots: 4},
		{Kind: KindWritePath, Name: "t", Leaf: 1<<32 - 1, Cts: [][]byte{{9}, {8}, {7}, nil, nil, nil}},
		{Kind: KindWritePath, Name: "t", Leaf: 0},
		{Kind: KindWriteBuckets, Name: "t", N: 1023, Cts: [][]byte{{5}, nil}},
		{Kind: KindDelete, Name: "a"},
		{Kind: KindCheckpoint, DB: "", Value: 7},
		{Kind: KindCheckpoint, DB: "tenant", Value: -3},
		{Kind: KindPromote, Name: "primary", Value: 12},
		{Kind: KindRepair, Name: "a", Idx: []int64{5}, Cts: [][]byte{{1, 2, 3}}},
		{Kind: KindRepair, Name: "t", N: 1, Idx: []int64{40, 41}, Cts: [][]byte{{1}, nil}},
	}
}

// normalized is what a record decodes to: empty lists and zero-length
// ciphertexts come back nil.
func normalized(rec *Op) *Op {
	out := *rec
	if len(out.Idx) == 0 {
		out.Idx = nil
	}
	if len(out.Cts) == 0 {
		out.Cts = nil
	}
	for i, ct := range out.Cts {
		if len(ct) == 0 {
			out.Cts = append([][]byte(nil), out.Cts...)
			out.Cts[i] = nil
		}
	}
	return &out
}

func mustEncode(t testing.TB, rec *Op) []byte {
	t.Helper()
	frame, err := encodeWALRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func TestWALCodecRoundTripEveryOp(t *testing.T) {
	seen := map[Kind]bool{}
	for _, rec := range codecRecords() {
		seen[rec.Kind] = true
		frame := mustEncode(t, rec)
		payload, err := checkWALFrame(frame)
		if err != nil {
			t.Fatalf("%v: fresh frame fails its own check: %v", rec.Kind, err)
		}
		got, err := decodeWALPayload(payload)
		if err != nil {
			t.Fatalf("%v: %v", rec.Kind, err)
		}
		if want := normalized(rec); !reflect.DeepEqual(got, want) {
			t.Errorf("%v round trip:\n got %+v\nwant %+v", rec.Kind, got, want)
		}
		// Sized exactly but for two scalars and two absent list counts.
		if slack := cap(frame) - len(frame); slack > 2*binary.MaxVarintLen64+2 {
			t.Errorf("%v: frame over-allocated by %d bytes", rec.Kind, slack)
		}
	}
	for k := Kind(0); k < NumKinds; k++ {
		if logged := k.info().mutates || k == KindPromote || k == KindRepair; logged && !seen[k] {
			t.Errorf("no round-trip case for %v", k)
		}
	}
	if _, err := encodeWALRecord(&Op{Kind: NumKinds}); err == nil {
		t.Error("a kind outside the table encoded")
	}
}

func TestEncodeWALRecordAllocatesOnce(t *testing.T) {
	rec := &Op{Kind: KindWriteCells, Name: "db:sort:col3", Idx: make([]int64, 64), Cts: make([][]byte, 64)}
	for i := range rec.Idx {
		rec.Idx[i] = int64(128 + i)
		rec.Cts[i] = make([]byte, 45)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := encodeWALRecord(rec); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("encodeWALRecord: %v allocations, want 1", n)
	}
}

// TestApplyRecordAllocatesNothingOfItsOwn: a logged mutation reaches the
// in-memory server with exactly the allocations of the typed call it stands
// for — no record copy, no Result.
func TestApplyRecordAllocatesNothingOfItsOwn(t *testing.T) {
	s := NewServer()
	if err := s.CreateArray("a", 64); err != nil {
		t.Fatal(err)
	}
	op := &Op{Kind: KindWriteCells, Name: "a", Idx: []int64{3, 9}, Cts: [][]byte{{1}, {2}}}
	direct := testing.AllocsPerRun(100, func() {
		if err := s.WriteCells(op.Name, op.Idx, op.Cts); err != nil {
			t.Fatal(err)
		}
	})
	logged := testing.AllocsPerRun(100, func() {
		if err := applyRecord(s, op, false); err != nil {
			t.Fatal(err)
		}
	})
	if logged != direct {
		t.Errorf("applyRecord: %v allocations, WriteCells alone %v", logged, direct)
	}
}

// reframe wraps an arbitrary payload in a frame whose length and CRC verify.
func reframe(payload []byte) []byte {
	frame := make([]byte, walHeaderLen, walHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// dirState reads every file under dir, for byte-for-byte comparison.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	state := map[string]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		state[e.Name()] = string(b)
	}
	return state
}

// TestChecksummedGarbageMidLogIsRefusedNotTruncated: a frame whose length and
// CRC verify but whose payload does not decode was written that way. Treating
// it as a torn tail would truncate the log there and silently drop every
// acknowledged record behind it; OpenDir must fail with ErrCorruptWAL and
// leave the directory as it found it.
func TestChecksummedGarbageMidLogIsRefusedNotTruncated(t *testing.T) {
	good := codecRecords()[2]
	goodPayload := mustEncode(t, good)[walHeaderLen:]
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"garbage", append([]byte{walVersion}, "\xf0 this is not a record"...), "does not decode"},
		{"unknown op", []byte{walVersion, 0xf0, 0}, "unknown op"},
		{"wrong version", append([]byte{0x5c}, goodPayload[1:]...), "version 0x5c"},
		{"short field", goodPayload[:len(goodPayload)-3], "does not decode"},
		{"trailing bytes", append(append([]byte(nil), goodPayload...), 0, 0), "trailing"},
		{"empty payload", nil, "does not decode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var log []byte
			log = append(log, mustEncode(t, &Op{Kind: KindCreateArray, Name: "a", N: 64})...)
			log = append(log, mustEncode(t, good)...)
			before := len(log)
			log = append(log, reframe(tc.payload)...)
			log = append(log, mustEncode(t, &Op{Kind: KindWriteCells, Name: "a", Idx: []int64{7}, Cts: [][]byte{{42}}})...)
			if err := os.WriteFile(filepath.Join(dir, walName), log, 0o644); err != nil {
				t.Fatal(err)
			}
			state := dirState(t, dir)

			_, err := OpenDir(dir, DurableOptions{})
			if !errors.Is(err, ErrCorruptWAL) {
				t.Fatalf("OpenDir = %v, want ErrCorruptWAL", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if tc.name == "wrong version" && !strings.Contains(err.Error(), fmt.Sprintf("version %d", walVersion)) {
				t.Errorf("error %q does not name the version this build reads", err)
			}
			if !reflect.DeepEqual(dirState(t, dir), state) {
				t.Error("a refused directory was modified")
			}

			// The same bytes as the log's tail are still refused — "tail" is
			// a short read or a CRC mismatch, not a position.
			if err := os.WriteFile(filepath.Join(dir, walName), log[:before+walHeaderLen+len(tc.payload)], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenDir(dir, DurableOptions{}); !errors.Is(err, ErrCorruptWAL) {
				t.Errorf("OpenDir with the bad frame last = %v, want ErrCorruptWAL", err)
			}
		})
	}
}

// TestGobEraDataDirIsRefused: a log and a snapshot written by the last
// gob-encoding build (testdata, generated at commit f04b91c), and a version-1
// log holding one record of each of its ten operations, fence and both
// repairs included (generated at commit 3a8ca09, the last build to write
// version 1), are each refused with an error naming the format, and nothing
// in the directory changes — before the version byte was checked loudly, the
// gob-era log would have been taken for a torn tail at byte 0 and emptied.
func TestGobEraDataDirIsRefused(t *testing.T) {
	thisVersion := fmt.Sprintf("version %d", walVersion)
	for _, tc := range []struct {
		file, as string
		sentinel error
		want     []string
	}{
		{"gob-era-wal.log", walName, ErrCorruptWAL, []string{"version 0x5c", thisVersion, "gob"}},
		{"gob-era.snap", "snap-00000001.snap", ErrCorruptSnapshot, []string{"OFDSNAP2", "OFDSNAP3"}},
		{"v1-wal.log", walName, ErrCorruptWAL, []string{"version 0x01", "version 1 ", thisVersion}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, tc.as), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			state := dirState(t, dir)
			_, err = OpenDir(dir, DurableOptions{})
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("OpenDir = %v, want %v", err, tc.sentinel)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
			if !reflect.DeepEqual(dirState(t, dir), state) {
				t.Error("a refused directory was modified")
			}
		})
	}
}

// tapConn records what the primary ships on its way to the replica.
type tapConn struct {
	loopConn
	shipped *[][]byte
}

func (c tapConn) Replicate(fence, seq int64, frames [][]byte) error {
	for _, f := range frames {
		*c.shipped = append(*c.shipped, append([]byte(nil), f...))
	}
	return c.loopConn.Replicate(fence, seq, frames)
}

// TestMutationEncodedOncePerNode: for every kind of mutation a client can
// issue, the bytes the primary appends to its log, the bytes it ships and the
// bytes the replica appends to its own log are the same bytes.
func TestMutationEncodedOncePerNode(t *testing.T) {
	replica := newReplica(t)
	pd, err := OpenDir(t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var shipped [][]byte
	primary, err := Replicated(pd, ReplicationConfig{
		Primary: true, Peers: []string{"r"}, RedialEvery: 1,
		Dial: func(string) (ReplicaConn, error) { return tapConn{loopConn{replica}, &shipped}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })

	walOf := func(r *ReplicatedServer) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(r.Dir(), walName))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	steps := []struct {
		name string
		do   func() error
	}{
		{"CreateArray", func() error { return primary.CreateArray("a", 8) }},
		{"WriteCells", func() error { return primary.WriteCells("a", []int64{1, 5}, [][]byte{{1, 2}, {3}}) }},
		{"CreateTree", func() error { return primary.CreateTree("t", 2, 2) }},
		{"WriteBuckets", func() error { return primary.WriteBuckets("t", 0, [][]byte{{1}, {2}}) }},
		{"WritePath", func() error { return primary.WritePath("t", 1, [][]byte{{9}, nil, {8}, {7}}) }},
		{"CheckpointIn", func() error { return CheckpointIn(primary, "tenant", 3) }},
		{"Batch", func() error {
			_, err := primary.Batch([]BatchOp{
				{Write: true, Name: "a", Idx: []int64{0}, Cts: [][]byte{{4}}},
				{Name: "a", Idx: []int64{0}},
				{Write: true, Name: "a", Idx: []int64{2}, Cts: [][]byte{{5}}},
			})
			return err
		}},
		{"Delete", func() error { return primary.Delete("a") }},
	}
	for _, step := range steps {
		pBefore, rBefore := len(walOf(primary)), len(walOf(replica))
		shipped = nil
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		sent := bytes.Join(shipped, nil)
		if len(sent) == 0 {
			t.Fatalf("%s: nothing shipped", step.name)
		}
		if got := walOf(primary)[pBefore:]; !bytes.Equal(got, sent) {
			t.Errorf("%s: primary appended %d bytes, shipped %d, and they differ", step.name, len(got), len(sent))
		}
		if got := walOf(replica)[rBefore:]; !bytes.Equal(got, sent) {
			t.Errorf("%s: replica appended %d bytes, was shipped %d, and they differ", step.name, len(got), len(sent))
		}
	}
}

// FuzzDecodeWALRecord: any payload either fails to decode or decodes to a
// record that survives a round trip; it never panics, and what it allocates
// is bounded by the bytes present, not by the counts and lengths they claim.
func FuzzDecodeWALRecord(f *testing.F) {
	for _, rec := range codecRecords() {
		payload := mustEncode(f, rec)[walHeaderLen:]
		f.Add(payload)
		// The corruption harness's moves: a flipped bit, a cut.
		flipped := append([]byte(nil), payload...)
		flipped[len(flipped)/2] ^= 0x10
		f.Add(flipped)
		f.Add(payload[:len(payload)/2])
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "gob-era-wal.log"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw[walHeaderLen:])
	if raw, err = os.ReadFile(filepath.Join("testdata", "v1-wal.log")); err != nil {
		f.Fatal(err)
	}
	f.Add(raw[walHeaderLen:])
	if raw, err = os.ReadFile(filepath.Join("testdata", pinnedRepairLog)); err != nil {
		f.Fatal(err)
	}
	for _, payload := range walPayloads(f, raw) {
		f.Add(payload)
	}
	f.Add([]byte{walVersion, byte(KindWriteCells), 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // a count of 2³² in 8 bytes

	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeWALPayload(payload)
		if err != nil {
			if !errors.Is(err, ErrCorruptWAL) {
				t.Fatalf("decode error %v does not wrap ErrCorruptWAL", err)
			}
			return
		}
		// One 24-byte slice header per ciphertext and 8 bytes per index, each
		// of which took at least one input byte; the bytes themselves once.
		footprint := len(rec.Name) + len(rec.DB) + 8*len(rec.Idx) + 24*len(rec.Cts)
		for _, ct := range rec.Cts {
			footprint += len(ct)
		}
		if footprint > 25*len(payload) {
			t.Fatalf("%d-byte payload decoded into %d bytes", len(payload), footprint)
		}
		again, err := decodeWALPayload(mustEncode(t, rec)[walHeaderLen:])
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, rec) {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", again, rec)
		}
	})
}

// benchRecord is the record the replicated Sort workload logs: one 64-cell
// chunk write.
func benchRecord() *Op {
	rec := &Op{Kind: KindWriteCells, Name: "db:sort:col1", Idx: make([]int64, 64), Cts: make([][]byte, 64)}
	for i := range rec.Idx {
		rec.Idx[i] = int64(128 + i)
		rec.Cts[i] = bytes.Repeat([]byte{byte(i)}, 45)
	}
	return rec
}

func BenchmarkWALRecordEncode(b *testing.B) {
	rec := benchRecord()
	b.ReportAllocs()
	b.SetBytes(int64(len(mustEncode(b, rec))))
	for i := 0; i < b.N; i++ {
		if _, err := encodeWALRecord(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALRecordDecode is what a replica does with a shipped frame:
// verify it, then decode it into ciphertexts the store can keep.
func BenchmarkWALRecordDecode(b *testing.B) {
	frame := mustEncode(b, benchRecord())
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	for i := 0; i < b.N; i++ {
		payload, err := checkWALFrame(frame)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := decodeWALPayload(payload); err != nil {
			b.Fatal(err)
		}
	}
}
