package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// codecRecords covers every walOp, with the ciphertext shapes callers
// actually produce: absent, empty, and lists holding nil and zero-length
// elements (both of which mean "this cell was never written").
func codecRecords() []*walRecord {
	return []*walRecord{
		{Op: walCreateArray, Name: "db/a", N: 4096},
		{Op: walCreateArray, Name: "", N: 0},
		{Op: walWriteCells, Name: "a", Idx: []int64{0, 1, 2, 63}, Cts: [][]byte{{1}, {2, 3}, nil, bytes.Repeat([]byte{0xAB}, 200)}},
		{Op: walWriteCells, Name: "a", Idx: []int64{9, 3, -1 << 62, 1<<62 + 5}, Cts: [][]byte{{}, nil, {7}, {}}},
		{Op: walWriteCells, Name: "a"},
		{Op: walWriteCells, Name: "a", Idx: []int64{}, Cts: [][]byte{}},
		{Op: walCreateTree, Name: "t", Levels: 11, Slots: 4},
		{Op: walWritePath, Name: "t", Leaf: 1<<32 - 1, Cts: [][]byte{{9}, {8}, {7}, nil, nil, nil}},
		{Op: walWritePath, Name: "t", Leaf: 0},
		{Op: walWriteBuckets, Name: "t", N: 1023, Cts: [][]byte{{5}, nil}},
		{Op: walDelete, Name: "a"},
		{Op: walCheckpoint, Name: "", N: 7},
		{Op: walCheckpoint, Name: "tenant", N: -3},
		{Op: walFence, Name: "primary", N: 12},
		{Op: walRepairCells, Name: "a", Idx: []int64{5}, Cts: [][]byte{{1, 2, 3}}},
		{Op: walRepairSlots, Name: "t", Idx: []int64{40, 41}, Cts: [][]byte{{1}, nil}},
	}
}

// normalized is what a record decodes to: empty lists and zero-length
// ciphertexts come back nil.
func normalized(rec *walRecord) *walRecord {
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

func mustEncode(t testing.TB, rec *walRecord) []byte {
	t.Helper()
	frame, err := encodeWALRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func TestWALCodecRoundTripEveryOp(t *testing.T) {
	seen := map[walOp]bool{}
	for _, rec := range codecRecords() {
		seen[rec.Op] = true
		frame := mustEncode(t, rec)
		payload, err := checkWALFrame(frame)
		if err != nil {
			t.Fatalf("%v: fresh frame fails its own check: %v", rec.Op, err)
		}
		got, err := decodeWALPayload(payload)
		if err != nil {
			t.Fatalf("%v: %v", rec.Op, err)
		}
		if want := normalized(rec); !reflect.DeepEqual(got, want) {
			t.Errorf("%v round trip:\n got %+v\nwant %+v", rec.Op, got, want)
		}
		// Sized exactly but for two scalars and two absent list counts.
		if slack := cap(frame) - len(frame); slack > 2*binary.MaxVarintLen64+2 {
			t.Errorf("%v: frame over-allocated by %d bytes", rec.Op, slack)
		}
	}
	for op := walOp(0); op < numWALOps; op++ {
		if !seen[walOp(op)] {
			t.Errorf("no round-trip case for %v", walOp(op))
		}
	}
	if _, err := encodeWALRecord(&walRecord{Op: numWALOps}); err == nil {
		t.Error("an op outside the table encoded")
	}
}

func TestEncodeWALRecordAllocatesOnce(t *testing.T) {
	rec := &walRecord{Op: walWriteCells, Name: "db:sort:col3", Idx: make([]int64, 64), Cts: make([][]byte, 64)}
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
		{"garbage", []byte("\x01\xf0 this is not a record"), "does not decode"},
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
			log = append(log, mustEncode(t, &walRecord{Op: walCreateArray, Name: "a", N: 64})...)
			log = append(log, mustEncode(t, good)...)
			before := len(log)
			log = append(log, reframe(tc.payload)...)
			log = append(log, mustEncode(t, &walRecord{Op: walWriteCells, Name: "a", Idx: []int64{7}, Cts: [][]byte{{42}}})...)
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
			if tc.name == "wrong version" && !strings.Contains(err.Error(), "version 1") {
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
// gob-encoding build (testdata, generated at commit f04b91c) are each refused
// with an error naming the format, and nothing in the directory changes —
// before the version byte was checked loudly, the log would have been taken
// for a torn tail at byte 0 and emptied.
func TestGobEraDataDirIsRefused(t *testing.T) {
	for _, tc := range []struct {
		file, as string
		sentinel error
		want     []string
	}{
		{"gob-era-wal.log", walName, ErrCorruptWAL, []string{"version 0x5c", "version 1", "gob"}},
		{"gob-era.snap", "snap-00000001.snap", ErrCorruptSnapshot, []string{"OFDSNAP2", "OFDSNAP3"}},
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
		{"CheckpointNS", func() error { return primary.CheckpointNS("tenant", 3) }},
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
	f.Add([]byte{walVersion, byte(walWriteCells), 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // a count of 2³² in 8 bytes

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
		footprint := len(rec.Name) + 8*len(rec.Idx) + 24*len(rec.Cts)
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
func benchRecord() *walRecord {
	rec := &walRecord{Op: walWriteCells, Name: "db:sort:col1", Idx: make([]int64, 64), Cts: make([][]byte, 64)}
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
