package store

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// buildSnapshotBytes produces a realistic snapshot: several arrays and trees
// with pseudo-random ciphertext-like contents and a marked epoch.
func buildSnapshotBytes(t testing.TB) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	s := NewServer()
	for i := 0; i < 3; i++ {
		name := string(rune('a' + i))
		if err := s.CreateArray(name, 8); err != nil {
			t.Fatal(err)
		}
		for j := int64(0); j < 8; j++ {
			ct := make([]byte, 1+rng.Intn(32))
			rng.Read(ct)
			if err := s.WriteCells(name, []int64{j}, [][]byte{ct}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 2; i++ {
		name := string(rune('t' + i))
		if err := s.CreateTree(name, 4, 2); err != nil {
			t.Fatal(err)
		}
		for leaf := uint32(0); leaf < 8; leaf++ {
			slots := make([][]byte, 8)
			for k := range slots {
				slots[k] = make([]byte, 16)
				rng.Read(slots[k])
			}
			if err := s.WritePath(name, leaf, slots); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Checkpoint(5); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotTruncationProperty is the property test behind crash safety:
// loading a snapshot truncated at EVERY byte offset must yield
// ErrCorruptSnapshot — never a panic, never a half-loaded server.
func TestSnapshotTruncationProperty(t *testing.T) {
	data := buildSnapshotBytes(t)
	for cut := 0; cut < len(data); cut++ {
		s := NewServer()
		if err := s.CreateArray("sentinel", 1); err != nil {
			t.Fatal(err)
		}
		err := func() (err error) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("LoadSnapshot panicked at truncation offset %d: %v", cut, p)
				}
			}()
			return s.LoadSnapshot(bytes.NewReader(data[:cut]))
		}()
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("truncation at %d/%d: err = %v, want ErrCorruptSnapshot", cut, len(data), err)
		}
		// A failed load must leave the server untouched.
		if _, aerr := s.ArrayLen("sentinel"); aerr != nil {
			t.Fatalf("truncation at %d: failed load clobbered existing state: %v", cut, aerr)
		}
	}
	// And the untruncated stream still loads.
	if err := NewServer().LoadSnapshot(bytes.NewReader(data)); err != nil {
		t.Fatalf("full snapshot rejected: %v", err)
	}
}

// TestSnapshotBitFlipProperty flips every byte (one at a time) and requires
// the loader to either reject with ErrCorruptSnapshot or — never — panic.
// (Every region is covered by magic, bounds, or CRC checks, so acceptance
// would mean silently loading corrupted state.)
func TestSnapshotBitFlipProperty(t *testing.T) {
	data := buildSnapshotBytes(t)
	flipped := make([]byte, len(data))
	for i := 0; i < len(data); i++ {
		copy(flipped, data)
		flipped[i] ^= 0x41
		s := NewServer()
		err := func() (err error) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("LoadSnapshot panicked with byte %d flipped: %v", i, p)
				}
			}()
			return s.LoadSnapshot(bytes.NewReader(flipped))
		}()
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("byte %d flipped: err = %v, want ErrCorruptSnapshot", i, err)
		}
	}
}

// FuzzDecodeSnapshot: any payload past a snapshot's CRC either is refused
// with ErrCorruptSnapshot or loads into a state that saves and loads back
// equal; it never panics, and what it decodes is bounded by the bytes
// present, not by the counts, lengths and shapes they claim.
func FuzzDecodeSnapshot(f *testing.F) {
	const headerLen = 8 + 8 + 8 + 8 + 4 // magic, epoch, dirty, payload length, CRC
	fresh := buildSnapshotBytes(f)[headerLen:]
	f.Add(fresh)
	flipped := append([]byte(nil), fresh...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add(fresh[:len(fresh)/2])
	raw, err := os.ReadFile(filepath.Join("testdata", "gob-era.snap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw[headerLen:])
	if raw, err = os.ReadFile(filepath.Join("testdata", pinnedSnapshot)); err != nil {
		f.Fatal(err)
	}
	f.Add(raw[headerLen:])
	f.Add(overflowSnapshotPayload())

	f.Fuzz(func(t *testing.T, payload []byte) {
		if sn, err := decodeSnapshot(payload); err == nil {
			// As for a WAL record: a slice header per ciphertext, each of
			// which took at least one input byte, and the bytes once.
			footprint := 0
			for name, o := range sn.Objects {
				footprint += len(name) + runFootprint(o.cells)
			}
			for db := range sn.Marks {
				footprint += len(db) + 16
			}
			if footprint > 25*len(payload) {
				t.Fatalf("%d-byte payload decoded into %d bytes", len(payload), footprint)
			}
		}
		var framed bytes.Buffer
		if err := writeSnapshotStream(&framed, 0, 0, payload); err != nil {
			t.Fatal(err)
		}
		s := NewServer()
		if err := s.LoadSnapshot(&framed); err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("load error %v does not wrap ErrCorruptSnapshot", err)
			}
			return
		}
		var saved, again bytes.Buffer
		if err := s.SaveSnapshot(&saved); err != nil {
			t.Fatal(err)
		}
		reloaded := NewServer()
		if err := reloaded.LoadSnapshot(bytes.NewReader(saved.Bytes())); err != nil {
			t.Fatalf("a loaded state saves into a snapshot that does not load: %v", err)
		}
		if err := reloaded.SaveSnapshot(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved.Bytes(), again.Bytes()) {
			t.Fatal("a loaded state does not save and load back equal")
		}
	})
}

func runFootprint(run [][]byte) int {
	n := 24 * len(run)
	for _, ct := range run {
		n += len(ct)
	}
	return n
}
