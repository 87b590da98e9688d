package store

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/oblivfd/oblivfd/internal/trace"
)

func TestArrayLifecycle(t *testing.T) {
	s := NewServer()
	if err := s.CreateArray("a", 4); err != nil {
		t.Fatalf("CreateArray: %v", err)
	}
	if err := s.CreateArray("a", 4); !errors.Is(err, ErrObjectExists) {
		t.Errorf("duplicate CreateArray err = %v, want ErrObjectExists", err)
	}
	n, err := s.ArrayLen("a")
	if err != nil || n != 4 {
		t.Fatalf("ArrayLen = %d, %v", n, err)
	}
	if err := s.WriteCells("a", []int64{0, 3}, [][]byte{{1, 2}, {3}}); err != nil {
		t.Fatalf("WriteCells: %v", err)
	}
	got, err := s.ReadCells("a", []int64{3, 0, 1})
	if err != nil {
		t.Fatalf("ReadCells: %v", err)
	}
	if !bytes.Equal(got[0], []byte{3}) || !bytes.Equal(got[1], []byte{1, 2}) || got[2] != nil {
		t.Errorf("ReadCells = %v", got)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.ArrayLen("a"); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("ArrayLen after delete err = %v", err)
	}
}

func TestArrayErrors(t *testing.T) {
	s := NewServer()
	if err := s.CreateArray("neg", -1); err == nil {
		t.Error("negative-size array accepted")
	}
	if _, err := s.ReadCells("missing", []int64{0}); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("ReadCells on missing array err = %v", err)
	}
	if err := s.WriteCells("missing", []int64{0}, [][]byte{{1}}); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("WriteCells on missing array err = %v", err)
	}
	if err := s.CreateArray("a", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadCells("a", []int64{2}); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("out-of-range read err = %v", err)
	}
	if err := s.WriteCells("a", []int64{-1}, [][]byte{{1}}); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("out-of-range write err = %v", err)
	}
	if err := s.WriteCells("a", []int64{0, 1}, [][]byte{{1}}); err == nil {
		t.Error("mismatched idx/cts accepted")
	}
}

func TestTreePathLayout(t *testing.T) {
	s := NewServer()
	const levels, z = 3, 2
	if err := s.CreateTree("t", levels, z); err != nil {
		t.Fatalf("CreateTree: %v", err)
	}
	// 3 levels → 4 leaves, 7 buckets, path length 3 buckets = 6 slots.
	for leaf := uint32(0); leaf < 4; leaf++ {
		slots, err := s.ReadPath("t", leaf)
		if err != nil {
			t.Fatalf("ReadPath(%d): %v", leaf, err)
		}
		if len(slots) != levels*z {
			t.Fatalf("path slot count = %d, want %d", len(slots), levels*z)
		}
	}
	if _, err := s.ReadPath("t", 4); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("ReadPath beyond leaves err = %v", err)
	}

	// Write a distinctive payload along leaf 0's path, check shared root
	// is visible from leaf 3's path.
	payload := make([][]byte, levels*z)
	for i := range payload {
		payload[i] = []byte{byte(i + 1)}
	}
	if err := s.WritePath("t", 0, payload); err != nil {
		t.Fatalf("WritePath: %v", err)
	}
	other, err := s.ReadPath("t", 3)
	if err != nil {
		t.Fatal(err)
	}
	// Root bucket (first z slots) is shared by all paths.
	for j := 0; j < z; j++ {
		if !bytes.Equal(other[j], payload[j]) {
			t.Errorf("root slot %d = %v, want %v", j, other[j], payload[j])
		}
	}
	// Leaf buckets differ: leaf 3's leaf bucket was never written.
	for j := (levels - 1) * z; j < levels*z; j++ {
		if other[j] != nil {
			t.Errorf("leaf-3 slot %d = %v, want empty", j, other[j])
		}
	}
}

// TestCellOpsOnTree: ReadCells and WriteCells address a tree's cells by flat
// position, the slots of bucket b being [b·slots, (b+1)·slots); they see what
// a path op wrote and a path op sees what they wrote; a repeated position
// keeps its last ciphertext; a position past the tree refuses the whole call
// and changes nothing; and the trace records each cell as a tree cell event,
// which ArrayLen, an array-only call, still refuses.
func TestCellOpsOnTree(t *testing.T) {
	s := NewServer()
	s.Trace().Enable()
	if err := s.CreateTree("t", 3, 2); err != nil { // 7 buckets, 14 cells
		t.Fatal(err)
	}
	if err := s.WritePath("t", 3, [][]byte{{0}, {1}, {2}, {3}, {4}, {5}}); err != nil { // buckets 0, 2, 6
		t.Fatal(err)
	}
	got, err := s.ReadCells("t", []int64{0, 5, 12, 13})
	if err != nil || !bytes.Equal(got[0], []byte{0}) || !bytes.Equal(got[1], []byte{3}) || !bytes.Equal(got[2], []byte{4}) || !bytes.Equal(got[3], []byte{5}) {
		t.Fatalf("tree cells 0, 5, 12, 13 = %v, %v; want the path's slots 0, 3, 4, 5", got, err)
	}
	if err := s.WriteCells("t", []int64{4, 1, 4}, [][]byte{{0xa}, {0xb}, {0xc}}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCells("t", []int64{1, 14}, [][]byte{{0xd}, {0xe}}); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("write past the tree: %v, want ErrOutOfRange", err)
	}
	if _, err := s.ReadCells("t", []int64{-1}); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read before the tree: %v, want ErrOutOfRange", err)
	}
	path, err := s.ReadPath("t", 3)
	if err != nil || !bytes.Equal(path[1], []byte{0xb}) || !bytes.Equal(path[2], []byte{0xc}) {
		t.Errorf("path after the cell writes = %v, %v; want slot 1 0x0b (the refused write left it) and slot 2 0x0c (the last of a repeat)", path, err)
	}
	if _, err := s.ArrayLen("t"); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("ArrayLen of a tree: %v, want ErrUnknownObject", err)
	}
	if r, w := s.Trace().Count(trace.OpReadTreeCell), s.Trace().Count(trace.OpWriteTreeCell); r != 4 || w != 3 {
		t.Errorf("tree cell events: %d read, %d written; want 4 and 3", r, w)
	}
	if r, w := s.Trace().Count(trace.OpReadCell), s.Trace().Count(trace.OpWriteCell); r != 0 || w != 0 {
		t.Errorf("array cell events on a tree: %d read, %d written", r, w)
	}
}

func TestTreeWritePathValidation(t *testing.T) {
	s := NewServer()
	if err := s.CreateTree("t", 2, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePath("t", 0, make([][]byte, 3)); !errors.Is(err, ErrBadPath) {
		t.Errorf("short WritePath err = %v", err)
	}
	if err := s.WritePath("missing", 0, make([][]byte, 8)); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("WritePath missing tree err = %v", err)
	}
	if err := s.CreateTree("t", 2, 4); !errors.Is(err, ErrObjectExists) {
		t.Errorf("duplicate tree err = %v", err)
	}
	if err := s.CreateTree("bad", 0, 4); err == nil {
		t.Error("zero-level tree accepted")
	}
}

func TestWriteBuckets(t *testing.T) {
	s := NewServer()
	const levels, z = 3, 2 // 7 buckets, 14 slots
	if err := s.CreateTree("t", levels, z); err != nil {
		t.Fatal(err)
	}
	// Fill all buckets in two batches.
	batch := func(start, buckets int, tag byte) [][]byte {
		slots := make([][]byte, buckets*z)
		for i := range slots {
			slots[i] = []byte{tag, byte(i)}
		}
		if err := s.WriteBuckets("t", start, slots); err != nil {
			t.Fatalf("WriteBuckets(%d): %v", start, err)
		}
		return slots
	}
	batch(0, 4, 1)
	batch(4, 3, 2)
	// Path to leaf 0 = buckets 0,1,3 → slots {0,1},{2,3},{6,7} of batch 1.
	got, err := s.ReadPath("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{{1, 0}, {1, 1}, {1, 2}, {1, 3}, {1, 6}, {1, 7}}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("slot %d = %v, want %v", i, got[i], want[i])
		}
	}
	// Validation.
	if err := s.WriteBuckets("t", 0, make([][]byte, 3)); !errors.Is(err, ErrBadPath) {
		t.Errorf("non-multiple slots err = %v", err)
	}
	if err := s.WriteBuckets("t", 6, make([][]byte, 4)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("overflow range err = %v", err)
	}
	if err := s.WriteBuckets("missing", 0, make([][]byte, 2)); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("missing tree err = %v", err)
	}
	// Accounting reflects bucket writes.
	st, _ := s.Stats()
	if st.StoredBytes != 14*2 {
		t.Errorf("StoredBytes = %d, want 28", st.StoredBytes)
	}
}

// TestRefusedInstallChangesNothing: a repair refused for one out-of-range
// position installs none of its positions.
func TestRefusedInstallChangesNothing(t *testing.T) {
	s := NewServer()
	if err := s.CreateArray("a", 4); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCells("a", []int64{0}, [][]byte{{1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.InstallStored("a", []int64{0, 9}, [][]byte{{2, 2}, {3}}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("InstallStored with index 9 of 4 = %v, want ErrOutOfRange", err)
	}
	cells, err := s.StoredVerified("a", []int64{0})
	if err != nil || !bytes.Equal(cells[0], []byte{1}) {
		t.Errorf("cell 0 = %v, %v; want [1]", cells, err)
	}
	if st, _ := s.Stats(); st.StoredBytes != 1 {
		t.Errorf("StoredBytes = %d, want 1", st.StoredBytes)
	}
}

func TestNameCollisionAcrossKinds(t *testing.T) {
	s := NewServer()
	if err := s.CreateArray("x", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTree("x", 2, 2); !errors.Is(err, ErrObjectExists) {
		t.Errorf("tree over array name err = %v", err)
	}
	if err := s.Delete("x"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTree("x", 2, 2); err != nil {
		t.Errorf("tree after array delete: %v", err)
	}
	if err := s.CreateArray("x", 1); !errors.Is(err, ErrObjectExists) {
		t.Errorf("array over tree name err = %v", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	s := NewServer()
	if err := s.CreateArray("a", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCells("a", []int64{0, 1}, [][]byte{make([]byte, 10), make([]byte, 20)}); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Objects != 1 || st.StoredBytes != 30 {
		t.Errorf("Stats = %+v, want 1 object / 30 bytes", st)
	}
	// Overwrite shrinks accounting.
	if err := s.WriteCells("a", []int64{1}, [][]byte{make([]byte, 5)}); err != nil {
		t.Fatal(err)
	}
	st, _ = s.Stats()
	if st.StoredBytes != 15 {
		t.Errorf("StoredBytes after overwrite = %d, want 15", st.StoredBytes)
	}
	if err := s.CreateTree("t", 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePath("t", 0, [][]byte{make([]byte, 4), nil, nil, nil}); err != nil {
		t.Fatal(err)
	}
	st, _ = s.Stats()
	if st.Objects != 2 || st.StoredBytes != 19 {
		t.Errorf("Stats with tree = %+v, want 2 objects / 19 bytes", st)
	}
}

func TestTraceRecording(t *testing.T) {
	s := NewServer()
	s.Trace().Enable()
	if err := s.CreateArray("a", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCells("a", []int64{0}, [][]byte{{9, 9}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadCells("a", []int64{0}); err != nil {
		t.Fatal(err)
	}
	ev := s.Trace().Events()
	want := []trace.Event{
		{Op: trace.OpCreateArray, Object: "a", Index: 2},
		{Op: trace.OpWriteCell, Object: "a", Index: 0, Bytes: 2},
		{Op: trace.OpReadCell, Object: "a", Index: 0, Bytes: 2},
	}
	if len(ev) != len(want) {
		t.Fatalf("trace has %d events, want %d: %v", len(ev), len(want), ev)
	}
	for i := range want {
		if ev[i] != want[i] {
			t.Errorf("event %d = %v, want %v", i, ev[i], want[i])
		}
	}
	if got := s.Trace().Count(trace.OpWriteCell); got != 1 {
		t.Errorf("Count(WriteCell) = %d", got)
	}
	if got := s.Trace().TotalBytes(); got != 4 {
		t.Errorf("TotalBytes = %d, want 4", got)
	}
}

func TestRevealLog(t *testing.T) {
	s := NewServer()
	if err := s.Reveal("fd", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Reveal("fd", 0); err != nil {
		t.Fatal(err)
	}
	got := s.Reveals()
	if len(got) != 2 || got[0] != (Reveal{"fd", 1}) || got[1] != (Reveal{"fd", 0}) {
		t.Errorf("Reveals = %v", got)
	}
}

func TestConcurrentDisjointCellAccess(t *testing.T) {
	s := NewServer()
	const n = 256
	if err := s.CreateArray("a", n); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 8 {
				ct := []byte(fmt.Sprint(i))
				if err := s.WriteCells("a", []int64{int64(i)}, [][]byte{ct}); err != nil {
					t.Errorf("WriteCells(%d): %v", i, err)
					return
				}
				got, err := s.ReadCells("a", []int64{int64(i)})
				if err != nil || !bytes.Equal(got[0], ct) {
					t.Errorf("ReadCells(%d) = %v, %v", i, got, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestWithLatencyDelaysEveryOp(t *testing.T) {
	const rtt = 3 * time.Millisecond
	svc := WithLatency(Service(NewServer()), rtt)
	start := time.Now()
	if err := svc.CreateArray("a", 2); err != nil {
		t.Fatal(err)
	}
	if err := svc.WriteCells("a", []int64{0}, [][]byte{{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ReadCells("a", []int64{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ArrayLen("a"); err != nil {
		t.Fatal(err)
	}
	if err := svc.CreateTree("t", 2, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ReadPath("t", 0); err != nil {
		t.Fatal(err)
	}
	if err := svc.WritePath("t", 0, make([][]byte, 4)); err != nil {
		t.Fatal(err)
	}
	if err := svc.WriteBuckets("t", 0, make([][]byte, 2)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Reveal("x", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Stats(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Delete("t"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 11*rtt {
		t.Errorf("11 calls took %v, want >= %v", elapsed, 11*rtt)
	}
}

func TestWithLatencyZeroIsPassthrough(t *testing.T) {
	srv := NewServer()
	if got := WithLatency(Service(srv), 0); got != Service(srv) {
		t.Error("zero latency should return the underlying service")
	}
}

// TestWithLatencyOverlapsConcurrentCalls: the property Fig. 6(a) exploits —
// concurrent delayed calls overlap rather than serialize.
func TestWithLatencyOverlapsConcurrentCalls(t *testing.T) {
	const rtt = 5 * time.Millisecond
	svc := WithLatency(Service(NewServer()), rtt)
	if err := svc.CreateArray("a", 16); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if _, err := svc.ReadCells("a", []int64{int64(w)}); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 5*rtt {
		t.Errorf("8 concurrent calls took %v; they serialized instead of overlapping", elapsed)
	}
}

func TestShapeNormalizesLeaves(t *testing.T) {
	a := []trace.Event{{Op: trace.OpReadPath, Object: "t", Index: 5, Bytes: 100}}
	b := []trace.Event{{Op: trace.OpReadPath, Object: "t", Index: 9, Bytes: 100}}
	if !trace.ShapeOf(a).Equal(trace.ShapeOf(b)) {
		t.Error("shapes differing only in leaf index compare unequal")
	}
	c := []trace.Event{{Op: trace.OpReadCell, Object: "t", Index: 5, Bytes: 100}}
	d := []trace.Event{{Op: trace.OpReadCell, Object: "t", Index: 9, Bytes: 100}}
	if trace.ShapeOf(c).Equal(trace.ShapeOf(d)) {
		t.Error("cell indices must be part of the shape")
	}
	if diff := trace.ShapeOf(c).Diff(trace.ShapeOf(d)); diff == "" {
		t.Error("Diff on unequal shapes is empty")
	}
	if diff := trace.ShapeOf(a).Diff(trace.ShapeOf(b)); diff != "" {
		t.Errorf("Diff on equal shapes = %q", diff)
	}
}

// BenchmarkCellSum measures the checksum every cell write and read pays, at
// the sizes of a Sort cell at n = 4096 (a sealed run of 32 records: 412 B
// before the labelling pass, 284 B after) and of exoram-dynamic's widest
// bucket (an O^IKL bucket, 128 B).
func BenchmarkCellSum(b *testing.B) {
	for _, size := range []int{412, 284, 128} {
		cell := bytes.Repeat([]byte{0x5a}, size)
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				cell[0] = byte(cellSum(cell))
			}
		})
	}
}
