package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCorruptCellFailsLoudlyWithoutReplicas pins the PR 4 contract with
// scrubbing in the picture: absent any healthy copy, bit rot is detected,
// counted, and surfaced as fatal ErrIntegrity — never silently served and
// never silently "repaired" from nothing.
func TestCorruptCellFailsLoudlyWithoutReplicas(t *testing.T) {
	d, err := OpenDir(t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	mutateSample(t, d)
	if err := d.CorruptStored("a", 0, 3); err != nil {
		t.Fatal(err)
	}

	_, rerr := d.ReadCells("a", []int64{0})
	if !errors.Is(rerr, ErrIntegrity) {
		t.Fatalf("read of rotted cell = %v, want ErrIntegrity", rerr)
	}
	var cce *CorruptCellsError
	if !errors.As(rerr, &cce) || cce.Object != "a" || len(cce.Idx) != 1 || cce.Idx[0] != 0 {
		t.Fatalf("corrupt-cell detail = %+v", cce)
	}

	sc := NewScrubber(d, nil, ScrubConfig{})
	if err := sc.SweepOnce(); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if sc.Corruptions() == 0 {
		t.Error("scrub found no corruption")
	}
	if sc.Repairs() != 0 || sc.RepairFailures() == 0 {
		t.Errorf("repairs = %d, failures = %d; want 0 repairs and >0 failures without peers",
			sc.Repairs(), sc.RepairFailures())
	}
	// Detection must not have mutated anything: the read still fails loudly.
	if _, err := d.ReadCells("a", []int64{0}); !errors.Is(err, ErrIntegrity) {
		t.Errorf("read after detect-only sweep = %v, want ErrIntegrity", err)
	}
}

// TestScrubRepairsPrimaryFromReplica: bit rot in a flat array and an ORAM
// tree on the primary is found by a sweep, healed with verified bytes from
// the replica, logged (so it survives restart), and shipped (so the replica's
// stream position advances like any write).
func TestScrubRepairsPrimaryFromReplica(t *testing.T) {
	replica := newReplica(t)
	primary := newPrimary(t, replica)
	mutateSample(t, primary)

	if err := primary.Durable().CorruptStored("a", 3, 5); err != nil {
		t.Fatal(err)
	}
	if err := primary.Durable().CorruptStored("t", 0, 1); err != nil {
		t.Fatal(err)
	}
	wmBefore := replica.Watermark()

	sc := NewScrubber(primary.Durable(), primary, ScrubConfig{})
	if err := sc.SweepOnce(); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if got := sc.Corruptions(); got < 2 {
		t.Errorf("corruptions = %d, want >= 2 (array + tree)", got)
	}
	if got := sc.Repairs(); got < 2 {
		t.Errorf("scrub repairs = %d, want >= 2", got)
	}
	if got := primary.Repairs(); got < 2 {
		t.Errorf("cells repaired = %d, want >= 2", got)
	}
	if sc.RepairFailures() != 0 {
		t.Errorf("repair failures = %d, want 0", sc.RepairFailures())
	}
	checkSample(t, primary.Durable())
	// Each repair ships as one stream record.
	if got := replica.Watermark() - wmBefore; got < 2 {
		t.Errorf("replica watermark advanced %d, want >= 2 (repairs ship)", got)
	}

	// The heal is a WAL record: a restart replays it and stays clean.
	dir := primary.Dir()
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	checkSample(t, d2)
	if bad, err := d2.VerifyStored("a", 0, 4); err != nil || len(bad) != 0 {
		t.Errorf("verify after reopen: bad=%v err=%v", bad, err)
	}
}

// TestForegroundReadRepairs: a client read that trips over rot on a
// replicated primary is healed in-line and succeeds — the caller never sees
// ErrIntegrity when a healthy copy exists.
func TestForegroundReadRepairs(t *testing.T) {
	replica := newReplica(t)
	primary := newPrimary(t, replica)
	mutateSample(t, primary)

	if err := primary.Durable().CorruptStored("a", 0, 2); err != nil {
		t.Fatal(err)
	}
	got, err := primary.ReadCells("a", []int64{0})
	if err != nil {
		t.Fatalf("read across rot = %v, want transparent repair", err)
	}
	if !bytes.Equal(got[0], []byte{1}) {
		t.Fatalf("repaired cell = %v, want [1]", got[0])
	}
	if primary.Repairs() == 0 {
		t.Error("no repair counted for the foreground read")
	}

	if err := primary.Durable().CorruptStored("t", 4, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.ReadPath("t", 2); err != nil {
		t.Fatalf("path read across rot = %v, want transparent repair", err)
	}
}

// TestReadFailsLoudlyWhenDonorIsCorrupt: when the peer's copy of a rotted
// cell is rotten too, its repair RPC refuses, and the primary's read fails
// with ErrIntegrity instead of installing anything.
func TestReadFailsLoudlyWhenDonorIsCorrupt(t *testing.T) {
	replica := newReplica(t)
	primary := newPrimary(t, replica)
	mutateSample(t, primary)

	for _, r := range []*ReplicatedServer{primary, replica} {
		if err := r.Durable().CorruptStored("a", 0, 2); err != nil {
			t.Fatal(err)
		}
	}
	_, err := primary.ReadCells("a", []int64{0})
	if !errors.Is(err, ErrIntegrity) || !strings.Contains(err.Error(), "no healthy replica copy") {
		t.Fatalf("read with no healthy copy = %v, want ErrIntegrity naming the missing copy", err)
	}
	if primary.Repairs() != 0 {
		t.Errorf("%d cells repaired from a corrupt donor", primary.Repairs())
	}
}

// TestBatchReadRepairsMidBatch: rot hit by a read inside a Batch heals
// without breaking the batch or the replication stream order.
func TestBatchReadRepairsMidBatch(t *testing.T) {
	replica := newReplica(t)
	primary := newPrimary(t, replica)
	mutateSample(t, primary)

	if err := primary.Durable().CorruptStored("a", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := primary.Durable().CorruptStored("t", 4, 6); err != nil {
		t.Fatal(err)
	}
	// t's paths to leaves 3 and 2: buckets 0, 2 and 6 or 5, 2 slots each.
	leaf3, leaf2 := []int64{0, 1, 4, 5, 12, 13}, []int64{0, 1, 4, 5, 10, 11}
	out, err := primary.Batch([]BatchOp{
		{Write: true, Name: "a", Idx: []int64{1}, Cts: [][]byte{{42}}},
		{Name: "a", Idx: []int64{0, 1}},
		{Write: true, Name: "t", Idx: leaf3, Cts: [][]byte{{19}, {18}, {17}, {16}, {15}, {14}}},
		{Name: "t", Idx: leaf2}, // over the rot, and over two buckets the write before it replaced
	})
	if err != nil {
		t.Fatalf("batch across rot = %v", err)
	}
	if !bytes.Equal(out[1][0], []byte{1}) || !bytes.Equal(out[1][1], []byte{42}) {
		t.Fatalf("batch read = %v", out[1])
	}
	if want := [][]byte{{19}, {18}, {17}, {16}, {5}, {4}}; !reflect.DeepEqual(out[3], want) {
		t.Fatalf("batch path read = %v, want %v", out[3], want)
	}
	// Replica converged: the pre-repair write shipped before the repair.
	cts, err := replica.Durable().ReadCells("a", []int64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cts[0], []byte{1}) || !bytes.Equal(cts[1], []byte{42}) {
		t.Errorf("replica cells after mid-batch repair = %v", cts)
	}
}

// TestReplicaScrubResyncs: a replica that finds its own rot marks itself
// diverged; the primary's next shipment trips the sequence check and pushes a
// full snapshot, replacing every corrupt byte.
func TestReplicaScrubResyncs(t *testing.T) {
	replica := newReplica(t)
	primary := newPrimary(t, replica)
	mutateSample(t, primary)

	if err := replica.Durable().CorruptStored("a", 0, 4); err != nil {
		t.Fatal(err)
	}
	sc := NewScrubber(replica.Durable(), replica, ScrubConfig{})
	if err := sc.SweepOnce(); err != nil {
		t.Fatalf("replica sweep: %v", err)
	}
	if sc.Corruptions() == 0 || sc.Repairs() == 0 {
		t.Fatalf("corruptions=%d repairs=%d; want divergence marked", sc.Corruptions(), sc.Repairs())
	}
	if replica.Watermark() != -1 {
		t.Fatalf("watermark = %d, want -1 (diverged)", replica.Watermark())
	}

	// Any primary write now heals the replica wholesale via snapshot resync.
	if err := primary.WriteCells("a", []int64{2}, [][]byte{{7}}); err != nil {
		t.Fatal(err)
	}
	checkSample(t, replica.Durable())
	cts, err := replica.Durable().ReadCells("a", []int64{2})
	if err != nil || !bytes.Equal(cts[0], []byte{7}) {
		t.Errorf("replica cell after resync = %v, %v", cts, err)
	}
	if bad, err := replica.Durable().VerifyStored("a", 0, 4); err != nil || len(bad) != 0 {
		t.Errorf("replica still corrupt after resync: bad=%v err=%v", bad, err)
	}
}

// corruptFileByte flips one byte in the middle of a file on disk.
func corruptFileByte(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 {
		t.Fatalf("%s is empty", path)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestScrubHealsCorruptSnapshotFile: a rotted retained snapshot is detected
// by the sweep, superseded by a fresh snapshot written from live memory, and
// removed so recovery can never load it. No replica needed.
func TestScrubHealsCorruptSnapshotFile(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mutateSample(t, d)
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots = %v, %v", snaps, err)
	}
	corruptFileByte(t, snaps[0])

	sc := NewScrubber(d, nil, ScrubConfig{})
	if err := sc.SweepOnce(); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if sc.Corruptions() != 1 || sc.Repairs() != 1 {
		t.Fatalf("corruptions=%d repairs=%d, want 1/1", sc.Corruptions(), sc.Repairs())
	}
	if _, err := os.Stat(snaps[0]); !os.IsNotExist(err) {
		t.Errorf("corrupt snapshot still on disk: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen after heal: %v", err)
	}
	defer d2.Close()
	checkSample(t, d2)
}

// TestScrubHealsCorruptWAL: rot inside the log's acknowledged prefix is
// healed from live memory — a fresh snapshot compacts the log away — and a
// restart recovers the full state.
func TestScrubHealsCorruptWAL(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mutateSample(t, d)
	corruptFileByte(t, filepath.Join(dir, walName))

	sc := NewScrubber(d, nil, ScrubConfig{})
	if err := sc.SweepOnce(); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if sc.Corruptions() != 1 || sc.Repairs() != 1 {
		t.Fatalf("corruptions=%d repairs=%d, want 1/1", sc.Corruptions(), sc.Repairs())
	}
	if size := d.WALSize(); size != 0 {
		t.Errorf("WAL size after heal = %d, want 0 (compacted)", size)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen after heal: %v", err)
	}
	defer d2.Close()
	checkSample(t, d2)
}

// TestScrubCleanStoreFindsNothing: a sweep over healthy state is a no-op
// apart from the counters that say it looked.
func TestScrubCleanStoreFindsNothing(t *testing.T) {
	d, err := OpenDir(t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	mutateSample(t, d)
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	sc := NewScrubber(d, nil, ScrubConfig{})
	if err := sc.SweepOnce(); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if sc.Corruptions() != 0 || sc.Repairs() != 0 || sc.RepairFailures() != 0 {
		t.Errorf("clean sweep: corruptions=%d repairs=%d failures=%d, want all 0",
			sc.Corruptions(), sc.Repairs(), sc.RepairFailures())
	}
	if sc.CellsScrubbed() == 0 || sc.Sweeps() != 1 {
		t.Errorf("cells=%d sweeps=%d; the sweep must actually have looked",
			sc.CellsScrubbed(), sc.Sweeps())
	}
}

// TestDiskFullDegradesToReadOnly: an injected ENOSPC window sheds writes
// with a retryable error while reads keep serving; when space frees, retried
// writes drain the parked log and the server leaves degraded mode on its own.
func TestDiskFullDegradesToReadOnly(t *testing.T) {
	ffs := NewFaultFS(nil, FaultFSConfig{Seed: 1, DiskFullAfterBytes: 300, DiskFullWrites: 20})
	d, err := OpenDir(t.TempDir(), DurableOptions{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.CreateArray("a", 64); err != nil {
		t.Fatal(err)
	}

	payload := bytes.Repeat([]byte{9}, 64)
	var wrote int
	var full error
	for i := 0; i < 64 && full == nil; i++ {
		if err := d.WriteCells("a", []int64{int64(i)}, [][]byte{payload}); err != nil {
			full = err
		} else {
			wrote++
		}
	}
	if full == nil {
		t.Fatal("ENOSPC window never fired")
	}
	if !errors.Is(full, ErrDiskFull) {
		t.Fatalf("shed write = %v, want ErrDiskFull", full)
	}
	if !DefaultRetryable(full) {
		t.Error("ErrDiskFull must classify as retryable")
	}
	if errors.Is(full, ErrServerKilled) {
		t.Error("disk-full must not be fail-stop")
	}
	if !d.Degraded() {
		t.Error("server not degraded while shedding writes")
	}
	// Reads keep serving the acknowledged state.
	if cts, err := d.ReadCells("a", []int64{0}); err != nil || !bytes.Equal(cts[0], payload) {
		t.Fatalf("degraded read = %v, %v", cts, err)
	}

	// Retry until the window passes (each refused write advances it): the
	// parked record drains, the write lands, degraded clears.
	var recovered bool
	for i := 0; i < 500; i++ {
		if err := d.WriteCells("a", []int64{63}, [][]byte{payload}); err == nil {
			recovered = true
			break
		} else if !errors.Is(err, ErrDiskFull) {
			t.Fatalf("retry failed non-retryably: %v", err)
		}
	}
	if !recovered {
		t.Fatal("never recovered from the ENOSPC window")
	}
	if d.Degraded() {
		t.Error("still degraded after space recovered")
	}
	if ffs.DiskFullInjected() == 0 {
		t.Error("fault schedule never injected")
	}
	if cts, err := d.ReadCells("a", []int64{63}); err != nil || !bytes.Equal(cts[0], payload) {
		t.Errorf("post-recovery read = %v, %v", cts, err)
	}
}

// TestFsyncFailureIsFailStop: one failed fsync latches the server dead with
// a non-retryable ErrServerKilled — never ack-then-lose.
func TestFsyncFailureIsFailStop(t *testing.T) {
	ffs := NewFaultFS(nil, FaultFSConfig{FsyncFailAfter: 1})
	d, err := OpenDir(t.TempDir(), DurableOptions{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	werr := d.CreateArray("a", 4)
	if !errors.Is(werr, ErrServerKilled) {
		t.Fatalf("write across fsync failure = %v, want ErrServerKilled", werr)
	}
	if DefaultRetryable(werr) {
		t.Error("fail-stop must not be retryable")
	}
	// Everything refuses until the directory is reopened.
	if _, err := d.ReadCells("a", []int64{0}); !errors.Is(err, ErrServerKilled) {
		t.Errorf("read after fail-stop = %v, want ErrServerKilled", err)
	}
	if err := d.WriteCells("a", []int64{0}, [][]byte{{1}}); !errors.Is(err, ErrServerKilled) {
		t.Errorf("write after fail-stop = %v, want ErrServerKilled", err)
	}
	if ffs.FsyncFailuresInjected() == 0 {
		t.Error("fault schedule never injected")
	}
}

// TestShortWriteRolledBackOnReopen: an ENOSPC that lands a torn prefix is
// rolled back by the WAL writer, so recovery replays exactly the acknowledged
// records — no torn tail, no phantom write.
func TestShortWriteRolledBackOnReopen(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, FaultFSConfig{Seed: 7, DiskFullAfterBytes: 250, ShortWrites: true})
	d, err := OpenDir(dir, DurableOptions{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateArray("a", 32); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{5}, 48)
	acked := 0
	for i := 0; i < 32; i++ {
		if err := d.WriteCells("a", []int64{int64(i)}, [][]byte{payload}); err != nil {
			if !errors.Is(err, ErrDiskFull) {
				t.Fatalf("write %d = %v, want ErrDiskFull", i, err)
			}
			break
		}
		acked++
	}
	if acked == 0 || acked == 32 {
		t.Fatalf("acked = %d; the window must fire mid-sequence", acked)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen on the real filesystem: the torn prefix must be gone.
	d2, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen after short write: %v", err)
	}
	defer d2.Close()
	if info := d2.Recovery(); info.TornTail {
		t.Errorf("recovery found a torn tail: %+v (rollback failed)", info)
	} else if info.WALReplayed != acked+1 { // +1 for CreateArray
		t.Errorf("replayed %d records, want %d acked", info.WALReplayed, acked+1)
	}
	for i := 0; i < acked; i++ {
		cts, err := d2.ReadCells("a", []int64{int64(i)})
		if err != nil || !bytes.Equal(cts[0], payload) {
			t.Fatalf("acked cell %d lost: %v, %v", i, cts, err)
		}
	}
	// The refused write must NOT have survived.
	if cts, err := d2.ReadCells("a", []int64{int64(acked)}); err != nil || cts[0] != nil {
		t.Errorf("unacked cell present after recovery: %v, %v", cts, err)
	}
}

// TestScrubSweepRacesLiveTraffic is the satellite property test: continuous
// sweeps racing live writes and batches must never report a false positive —
// every "corruption" a scrubber finds on a healthy store is a bug in its
// snapshot of the world, not in the data. Run under -race. The array spans
// four sweep chunks, so writes land between a sweep's chunks as well as in
// them.
func TestScrubSweepRacesLiveTraffic(t *testing.T) {
	const cells = 4 * scrubChunkCells
	replica := newReplica(t)
	primary := newPrimary(t, replica)
	if err := primary.CreateArray("x", cells); err != nil {
		t.Fatal(err)
	}
	if err := primary.CreateTree("tt", 4, 2); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	fail := make(chan error, 3)
	wg.Add(3)
	go func() { // single-cell writes
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			idx := int64(i % cells)
			if err := primary.WriteCells("x", []int64{idx}, [][]byte{{byte(i), byte(i >> 8)}}); err != nil {
				fail <- fmt.Errorf("write: %w", err)
				return
			}
		}
	}()
	go func() { // batches mixing reads and writes
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			idx := int64((i * 7) % cells)
			if _, err := primary.Batch([]BatchOp{
				{Write: true, Name: "x", Idx: []int64{idx}, Cts: [][]byte{{byte(i)}}},
				{Name: "x", Idx: []int64{idx}},
			}); err != nil {
				fail <- fmt.Errorf("batch: %w", err)
				return
			}
		}
	}()
	go func() { // ORAM path writes
		defer wg.Done()
		slots := make([][]byte, 4*2)
		for i := range slots {
			slots[i] = []byte{byte(i)}
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := primary.WritePath("tt", uint32(i%8), slots); err != nil {
				fail <- fmt.Errorf("path: %w", err)
				return
			}
		}
	}()

	sc := NewScrubber(primary.Durable(), primary, ScrubConfig{})
	for i := 0; i < 25; i++ {
		if err := sc.SweepOnce(); err != nil {
			t.Errorf("sweep %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}

	if got := sc.Corruptions(); got != 0 {
		t.Errorf("scrub reported %d corruptions on a healthy store under load", got)
	}
	if got := sc.RepairFailures(); got != 0 {
		t.Errorf("repair failures = %d on a healthy store", got)
	}
	if bad, err := primary.Durable().VerifyStored("x", 0, cells); err != nil || len(bad) != 0 {
		t.Errorf("post-race verify: bad=%v err=%v", bad, err)
	}
}

// TestScrubberBackgroundLoop: Start/Close run sweeps on the interval without
// leaking the goroutine, and a second Close is harmless.
func TestScrubberBackgroundLoop(t *testing.T) {
	d, err := OpenDir(t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	mutateSample(t, d)

	sc := NewScrubber(d, nil, ScrubConfig{Interval: time.Millisecond})
	sc.Start()
	for i := 0; i < 200 && sc.Sweeps() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	sc.Close()
	sc.Close()
	if sc.Sweeps() == 0 {
		t.Error("background loop never completed a sweep")
	}
}
