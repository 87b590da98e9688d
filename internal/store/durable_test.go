package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// mutateSample applies a recognizable mutation sequence through the Service
// surface.
func mutateSample(t *testing.T, svc Service) {
	t.Helper()
	if err := svc.CreateArray("a", 4); err != nil {
		t.Fatal(err)
	}
	if err := svc.WriteCells("a", []int64{0, 3}, [][]byte{{1}, {2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := svc.CreateTree("t", 3, 2); err != nil {
		t.Fatal(err)
	}
	if err := svc.WritePath("t", 2, [][]byte{{9}, {8}, {7}, {6}, {5}, {4}}); err != nil {
		t.Fatal(err)
	}
}

// checkSample verifies the mutateSample state survived.
func checkSample(t *testing.T, svc Service) {
	t.Helper()
	got, err := svc.ReadCells("a", []int64{0, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], []byte{1}) || got[1] != nil || !bytes.Equal(got[2], []byte{2, 3}) {
		t.Errorf("cells after recovery = %v", got)
	}
	slots, err := svc.ReadPath("t", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(slots[0], []byte{9}) || !bytes.Equal(slots[5], []byte{4}) {
		t.Errorf("path after recovery = %v", slots)
	}
}

func TestOpenDirRecoversFromWALAlone(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mutateSample(t, d)
	if err := d.Close(); err != nil { // no snapshot: recovery must come from the log
		t.Fatal(err)
	}

	d2, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	info := d2.Recovery()
	if info.SnapshotSeq != 0 || info.WALReplayed == 0 || info.TornTail {
		t.Errorf("recovery info = %+v, want WAL-only replay", info)
	}
	checkSample(t, d2)
}

// TestBatchedPathWriteIsOneWALRecord: a Batch logs one record per write it
// carries, a tree path's cells like an array's, and reads none, and recovery
// replays them.
func TestBatchedPathWriteIsOneWALRecord(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mutateSample(t, d)
	before := d.WALAppends()
	leaf2 := []int64{0, 1, 4, 5, 10, 11} // t's path to leaf 2: buckets 0, 2 and 5, 2 slots each
	out, err := d.Batch([]BatchOp{
		{Name: "t", Idx: leaf2},
		{Write: true, Name: "t", Idx: leaf2, Cts: [][]byte{{19}, {18}, {17}, {16}, {15}, {14}}},
		{Write: true, Name: "a", Idx: []int64{1}, Cts: [][]byte{{42}}},
		{Name: "a", Idx: []int64{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[0][5], []byte{4}) || !bytes.Equal(out[3][0], []byte{42}) {
		t.Errorf("batch reads = %v, %v", out[0], out[3])
	}
	if got := d.WALAppends() - before; got != 2 {
		t.Errorf("batch appended %d WAL records, want 2 (one per write)", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	path, err := d2.ReadPath("t", 2)
	if err != nil || !bytes.Equal(path[0], []byte{19}) || !bytes.Equal(path[5], []byte{14}) {
		t.Errorf("path after recovery = %v, %v", path, err)
	}
}

func TestCheckpointSnapshotsAndCompacts(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mutateSample(t, d)
	if err := d.Checkpoint(3); err != nil {
		t.Fatal(err)
	}
	if size := d.WALSize(); size != 0 {
		t.Errorf("WAL size after checkpoint = %d, want 0 (compacted)", size)
	}
	st, _ := d.Stats()
	if st.Epoch != 3 || st.MutationsSinceEpoch != 0 {
		t.Errorf("stats after checkpoint = epoch %d, %d mutations", st.Epoch, st.MutationsSinceEpoch)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	info := d2.Recovery()
	if info.SnapshotSeq != 1 || info.SnapshotEpoch != 3 || info.WALReplayed != 0 {
		t.Errorf("recovery info = %+v, want snapshot #1 at epoch 3, empty WAL", info)
	}
	checkSample(t, d2)
	if d2.Epoch() != 3 {
		t.Errorf("epoch after recovery = %d, want 3", d2.Epoch())
	}
}

func TestRecoverySnapshotPlusWALTail(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mutateSample(t, d)
	if err := d.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	// Mutations after the snapshot live only in the log.
	if err := d.WriteCells("a", []int64{1}, [][]byte{{77}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if info := d2.Recovery(); info.SnapshotSeq != 1 || info.WALReplayed != 1 {
		t.Errorf("recovery info = %+v, want snapshot #1 + 1 replayed record", info)
	}
	got, err := d2.ReadCells("a", []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], []byte{77}) {
		t.Errorf("post-snapshot write lost: %v", got[0])
	}
	st, _ := d2.Stats()
	if st.Epoch != 1 || st.MutationsSinceEpoch == 0 {
		t.Errorf("stats = %+v, want epoch 1 with replayed mutations counted", st)
	}
}

func TestKillPointTornTailAndRecovery(t *testing.T) {
	dir := t.TempDir()
	// mutateSample performs 4 mutations; kill on the 3rd append.
	d, err := OpenDir(dir, DurableOptions{KillAfterAppends: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateArray("a", 4); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteCells("a", []int64{0}, [][]byte{{1}}); err != nil {
		t.Fatal(err)
	}
	err = d.WriteCells("a", []int64{1}, [][]byte{{2}})
	if !errors.Is(err, ErrServerKilled) {
		t.Fatalf("3rd mutation = %v, want ErrServerKilled", err)
	}
	// A dead server answers nothing.
	if _, err := d.ReadCells("a", []int64{0}); !errors.Is(err, ErrServerKilled) {
		t.Errorf("read after kill = %v, want ErrServerKilled", err)
	}
	if err := d.WriteCells("a", []int64{2}, [][]byte{{3}}); !errors.Is(err, ErrServerKilled) {
		t.Errorf("write after kill = %v, want ErrServerKilled", err)
	}
	d.Close()

	// Recovery finds the torn frame, truncates it, and keeps exactly the
	// acknowledged operations.
	d2, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	info := d2.Recovery()
	if !info.TornTail {
		t.Error("torn tail not reported")
	}
	if info.WALReplayed != 2 {
		t.Errorf("replayed %d records, want the 2 acknowledged ones", info.WALReplayed)
	}
	got, err := d2.ReadCells("a", []int64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], []byte{1}) {
		t.Errorf("acknowledged write lost: %v", got[0])
	}
	if got[1] != nil {
		t.Errorf("unacknowledged write survived: %v", got[1])
	}
}

func TestKillPointNeverRetried(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, DurableOptions{KillAfterAppends: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// ErrServerKilled is fatal: the retry layer must give up immediately.
	r := WithRetry(d, RetryPolicy{MaxAttempts: 5})
	err = r.CreateArray("a", 1)
	if !errors.Is(err, ErrServerKilled) {
		t.Fatalf("retried create = %v, want ErrServerKilled", err)
	}
	if n := r.Retries(); n != 0 {
		t.Errorf("%d retries against a killed server, want 0 (fatal error)", n)
	}
}

func TestOpenDirAtEpochRollsBack(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mutateSample(t, d)
	if err := d.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteCells("a", []int64{1}, [][]byte{{50}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(2); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteCells("a", []int64{2}, [][]byte{{60}}); err != nil {
		t.Fatal(err)
	}
	d.Close()

	// Roll back to epoch 1: the epoch-2 snapshot and the log are discarded.
	d1, err := OpenDirAtEpoch(dir, 1, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := d1.ReadCells("a", []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != nil || got[1] != nil {
		t.Errorf("post-epoch-1 state survived rollback: %v", got)
	}
	st, _ := d1.Stats()
	if st.Epoch != 1 || st.MutationsSinceEpoch != 0 {
		t.Errorf("rolled-back stats = %+v", st)
	}
	checkSample(t, d1)
	d1.Close()

	// The abandoned future is gone for good: reopening plain recovers epoch 1.
	d2, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Epoch() != 1 {
		t.Errorf("epoch after rollback + reopen = %d, want 1", d2.Epoch())
	}
}

func TestOpenDirAtEpochSkipsShutdownSnapshot(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mutateSample(t, d)
	if err := d.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	// Mutate past the epoch mark, then take a shutdown snapshot: it records
	// epoch 1 with dirty mutations folded in.
	if err := d.WriteCells("a", []int64{1}, [][]byte{{50}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	d.Close()

	// Rollback to epoch 1 must skip the newer shutdown snapshot (same epoch,
	// dirty > 0) and restore the checkpoint-consistent one.
	d1, err := OpenDirAtEpoch(dir, 1, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d1.Close()
	st, err := d1.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 || st.MutationsSinceEpoch != 0 {
		t.Errorf("rolled-back stats = %+v, want epoch 1 with 0 mutations", st)
	}
	got, err := d1.ReadCells("a", []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != nil {
		t.Errorf("post-epoch mutation survived rollback: %v", got)
	}
	checkSample(t, d1)
}

func TestOpenDirAtEpochUnknown(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mutateSample(t, d)
	if err := d.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	d.Close()
	if _, err := OpenDirAtEpoch(dir, 42, DurableOptions{}); !errors.Is(err, ErrNoSuchEpoch) {
		t.Errorf("unknown epoch = %v, want ErrNoSuchEpoch", err)
	}
}

func TestSnapshotRetention(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mutateSample(t, d)
	for epoch := int64(1); epoch <= 4; epoch++ {
		if err := d.Checkpoint(epoch); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()
	seqs, err := listSnapshots(OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0] != 3 || seqs[1] != 4 {
		t.Errorf("retained snapshots = %v, want [3 4]", seqs)
	}
}

// TestCheckpointDiskFullKeepsPreviousSnapshot: a root checkpoint whose
// snapshot write runs out of disk space part way fails with ErrDiskFull,
// leaves no temporary file, leaves the previous snapshot byte for byte, and
// loses no acknowledged write: the next OpenDir recovers them all from that
// snapshot and the WAL.
func TestCheckpointDiskFullKeepsPreviousSnapshot(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mutateSample(t, d)
	if err := d.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteCells("a", []int64{1}, [][]byte{{50, 51, 52}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(snapPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}

	// Reopen on a disk where the snapshot's 36-byte header lands and its
	// payload hits ENOSPC part way.
	full := NewFaultFS(nil, FaultFSConfig{Seed: 1, DiskFullAfterBytes: 36, ShortWrites: true})
	d, err = OpenDir(dir, DurableOptions{FS: full})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(2); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("checkpoint on a full disk = %v, want ErrDiskFull", err)
	}
	if full.DiskFullInjected() == 0 {
		t.Fatal("no write was refused")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "snap-*.tmp")); len(tmps) != 0 {
		t.Errorf("failed checkpoint left %v behind", tmps)
	}
	if seqs, _ := listSnapshots(OSFS, dir); len(seqs) != 1 || seqs[0] != 1 {
		t.Errorf("snapshots after a failed checkpoint = %v, want [1]", seqs)
	}
	after, err := os.ReadFile(snapPath(dir, 1))
	if err != nil {
		t.Fatalf("previous snapshot gone after a failed checkpoint: %v", err)
	}
	if !bytes.Equal(after, before) {
		t.Errorf("previous snapshot changed by a failed checkpoint: %d bytes, was %d", len(after), len(before))
	}

	d, err = OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	got, err := d.ReadCells("a", []int64{0, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], []byte{1}) || !bytes.Equal(got[1], []byte{50, 51, 52}) || !bytes.Equal(got[2], []byte{2, 3}) {
		t.Errorf("cells after recovery = %v", got)
	}
	if slots, err := d.ReadPath("t", 2); err != nil || !bytes.Equal(slots[0], []byte{9}) || !bytes.Equal(slots[5], []byte{4}) {
		t.Errorf("path after recovery = %v, %v", slots, err)
	}
}

func TestCorruptNewestSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mutateSample(t, d)
	if err := d.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteCells("a", []int64{1}, [][]byte{{50}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(2); err != nil {
		t.Fatal(err)
	}
	d.Close()

	// Flip bytes in the middle of the newest snapshot.
	path := snapPath(dir, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) / 2; i < len(data)/2+8 && i < len(data); i++ {
		data[i] ^= 0xFF
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	info := d2.Recovery()
	if info.SnapshotSeq != 1 {
		t.Errorf("restored snapshot #%d, want fallback to #1", info.SnapshotSeq)
	}
	if d2.Epoch() != 1 {
		t.Errorf("epoch = %d, want 1", d2.Epoch())
	}
	checkSample(t, d2)
}

func TestOpenDirAllSnapshotsCorrupt(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mutateSample(t, d)
	for epoch := int64(1); epoch <= 2; epoch++ {
		if err := d.Checkpoint(epoch); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()
	// Both retained snapshots rot: nothing is left to fall back to.
	for seq := int64(1); seq <= 2; seq++ {
		if err := os.WriteFile(snapPath(dir, seq), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OpenDir(dir, DurableOptions{}); !errors.Is(err, ErrCorruptSnapshot) {
		t.Errorf("all-corrupt open = %v, want ErrCorruptSnapshot", err)
	}
}

// TestTreeCellWritesRecover: a tree written by WriteCells — a round's
// write-back by flat bucket position, a repeated position among them, alone
// and in a Batch — is restored exactly by WAL replay, and again by loading the
// snapshot that absorbs the log: a WriteCells record naming a tree replays
// through the same write as one naming an array.
func TestTreeCellWritesRecover(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const buckets = 1<<4 - 1
	want := make([][]byte, buckets)
	for i := range want {
		want[i] = []byte{0xb0, byte(i)}
	}
	write := func(idx []int64, tag byte) [][]byte {
		cts := make([][]byte, len(idx))
		for k, i := range idx {
			cts[k] = []byte{tag, byte(i)}
			want[i] = cts[k]
		}
		return cts
	}
	round := []int64{0, 1, 2, 3, 7, 3, 8, 6, 13} // the top two levels, then three segments, two sharing bucket 3
	if err := errors.Join(
		d.CreateTree("t", 4, 1),
		d.WriteBuckets("t", 0, append([][]byte(nil), want...)),
		d.WriteCells("t", round, write(round, 0xc0)),
	); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Batch([]BatchOp{{Write: true, Name: "t", Idx: []int64{13, 6, 14}, Cts: write([]int64{13, 6, 14}, 0xd0)}, {Name: "t", Idx: []int64{14}}}); err != nil {
		t.Fatal(err)
	}
	all := make([]int64, buckets)
	for i := range all {
		all[i] = int64(i)
	}
	check := func(how string) {
		t.Helper()
		d, err := OpenDir(dir, DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		got, err := d.ReadCells("t", all)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s: bucket %d holds %x, want %x", how, i, got[i], want[i])
			}
		}
		if err := d.Checkpoint(1); err != nil { // a snapshot that absorbs the log
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	check("WAL replay")
	d2, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info := d2.Recovery(); info.SnapshotSeq == 0 || info.WALReplayed != 0 {
		t.Errorf("recovery info = %+v, want the snapshot alone", info)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	check("snapshot load")
}
