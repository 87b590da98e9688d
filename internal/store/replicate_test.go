package store

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/oblivfd/oblivfd/internal/otrace"
)

// loopConn wires a primary directly to an in-process replica, standing in for
// the transport's replication stream and its repair round trip.
type loopConn struct{ r *ReplicatedServer }

func (c loopConn) Replicate(fence, seq int64, frames [][]byte) error {
	_, err := c.r.ApplyReplicated(otrace.SpanContext{}, fence, seq, frames)
	return err
}
func (c loopConn) SyncSnapshot(fence, seq int64, snap []byte) error {
	return c.r.ApplySync(fence, seq, snap)
}
func (c loopConn) FetchRepair(fence int64, name string, idx []int64) ([][]byte, error) {
	return c.r.FetchRepair(fence, name, idx)
}
func (c loopConn) Close() error { return nil }

// newReplica opens a fresh replica-role server in its own temp dir.
func newReplica(t *testing.T) *ReplicatedServer {
	t.Helper()
	d, err := OpenDir(t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Replicated(d, ReplicationConfig{Primary: false})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// newPrimary opens a primary that ships to the given replicas over loopConns.
func newPrimary(t *testing.T, replicas ...*ReplicatedServer) *ReplicatedServer {
	t.Helper()
	d, err := OpenDir(t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var peers []string
	byAddr := map[string]*ReplicatedServer{}
	for i, rep := range replicas {
		addr := string(rune('a' + i))
		peers = append(peers, addr)
		byAddr[addr] = rep
	}
	p, err := Replicated(d, ReplicationConfig{
		Primary:     true,
		Peers:       peers,
		RedialEvery: 1,
		Dial: func(addr string) (ReplicaConn, error) {
			return loopConn{byAddr[addr]}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestReplicationMirrorsPrimaryState(t *testing.T) {
	replica := newReplica(t)
	primary := newPrimary(t, replica)

	mutateSample(t, primary)
	if err := primary.Checkpoint(1); err != nil {
		t.Fatal(err)
	}

	// The replica refuses client reads...
	if _, err := replica.ReadCells("a", []int64{0}); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("replica read error = %v, want ErrNotPrimary", err)
	}
	// ...but its durable layer holds the primary's exact state.
	checkSample(t, replica.Durable())

	if lag := primary.ReplicaLag(); lag != 0 {
		t.Errorf("replication lag = %d after synchronous shipping, want 0", lag)
	}
	if w, s := replica.Watermark(), primary.ReplicaLag(); w == 0 || s != 0 {
		t.Errorf("watermark = %d (want > 0), lag = %d", w, s)
	}
}

func TestReplicationBatchShipsOnce(t *testing.T) {
	replica := newReplica(t)
	primary := newPrimary(t, replica)
	if err := primary.CreateArray("b", 8); err != nil {
		t.Fatal(err)
	}
	if err := primary.CreateTree("u", 2, 1); err != nil {
		t.Fatal(err)
	}
	before := replica.Watermark()
	out, err := primary.Batch([]BatchOp{
		{Write: true, Name: "b", Idx: []int64{0}, Cts: [][]byte{{1}}},
		{Name: "b", Idx: []int64{0}},
		{Write: true, Name: "b", Idx: []int64{1}, Cts: [][]byte{{2}}},
		{Write: true, Name: "u", Idx: []int64{0, 2}, Cts: [][]byte{{3}, {4}}}, // u's path to leaf 1
		{Name: "u", Idx: []int64{0, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[1][0], []byte{1}) || !bytes.Equal(out[4][1], []byte{4}) {
		t.Fatalf("batch reads = %v, %v", out[1], out[4])
	}
	if got := replica.Watermark() - before; got != 3 {
		t.Errorf("replica applied %d records for the batch, want 3 (writes only)", got)
	}
	path, err := replica.Durable().ReadPath("u", 1)
	if err != nil || !bytes.Equal(path[0], []byte{3}) || !bytes.Equal(path[1], []byte{4}) {
		t.Errorf("replica path = %v, %v", path, err)
	}
	cts, err := replica.Durable().ReadCells("b", []int64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cts[0], []byte{1}) || !bytes.Equal(cts[1], []byte{2}) {
		t.Errorf("replica cells = %v", cts)
	}
}

// TestReplicaRejectsDamagedStream is the torn/bit-flipped stream property
// test: whatever prefix truncation or single-bit corruption hits a shipped
// frame, the replica detects it (ErrIntegrity), applies nothing, and a
// snapshot resync restores it to the stream.
func TestReplicaRejectsDamagedStream(t *testing.T) {
	replica := newReplica(t)

	frame, err := encodeWALRecord(&Op{Kind: KindCreateArray, Name: "x", N: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))

	damaged := make([][]byte, 0, 64)
	for cut := 0; cut < len(frame); cut++ { // every torn prefix, header included
		damaged = append(damaged, frame[:cut])
	}
	for i := 0; i < 32; i++ { // random single-bit flips across the frame
		b := append([]byte(nil), frame...)
		pos := rng.Intn(len(b))
		b[pos] ^= 1 << uint(rng.Intn(8))
		damaged = append(damaged, b)
	}
	damaged = append(damaged, append(append([]byte(nil), frame...), 0xEE)) // trailing garbage

	for i, bad := range damaged {
		w, err := replica.ApplyReplicated(otrace.SpanContext{}, 1, replica.Watermark(), [][]byte{bad})
		if !errors.Is(err, ErrIntegrity) {
			t.Fatalf("damaged frame %d: error = %v, want ErrIntegrity", i, err)
		}
		if w != 0 || replica.Watermark() != 0 {
			t.Fatalf("damaged frame %d advanced the watermark to %d", i, w)
		}
		if _, err := replica.Durable().ArrayLen("x"); !errors.Is(err, ErrUnknownObject) {
			t.Fatalf("damaged frame %d applied state: %v", i, err)
		}
	}

	// A batch where only the last frame is damaged must apply nothing either.
	good, err := encodeWALRecord(&Op{Kind: KindCreateArray, Name: "y", N: 4})
	if err != nil {
		t.Fatal(err)
	}
	torn := frame[:len(frame)-3]
	if _, err := replica.ApplyReplicated(otrace.SpanContext{}, 1, 0, [][]byte{good, torn}); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("mixed batch error = %v, want ErrIntegrity", err)
	}
	if _, err := replica.Durable().ArrayLen("y"); !errors.Is(err, ErrUnknownObject) {
		t.Fatal("replica applied a prefix of a damaged batch")
	}

	// The primary's answer to ErrIntegrity is a snapshot push; after it the
	// replica is back on the stream at the primary's position.
	src := NewServer()
	if err := src.CreateArray("x", 8); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := src.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := replica.ApplySync(1, 7, snap.Bytes()); err != nil {
		t.Fatal(err)
	}
	if w := replica.Watermark(); w != 7 {
		t.Fatalf("watermark after sync = %d, want 7", w)
	}
	if _, err := replica.ApplyReplicated(otrace.SpanContext{}, 1, 7, [][]byte{frame}); err != nil {
		t.Fatalf("clean frame after resync: %v", err)
	}
	if n, err := replica.Durable().ArrayLen("x"); err != nil || n != 8 {
		t.Fatalf("replica state after resync: n=%d err=%v", n, err)
	}
}

func TestReplicaRejectsSequenceGap(t *testing.T) {
	replica := newReplica(t)
	frame, err := encodeWALRecord(&Op{Kind: KindCreateArray, Name: "x", N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replica.ApplyReplicated(otrace.SpanContext{}, 1, 5, [][]byte{frame}); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("gap error = %v, want ErrIntegrity", err)
	}
	if replica.Watermark() != 0 {
		t.Fatal("gap advanced the watermark")
	}
}

func TestShippingHealsDivergedReplica(t *testing.T) {
	replica := newReplica(t)
	// Desynchronize the replica: pretend it applied 3 records of some
	// earlier life that the primary never shipped this reign.
	var empty bytes.Buffer
	if err := NewServer().SaveSnapshot(&empty); err != nil {
		t.Fatal(err)
	}
	if err := replica.ApplySync(1, 3, empty.Bytes()); err != nil {
		t.Fatal(err)
	}

	primary := newPrimary(t, replica)
	if err := primary.CreateArray("h", 4); err != nil { // seq 0 vs watermark 3
		t.Fatal(err)
	}
	if err := primary.WriteCells("h", []int64{1}, [][]byte{{42}}); err != nil {
		t.Fatal(err)
	}
	cts, err := replica.Durable().ReadCells("h", []int64{1})
	if err != nil {
		t.Fatalf("replica not healed: %v", err)
	}
	if !bytes.Equal(cts[0], []byte{42}) {
		t.Fatalf("replica cells after heal = %v", cts)
	}
	if lag := primary.ReplicaLag(); lag != 0 {
		t.Errorf("lag after heal = %d", lag)
	}
}

func TestFencingDeposesOldPrimary(t *testing.T) {
	replica := newReplica(t)
	primary := newPrimary(t, replica)
	if err := primary.CreateArray("f", 2); err != nil {
		t.Fatal(err)
	}

	// A failover client promotes the replica at fence 2...
	if _, err := replica.Promote(1); !errors.Is(err, ErrFenced) {
		t.Fatalf("promote at non-increasing fence: %v, want ErrFenced", err)
	}
	fence, err := replica.Promote(2)
	if err != nil || fence != 2 {
		t.Fatalf("promote = (%d, %v)", fence, err)
	}
	if !replica.IsPrimary() {
		t.Fatal("promoted replica is not primary")
	}

	// ...and the old primary, once it hears fence 2, refuses all writes.
	if err := primary.ObserveFence(2); err != nil {
		t.Fatal(err)
	}
	if primary.IsPrimary() {
		t.Fatal("deposed primary still claims the role")
	}
	if err := primary.WriteCells("f", []int64{0}, [][]byte{{1}}); !errors.Is(err, ErrFenced) {
		t.Fatalf("deposed write error = %v, want ErrFenced", err)
	}
	if _, err := primary.ReadCells("f", []int64{0}); !errors.Is(err, ErrFenced) {
		t.Fatalf("deposed read error = %v, want ErrFenced", err)
	}
	// Stats still answer (the failover prober depends on it).
	st, err := primary.Stats()
	if err != nil || st.Primary || st.Fence != 2 {
		t.Fatalf("deposed stats = %+v, %v", st, err)
	}

	// Replication from the stale fence is refused too.
	frame, _ := encodeWALRecord(&Op{Kind: KindCreateArray, Name: "z", N: 1})
	if _, err := replica.ApplyReplicated(otrace.SpanContext{}, 1, replica.Watermark(), [][]byte{frame}); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale-fence shipment error = %v, want ErrFenced", err)
	}
}

func TestFenceFileSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Replicated(d, ReplicationConfig{Primary: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CreateArray("p", 2); err != nil {
		t.Fatal(err)
	}
	if err := r.ObserveFence(5); err != nil { // deposed at fence 5
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Restarting with the original primary flags cannot resurrect the role:
	// the FENCE file recorded the loss.
	d2, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Replicated(d2, ReplicationConfig{Primary: true, Fence: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r2.IsPrimary() || r2.Fence() != 5 {
		t.Fatalf("rebooted deposed primary: primary=%v fence=%d", r2.IsPrimary(), r2.Fence())
	}
	if err := r2.WriteCells("p", []int64{0}, [][]byte{{1}}); !errors.Is(err, ErrFenced) {
		t.Fatalf("rebooted deposed write error = %v, want ErrFenced", err)
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}

	// An operator force-promotes with a strictly higher fence.
	d3, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Replicated(d3, ReplicationConfig{Primary: true, Fence: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	if !r3.IsPrimary() || r3.Fence() != 6 {
		t.Fatalf("force-promoted: primary=%v fence=%d", r3.IsPrimary(), r3.Fence())
	}
	if err := r3.WriteCells("p", []int64{0}, [][]byte{{1}}); err != nil {
		t.Fatal(err)
	}
}

func TestMalformedFenceFileRefusesBoot(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := os.WriteFile(filepath.Join(dir, fenceFile), []byte("not a fence"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replicated(d, ReplicationConfig{Primary: true}); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("malformed FENCE boot error = %v, want ErrIntegrity", err)
	}
}

func TestDownReplicaNeverBlocksPrimary(t *testing.T) {
	d, err := OpenDir(t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dials := 0
	p, err := Replicated(d, ReplicationConfig{
		Primary:     true,
		Peers:       []string{"down"},
		RedialEvery: 4,
		Dial: func(string) (ReplicaConn, error) {
			dials++
			return nil, errors.New("connection refused")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.CreateArray("u", 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := p.WriteCells("u", []int64{0}, [][]byte{{byte(i)}}); err != nil {
			t.Fatalf("write %d with replica down: %v", i, err)
		}
	}
	if dials == 0 || dials > 8 {
		t.Errorf("dial attempts = %d, want a handful at the redial cadence", dials)
	}
	if lag := p.ReplicaLag(); lag != 17 {
		t.Errorf("lag with replica down = %d, want 17", lag)
	}
}

// TestResyncPreservesAdversaryTrace pins the trace-continuity contract of
// ResetFromSnapshot: a snapshot resync replaces the replica's object state
// but not its accumulated adversary recorder or reveal log, so the
// per-replica trace accounting (DESIGN.md §13) holds across resyncs and a
// cached Trace() pointer keeps observing a live recorder.
func TestResyncPreservesAdversaryTrace(t *testing.T) {
	replica := newReplica(t)
	rec := replica.Trace()
	if err := replica.Durable().Reveal("pre", 1); err != nil {
		t.Fatal(err)
	}

	var snap bytes.Buffer
	if err := NewServer().SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := replica.ApplySync(1, 3, snap.Bytes()); err != nil {
		t.Fatal(err)
	}

	if replica.Trace() != rec {
		t.Fatal("snapshot resync replaced the adversary trace recorder")
	}
	got := replica.Durable().Reveals()
	if len(got) != 1 || got[0].Tag != "pre" {
		t.Fatalf("reveal log after resync = %v, want the pre-sync entry preserved", got)
	}
}

// blockingConn is a replica connection whose Replicate hangs (connection
// open, peer not answering) until released, modeling a partitioned peer.
type blockingConn struct {
	entered chan struct{}
	release chan struct{}
}

func (c *blockingConn) Replicate(fence, seq int64, frames [][]byte) error {
	c.entered <- struct{}{}
	<-c.release
	return nil
}
func (c *blockingConn) SyncSnapshot(fence, seq int64, snap []byte) error { return nil }
func (c *blockingConn) FetchRepair(int64, string, []int64) ([][]byte, error) {
	return nil, ErrUnavailable
}
func (c *blockingConn) Close() error { return nil }

// TestHungPeerDoesNotBlockReads asserts the availability contract of the
// split-lock design: while a shipment hangs on a partitioned peer, only
// writers wait — reads, Stats (the failover prober's lifeline), lag
// telemetry, and fence observations all answer. A regression here shows up
// as this test deadlocking against the suite timeout.
func TestHungPeerDoesNotBlockReads(t *testing.T) {
	d, err := OpenDir(t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	conn := &blockingConn{entered: make(chan struct{}), release: make(chan struct{})}
	p, err := Replicated(d, ReplicationConfig{
		Primary:     true,
		Peers:       []string{"hung"},
		RedialEvery: 1,
		Dial:        func(string) (ReplicaConn, error) { return conn, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	done := make(chan error, 1)
	go func() { done <- p.CreateArray("x", 2) }()
	<-conn.entered // the record is applied; its shipment is now hanging

	// The applied record is already readable on the primary...
	if n, err := p.ArrayLen("x"); err != nil || n != 2 {
		t.Fatalf("read during hung shipment: n=%d err=%v", n, err)
	}
	// ...probes answer with the role and the visible lag...
	st, err := p.Stats()
	if err != nil || !st.Primary {
		t.Fatalf("stats during hung shipment = %+v, %v", st, err)
	}
	if lag := p.ReplicaLag(); lag != 1 {
		t.Errorf("lag during hung shipment = %d, want 1", lag)
	}
	// ...and role changes are not queued behind the stalled writer.
	if err := p.ObserveFence(9); err != nil {
		t.Fatalf("fence observation during hung shipment: %v", err)
	}
	if p.IsPrimary() {
		t.Fatal("higher fence did not depose during hung shipment")
	}

	close(conn.release)
	if err := <-done; err != nil {
		t.Fatalf("mutation with hung peer: %v", err)
	}
}

// TestRefusedWriteChangesNothing: a write refused for one out-of-range
// position applies none of its positions. The cell, the stored bytes and the
// mutation count stay as they were on the primary, after it reopens its
// directory, and on its replica. (Checking as it wrote, the server once
// stored the positions ahead of the bad one in memory but logged, counted and
// shipped none of them: a resuming client's consistency check passed on a
// changed state, a restart undid the change, the replica never saw it.)
func TestRefusedWriteChangesNothing(t *testing.T) {
	replica := newReplica(t)
	dir := t.TempDir()
	pd, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	primary, err := Replicated(pd, ReplicationConfig{
		Primary: true, Peers: []string{"r"}, RedialEvery: 1,
		Dial: func(string) (ReplicaConn, error) { return loopConn{replica}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.CreateArray("a", 4); err != nil {
		t.Fatal(err)
	}
	if err := primary.WriteCells("a", []int64{0}, [][]byte{{1}}); err != nil {
		t.Fatal(err)
	}
	if err := primary.WriteCells("a", []int64{0, 9}, [][]byte{{2, 2}, {3}}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("WriteCells with index 9 of 4 = %v, want ErrOutOfRange", err)
	}
	check := func(where string, svc Service) {
		t.Helper()
		cells, err := svc.ReadCells("a", []int64{0})
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if !bytes.Equal(cells[0], []byte{1}) {
			t.Errorf("%s: cell 0 = %v, want [1]", where, cells[0])
		}
		st, err := svc.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.StoredBytes != 1 || st.MutationsSinceEpoch != 2 {
			t.Errorf("%s: %d stored bytes, %d mutations; want 1 and 2", where, st.StoredBytes, st.MutationsSinceEpoch)
		}
	}
	check("primary", primary)
	check("replica", replica.Durable())
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenDir(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	check("reopened primary", reopened)
}
