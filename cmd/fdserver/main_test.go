package main

import (
	"bytes"
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/transport"
)

func TestServeAcceptsClients(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- serve(l, config{}) }()

	c, err := transport.Dial(l.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := c.CreateArray("a", 4); err != nil {
		t.Fatalf("CreateArray: %v", err)
	}
	if err := c.WriteCells("a", []int64{0}, [][]byte{{1, 2}}); err != nil {
		t.Fatalf("WriteCells: %v", err)
	}
	got, err := c.ReadCells("a", []int64{0})
	if err != nil || len(got) != 1 || len(got[0]) != 2 {
		t.Fatalf("ReadCells = %v, %v", got, err)
	}
	c.Close()
	l.Close()

	select {
	case err := <-done:
		if err != nil {
			t.Errorf("serve returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("serve did not return after listener close")
	}
}

func TestServeWithLatency(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = serve(l, config{latency: 2 * time.Millisecond}) }()

	c, err := transport.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if err := c.CreateArray("a", 1); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 2*time.Millisecond {
		t.Errorf("latency not applied: call took %v", d)
	}
}

// TestServeWithFaultInjection: -fault-rate faults surface to the client as
// store.ErrTransient (retryable), and a retry-wrapped client rides them out.
func TestServeWithFaultInjection(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = serve(l, config{faultRate: 1, faultSeed: 3}) }()

	c, err := transport.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateArray("a", 1); !errors.Is(err, store.ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient through the -fault-rate server", err)
	}
}

// TestServeWithConnDrops: -drop-rate severs connections mid-call; a client
// under the retry layer — which sends a dropped call again while the client
// re-dials for it — still completes every operation.
func TestServeWithConnDrops(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = serve(l, config{dropRate: 0.05, faultSeed: 9}) }()

	c, err := transport.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	svc := store.WithRetry(c, store.RetryPolicy{MaxAttempts: 8, InitialBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond})
	if err := svc.CreateArray("a", 16); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := svc.WriteCells("a", []int64{int64(i % 16)}, [][]byte{{byte(i)}}); err != nil {
			t.Fatalf("write %d through -drop-rate server: %v", i, err)
		}
	}
	if c.Reconnects() == 0 {
		t.Error("no reconnects at 5% drop rate over 101 calls")
	}
}

func TestRunBadAddress(t *testing.T) {
	if err := run("256.256.256.256:0", config{}); err == nil {
		t.Error("bad listen address accepted")
	}
}

// TestSnapshotPersistence: state written before shutdown is visible after a
// restart with the same -snapshot path.
func TestSnapshotPersistence(t *testing.T) {
	path := t.TempDir() + "/state.snap"

	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- serve(l1, config{snapshotPath: path}) }()
	c1, err := transport.Dial(l1.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.CreateArray("persist", 2); err != nil {
		t.Fatal(err)
	}
	if err := c1.WriteCells("persist", []int64{1}, [][]byte{{42}}); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	l1.Close()
	if err := <-done; err != nil {
		t.Fatalf("first serve: %v", err)
	}

	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done2 := make(chan struct{})
	go func() { defer close(done2); _ = serve(l2, config{snapshotPath: path}) }()
	// The second server saves its snapshot on the way out; wait for that
	// before TempDir's cleanup removes the directory under it.
	defer func() { l2.Close(); <-done2 }()
	c2, err := transport.Dial(l2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got, err := c2.ReadCells("persist", []int64{1})
	if err != nil {
		t.Fatalf("ReadCells after restart: %v", err)
	}
	if len(got) != 1 || len(got[0]) != 1 || got[0][0] != 42 {
		t.Errorf("restored cell = %v, want [42]", got)
	}
}

// TestSnapshotSaveFailureKeepsPrevious: a shutdown save that runs out of disk
// space mid-write fails and leaves the previous -snapshot file byte for byte,
// with no temporary file beside it.
func TestSnapshotSaveFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	mem := store.NewServer()
	if err := mem.CreateArray("a", 2); err != nil {
		t.Fatal(err)
	}
	if err := mem.WriteCells("a", []int64{0}, [][]byte{{1}}); err != nil {
		t.Fatal(err)
	}
	if err := saveSnapshot(store.OSFS, path, mem); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.WriteCells("a", []int64{1}, [][]byte{{2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	// The 36-byte header lands; the payload write hits ENOSPC part way.
	full := store.NewFaultFS(nil, store.FaultFSConfig{Seed: 1, DiskFullAfterBytes: 36, ShortWrites: true})
	if err := saveSnapshot(full, path, mem); !errors.Is(err, store.ErrDiskFull) {
		t.Fatalf("save on a full disk = %v, want ErrDiskFull", err)
	}
	if full.DiskFullInjected() == 0 {
		t.Fatal("no write was refused")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("previous snapshot gone after a failed save: %v", err)
	}
	if !bytes.Equal(after, before) {
		t.Errorf("previous snapshot changed by a failed save: %d bytes, was %d", len(after), len(before))
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Errorf("directory holds %d entries after a failed save, want the snapshot alone", len(ents))
	}
}
