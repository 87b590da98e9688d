package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"

	"github.com/oblivfd/oblivfd/internal/store"
)

// diskFullStub sheds every write the way a degraded durable server does.
type diskFullStub struct{ store.Service }

func (s diskFullStub) WriteCells(name string, idx []int64, cts [][]byte) error {
	return fmt.Errorf("stub: parked %q: %w", name, store.ErrDiskFull)
}

// TestDiskFullSurvivesTheWire: a degraded server's ErrDiskFull must classify
// identically on the far side of TCP — retryable, not fatal — or clients
// would abort discoveries a freed-up disk could have finished.
func TestDiskFullSurvivesTheWire(t *testing.T) {
	msg, code := encodeErr(fmt.Errorf("op: %w", store.ErrDiskFull))
	if code != codeDiskFull {
		t.Fatalf("encodeErr code = %d, want codeDiskFull", code)
	}
	if got := decodeErr(code, msg); !errors.Is(got, store.ErrDiskFull) {
		t.Fatalf("decoded %v does not match ErrDiskFull", got)
	}

	backend := diskFullStub{store.NewServer()}
	l, srv := listenServe(t, backend)
	c, err := Dial(l)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer srv.Shutdown(0)
	if err := c.CreateArray("a", 2); err != nil {
		t.Fatal(err)
	}
	werr := c.WriteCells("a", []int64{0}, [][]byte{{1}})
	if !errors.Is(werr, store.ErrDiskFull) {
		t.Fatalf("write over TCP = %v, want errors.Is(ErrDiskFull)", werr)
	}
	if !store.DefaultRetryable(werr) {
		t.Error("ErrDiskFull lost its retryable classification crossing the wire")
	}
	// Reads still serve: degradation is write-only.
	if _, err := c.ReadCells("a", []int64{0}); err != nil {
		t.Errorf("read from degraded server = %v, want success", err)
	}
}

// listenServe starts a transport server over backend on a loopback socket
// and returns the address.
func listenServe(t *testing.T, backend store.Service) (string, *Server) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(backend)
	go func() { _ = srv.Serve(l) }()
	return l.Addr().String(), srv
}

// TestRepairRPCRoundTrip drives the kindRepair verb over real sockets: the
// primary rots a cell, a foreground read triggers repair, and the verified
// bytes arrive from the replica through the transport's FetchRepair.
func TestRepairRPCRoundTrip(t *testing.T) {
	nodes := startReplCluster(t, 2)
	primary := nodes[0].rep
	if err := primary.CreateArray("a", 4); err != nil {
		t.Fatal(err)
	}
	if err := primary.WriteCells("a", []int64{0, 1}, [][]byte{{10}, {20}}); err != nil {
		t.Fatal(err)
	}
	if err := primary.Durable().CorruptStored("a", 1, 3); err != nil {
		t.Fatal(err)
	}

	cts, err := primary.ReadCells("a", []int64{0, 1})
	if err != nil {
		t.Fatalf("read across rot = %v, want repair over the wire", err)
	}
	if !bytes.Equal(cts[0], []byte{10}) || !bytes.Equal(cts[1], []byte{20}) {
		t.Fatalf("repaired cells = %v", cts)
	}
	if primary.Repairs() == 0 {
		t.Error("no repair counted")
	}
}

// TestRepairRPCFenceChecked: a repair fetch carrying a stale fence is
// refused — a fenced-off ex-primary cannot pull state it no longer owns.
func TestRepairRPCFenceChecked(t *testing.T) {
	nodes := startReplCluster(t, 2)
	primary := nodes[0].rep
	if err := primary.CreateArray("a", 2); err != nil {
		t.Fatal(err)
	}
	if err := primary.WriteCells("a", []int64{0}, [][]byte{{10}}); err != nil {
		t.Fatal(err)
	}

	c, err := DialWith(nodes[1].addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The replica learned the primary's fence from the stream; a current
	// fence is served, a stale one is refused.
	cts, err := c.FetchRepair(primary.Fence(), "a", []int64{0})
	if err != nil {
		t.Fatalf("current-fence fetch = %v", err)
	}
	if !bytes.Equal(cts[0], []byte{10}) {
		t.Fatalf("fetched cell = %v", cts[0])
	}
	if _, err := c.FetchRepair(primary.Fence()-1, "a", []int64{0}); !errors.Is(err, store.ErrFenced) {
		t.Errorf("stale-fence fetch = %v, want ErrFenced", err)
	}
}

// TestRepairRPCDonorReVerifies: a donor whose own copy is rotted answers
// ErrIntegrity instead of serving the damage onward.
func TestRepairRPCDonorReVerifies(t *testing.T) {
	nodes := startReplCluster(t, 2)
	primary := nodes[0].rep
	if err := primary.CreateArray("a", 2); err != nil {
		t.Fatal(err)
	}
	if err := primary.WriteCells("a", []int64{0}, [][]byte{{10}}); err != nil {
		t.Fatal(err)
	}
	// Rot the REPLICA's copy, then ask it to donate.
	if err := nodes[1].rep.Durable().CorruptStored("a", 0, 2); err != nil {
		t.Fatal(err)
	}
	c, err := DialWith(nodes[1].addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.FetchRepair(primary.Fence(), "a", []int64{0}); !errors.Is(err, store.ErrIntegrity) {
		t.Errorf("rotted donor fetch = %v, want ErrIntegrity", err)
	}
}
