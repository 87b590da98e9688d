package transport

import (
	"net"
	"testing"

	"github.com/oblivfd/oblivfd/internal/store"
)

// driveFaultyServer runs a fixed sequential call pattern against a server
// behind a drop-injecting listener and returns the per-call success
// pattern plus the drop count.
func driveFaultyServer(t *testing.T, seed int64, rate float64) ([]bool, int64) {
	t.Helper()
	backend := store.NewServer()
	if err := backend.CreateArray("a", 16); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := WithConnFaults(l, FaultConfig{Seed: seed, DropRate: rate})
	go func() { _ = Serve(fl, backend) }()
	t.Cleanup(func() { l.Close() })

	// The client sends each call once and observes each drop as a failure;
	// it re-dials only on the call after a break, so at most one connection
	// is ever live and the shared drop schedule stays sequential.
	c, err := DialWith(l.Addr().String(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	var pattern []bool
	for i := 0; i < 60; i++ {
		err := c.WriteCells("a", []int64{int64(i % 16)}, [][]byte{{byte(i)}})
		pattern = append(pattern, err == nil)
	}
	c.Close()
	return pattern, fl.Drops()
}

// TestConnDropScheduleDeterministic: the same seed yields the same drop
// schedule; a different seed yields a different one.
func TestConnDropScheduleDeterministic(t *testing.T) {
	a, dropsA := driveFaultyServer(t, 99, 0.05)
	b, dropsB := driveFaultyServer(t, 99, 0.05)
	if dropsA == 0 {
		t.Fatal("no drops injected at 5% over 60 calls")
	}
	if dropsA != dropsB {
		t.Fatalf("drop counts differ under same seed: %d vs %d", dropsA, dropsB)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drop schedules diverge at call %d", i)
		}
	}
}

// TestSelfHealingClientSurvivesDrops: under the retry layer, which sends a
// dropped call again while the client re-dials for it, the same
// drop-riddled server is fully usable — every call eventually lands.
func TestSelfHealingClientSurvivesDrops(t *testing.T) {
	backend := store.NewServer()
	if err := backend.CreateArray("a", 16); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := WithConnFaults(l, FaultConfig{Seed: 4, DropRate: 0.05})
	go func() { _ = Serve(fl, backend) }()
	t.Cleanup(func() { l.Close() })

	c, err := DialWith(l.Addr().String(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	svc := retried(c)
	for i := 0; i < 200; i++ {
		if err := svc.WriteCells("a", []int64{int64(i % 16)}, [][]byte{{byte(i)}}); err != nil {
			t.Fatalf("write %d through faulty transport: %v", i, err)
		}
		got, err := svc.ReadCells("a", []int64{int64(i % 16)})
		if err != nil || got[0][0] != byte(i) {
			t.Fatalf("read %d = %v, %v", i, got, err)
		}
	}
	if fl.Drops() == 0 {
		t.Fatal("no drops injected at 5% over 400 calls")
	}
	if c.Reconnects() == 0 {
		t.Error("client survived drops without reconnecting")
	}
}
