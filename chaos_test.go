package oblivfd

// Chaos tests: end-to-end FD discovery over a transport that keeps
// failing — transient server errors, latency spikes, and mid-call
// connection drops, all on seeded schedules. The fault-tolerance stack
// (store.WithRetry over re-dialing transport.Client/Pool) must complete the
// run and produce exactly the FDs of a fault-free run; the seed transport
// (no deadlines, no retries, no reconnection) must fail on the same
// schedule, which is the gap this stack closes.

import (
	"net"
	"testing"
	"time"

	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/transport"
	"github.com/oblivfd/oblivfd/securefd"
)

// chaosRates is the fault mix of the acceptance scenario: 3% transient
// errors and spikes at the storage layer, 2% connection drops per I/O op
// at the transport layer.
const (
	chaosErrorRate = 0.03
	chaosSpikeRate = 0.03
	chaosDropRate  = 0.02
)

// startChaosServer exposes a fault-injected store over a drop-injecting
// TCP listener.
func startChaosServer(t *testing.T, seed int64) (*store.FaultService, *transport.FaultyListener, string) {
	t.Helper()
	faulty := store.WithFaults(store.NewServer(), store.FaultConfig{
		Seed:      seed,
		ErrorRate: chaosErrorRate,
		SpikeRate: chaosSpikeRate,
		Spike:     200 * time.Microsecond,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := transport.WithConnFaults(l, transport.FaultConfig{Seed: seed + 1, DropRate: chaosDropRate})
	go func() { _ = transport.Serve(fl, faulty) }()
	t.Cleanup(func() { l.Close() })
	return faulty, fl, l.Addr().String()
}

// chaosClientConfig keeps deadlines short enough for tests.
func chaosClientConfig() transport.ClientConfig {
	return transport.ClientConfig{CallTimeout: 10 * time.Second, DialTimeout: 2 * time.Second}
}

// referenceFDs runs fault-free in-process discovery.
func referenceFDs(t *testing.T, rel *securefd.Relation) []relation.FD {
	t.Helper()
	db, err := securefd.Outsource(securefd.NewServer(), rel, securefd.Options{
		Protocol: securefd.ProtocolSort, MaxLHS: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	report, err := db.Discover()
	if err != nil {
		t.Fatal(err)
	}
	return report.Minimal
}

// TestChaosDiscoveryOverFaultyTCP is the acceptance scenario: full FD
// discovery over a TCP transport with seeded fault injection completes
// without intervention and yields the exact FD set of a fault-free run,
// with the fault/retry/reconnect counts surfaced in store.Stats.
func TestChaosDiscoveryOverFaultyTCP(t *testing.T) {
	rel := securefd.GenerateRND(5, 32, 21)
	want := referenceFDs(t, rel)

	_, fl, addr := startChaosServer(t, 1234)
	pool, err := transport.DialPoolWith(addr, 4, chaosClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	svc := store.WithRetry(pool, store.RetryPolicy{
		MaxAttempts:    10,
		InitialBackoff: time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
		Seed:           9,
	})

	db, err := securefd.Outsource(svc, rel, securefd.Options{
		Protocol: securefd.ProtocolSort, Workers: 2, MaxLHS: 2,
	})
	if err != nil {
		t.Fatalf("outsourcing over chaos transport: %v", err)
	}
	defer db.Close()
	report, err := db.Discover()
	if err != nil {
		t.Fatalf("discovery over chaos transport: %v", err)
	}
	if !relation.FDSetEqual(report.Minimal, want) {
		t.Errorf("FDs under chaos = %v, want %v", report.Minimal, want)
	}

	st, err := svc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.FaultsInjected == 0 {
		t.Error("chaos run injected no transient errors; rates too low to prove anything")
	}
	if fl.Drops() == 0 {
		t.Error("chaos run dropped no connections; rates too low to prove anything")
	}
	if st.Retries == 0 {
		t.Error("Stats.Retries == 0 despite injected faults")
	}
	if st.Reconnects == 0 {
		t.Error("Stats.Reconnects == 0 despite connection drops")
	}
	t.Logf("chaos run: %d faults injected, %d conn drops, %d retries, %d reconnects",
		st.FaultsInjected, fl.Drops(), st.Retries, st.Reconnects)
}

// TestChaosSeedTransportFails demonstrates the closed gap: the same fault
// schedule breaks a client with no deadlines, retries, or reconnection
// (the seed transport's behaviour, preserved by NewClient on a raw conn).
func TestChaosSeedTransportFails(t *testing.T) {
	rel := securefd.GenerateRND(5, 32, 21)
	_, _, addr := startChaosServer(t, 1234)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := transport.NewClient(conn) // no self-healing, no deadlines
	defer c.Close()

	db, err := securefd.Outsource(c, rel, securefd.Options{
		Protocol: securefd.ProtocolSort, MaxLHS: 2,
	})
	if err == nil {
		_, err = db.Discover()
		db.Close()
	}
	if err == nil {
		t.Fatal("seed transport completed a chaos run; the fault-tolerance stack is not being exercised")
	}
	t.Logf("seed transport failed as expected: %v", err)
}

// TestChaosDynamicProtocolOverFaultyTCP: the ORAM path (tree reads/writes,
// dynamic maintenance) also survives chaos — coverage for ReadPath /
// WritePath / WriteBuckets retries.
func TestChaosDynamicProtocolOverFaultyTCP(t *testing.T) {
	schema, err := securefd.NewSchema("Position", "Department", "Office")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := securefd.FromRows(schema, []securefd.Row{
		{"Engineer", "R&D", "B1"},
		{"Engineer", "R&D", "B2"},
		{"Sales", "Market", "B3"},
	})
	if err != nil {
		t.Fatal(err)
	}

	_, _, addr := startChaosServer(t, 77)
	pool, err := transport.DialPoolWith(addr, 2, chaosClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	svc := store.WithRetry(pool, store.RetryPolicy{
		MaxAttempts:    10,
		InitialBackoff: time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
		Seed:           9,
	})

	db, err := securefd.Outsource(svc, rel, securefd.Options{
		Protocol:       securefd.ProtocolDynamicORAM,
		InsertHeadroom: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	report, err := db.Discover()
	if err != nil {
		t.Fatal(err)
	}
	id, err := db.Insert(securefd.Row{"Engineer", "Support", "B9"})
	if err != nil {
		t.Fatalf("insert under chaos: %v", err)
	}
	rv, err := db.Revalidate(report.Minimal)
	if err != nil {
		t.Fatal(err)
	}
	if len(rv.Invalidated) == 0 {
		t.Error("violating insert under chaos invalidated nothing")
	}
	if err := db.Delete(id); err != nil {
		t.Fatalf("delete under chaos: %v", err)
	}
	rv, err = db.Revalidate(report.Minimal)
	if err != nil {
		t.Fatal(err)
	}
	if len(rv.Invalidated) != 0 {
		t.Errorf("FDs still broken after chaos rollback: %v", rv.Invalidated)
	}
}
