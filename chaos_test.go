package oblivfd

// Chaos tests: end-to-end FD discovery over a transport that keeps
// failing — transient server errors, latency spikes, and mid-call
// connection drops, all on seeded schedules. The fault-tolerance stack
// (store.WithRetry over re-dialing transport.Client/Pool) must complete the
// run and produce exactly the oracle's FDs; the seed transport (no
// deadlines, no retries, no reconnection) must fail on the same schedule,
// which is the gap this stack closes.

import (
	"net"
	"testing"

	"github.com/oblivfd/oblivfd/internal/transport"
	"github.com/oblivfd/oblivfd/securefd"
)

// TestChaosDiscoveryOverFaultyTCP is the acceptance scenario: full FD
// discovery over a TCP transport with seeded fault injection completes
// without intervention and yields the oracle's exact FD set, with the
// fault/retry/reconnect counts surfaced in store.Stats.
func TestChaosDiscoveryOverFaultyTCP(t *testing.T) {
	_, e := serveChaos(t, 1234)
	svc := dialPool(t, e.addr, 4, "", 10)
	scenario{rel: securefd.GenerateRND(5, 32, 21), opts: sortOpts}.run(t, svc)

	st, err := svc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.FaultsInjected == 0 {
		t.Error("chaos run injected no transient errors; rates too low to prove anything")
	}
	if e.drops.Drops() == 0 {
		t.Error("chaos run dropped no connections; rates too low to prove anything")
	}
	if st.Retries == 0 {
		t.Error("Stats.Retries == 0 despite injected faults")
	}
	if st.Reconnects == 0 {
		t.Error("Stats.Reconnects == 0 despite connection drops")
	}
	t.Logf("chaos run: %d faults injected, %d conn drops, %d retries, %d reconnects",
		st.FaultsInjected, e.drops.Drops(), st.Retries, st.Reconnects)
}

// TestChaosSeedTransportFails demonstrates the closed gap: the same fault
// schedule breaks a client with no deadlines, retries, or reconnection
// (the seed transport's behaviour, preserved by NewClient on a raw conn).
func TestChaosSeedTransportFails(t *testing.T) {
	_, e := serveChaos(t, 1234)
	conn, err := net.Dial("tcp", e.addr)
	if err != nil {
		t.Fatal(err)
	}
	c := transport.NewClient(conn) // no self-healing, no deadlines
	defer c.Close()
	_, err = scenario{
		rel:  securefd.GenerateRND(5, 32, 21),
		opts: securefd.Options{Protocol: securefd.ProtocolSort, MaxLHS: 2},
		want: errAny,
	}.run(t, c)
	t.Logf("seed transport failed as expected: %v", err)
}

// TestChaosDynamicProtocolOverFaultyTCP: the ORAM path (tree reads/writes,
// dynamic maintenance) also survives chaos — coverage for ReadPath /
// WritePath / WriteBuckets retries.
func TestChaosDynamicProtocolOverFaultyTCP(t *testing.T) {
	_, e := serveChaos(t, 77)
	dynamicLifecycle(t, dialPool(t, e.addr, 2, "", 10))
}

// dynamicLifecycle runs the dynamic protocol's whole life through svc:
// discovery, a violating insert that revalidation catches, and its rollback.
func dynamicLifecycle(t *testing.T, svc securefd.Service) {
	t.Helper()
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
	scenario{
		rel:  rel,
		opts: securefd.Options{Protocol: securefd.ProtocolDynamicORAM, InsertHeadroom: 4},
		then: func(db *securefd.Database, rep *securefd.Report) {
			id, err := db.Insert(securefd.Row{"Engineer", "Support", "B9"})
			if err != nil {
				t.Fatalf("insert: %v", err)
			}
			rv, err := db.Revalidate(rep.Minimal)
			if err != nil {
				t.Fatal(err)
			}
			if len(rv.Invalidated) == 0 {
				t.Error("violating insert invalidated nothing")
			}
			if err := db.Delete(id); err != nil {
				t.Fatalf("delete: %v", err)
			}
			if rv, err = db.Revalidate(rep.Minimal); err != nil {
				t.Fatal(err)
			}
			if len(rv.Invalidated) != 0 {
				t.Errorf("FDs still broken after rollback: %v", rv.Invalidated)
			}
		},
	}.run(t, svc)
}
