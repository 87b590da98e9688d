package oblivfd

// Kill-the-primary chaos harness for the replication subsystem: a 3-node
// replicated cluster (1 primary, 2 replicas) serves a discovery run through
// a failover client; the primary is killed at seeded WAL offsets
// mid-discovery; the client must promote a replica (with a higher fencing
// epoch) and finish with the exact FD set of an uninterrupted run. The
// per-layer properties live in internal/store (stream integrity, fencing)
// and internal/transport (promotion, fence-aware handshakes); this is the
// end-to-end composition check, the replication analogue of crash_test.go.

import (
	"errors"
	"fmt"
	"net"
	"testing"

	"github.com/oblivfd/oblivfd/internal/baseline"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/transport"
	"github.com/oblivfd/oblivfd/securefd"
)

var failoverOpts = securefd.Options{Protocol: securefd.ProtocolSort, Workers: 2, MaxLHS: 2}

// failCluster boots a cluster whose primary's crash-injection point is armed
// at kills WAL appends (0 = never killed).
func failCluster(t *testing.T, n int, kills int64) []*clusterNode {
	return newCluster(t, n, func(i int, s *nodeSetup) {
		if i == 0 {
			s.durable.KillAfterAppends = kills
		}
	})
}

// failoverService dials the cluster; a promotion mid-call is ridden out by
// the retry policy.
func failoverService(t *testing.T, nodes []*clusterNode) (*transport.FailoverPool, securefd.Service) {
	return dial(t, nodes, 6)
}

// cleanReplicatedRun discovers over an unkilled cluster and returns the
// baseline report plus the primary's WAL-append counts after upload and at
// the end — the coordinate system the kill points are placed in.
func cleanReplicatedRun(t *testing.T) (rep *securefd.Report, afterUpload, total int64) {
	t.Helper()
	nodes := failCluster(t, 3, 0)
	_, svc := failoverService(t, nodes)
	db, err := securefd.Outsource(svc, crashRelation(t), failoverOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	afterUpload = nodes[0].rep.Durable().WALAppends()
	report, err := db.Discover()
	if err != nil {
		t.Fatal(err)
	}
	total = nodes[0].rep.Durable().WALAppends()
	if want := baseline.MinimalFDs(crashRelation(t)); !relation.FDSetEqual(report.Minimal, want) {
		t.Fatalf("clean replicated run FDs = %v, want oracle %v", report.Minimal, want)
	}
	// Synchronous shipping: nothing outstanding at the end of a clean run.
	if lag := nodes[0].rep.ReplicaLag(); lag != 0 {
		t.Fatalf("clean run ends with replication lag %d", lag)
	}
	return report, afterUpload, total
}

// TestFailoverPrimaryKilledMidDiscovery is the tentpole acceptance test:
// the primary dies at five seeded WAL offsets spread across the discovery
// phase; each time the client must fail over to a promoted replica and
// produce the identical FD set, and the dead primary's successor must hold a
// strictly higher fence.
func TestFailoverPrimaryKilledMidDiscovery(t *testing.T) {
	want, afterUpload, total := cleanReplicatedRun(t)
	if total-afterUpload < 6 {
		t.Fatalf("discovery spans only %d appends; cannot place 5 kill points", total-afterUpload)
	}
	for i := int64(1); i <= 5; i++ {
		kill := afterUpload + i*(total-afterUpload)/6
		// Named by position, not by offset: the offset moves with every
		// change to how much a discovery writes.
		t.Run(fmt.Sprintf("kill-%d-of-5", i), func(t *testing.T) {
			t.Logf("primary dies at WAL append %d of %d (upload ends at %d)", kill, total, afterUpload)
			nodes := failCluster(t, 3, kill)
			f, svc := failoverService(t, nodes)
			db, err := securefd.Outsource(svc, crashRelation(t), failoverOpts)
			if err != nil {
				t.Fatalf("Outsource: %v", err)
			}
			defer db.Close()
			report, err := db.Discover()
			if err != nil {
				t.Fatalf("discovery across primary death: %v", err)
			}
			if !relation.FDSetEqual(report.Minimal, want.Minimal) {
				t.Errorf("FDs = %v, want %v", report.Minimal, want.Minimal)
			}
			if n := f.Failovers(); n < 1 {
				t.Errorf("failovers = %d, want >= 1 (the kill point must have fired)", n)
			}
			addr, fence := f.Primary()
			if addr == nodes[0].addr {
				t.Errorf("client still points at the killed primary %s", addr)
			}
			if fence < 2 {
				t.Errorf("post-failover fence = %d, want >= 2", fence)
			}
			if nodes[0].rep.IsPrimary() {
				t.Error("killed ex-primary still claims the role")
			}
		})
	}
}

// TestFailoverPoolNoFailoverOnDrop: a connection dropped mid-call on a
// primary that can still be dialed is not a failover. Discovery against a
// healthy cluster whose primary severs 2 % of frames rides every drop out
// through the retry layer and a re-dial of the same primary, and ends with
// the plaintext FD set and no failover.
func TestFailoverPoolNoFailoverOnDrop(t *testing.T) {
	nodes := newCluster(t, 3, func(i int, s *nodeSetup) {
		if i == 0 {
			s.drops = transport.FaultConfig{Seed: 7, DropRate: 0.02}
		}
	})
	f, svc := dial(t, nodes, 10)
	db, err := securefd.Outsource(svc, crashRelation(t), failoverOpts)
	if err != nil {
		t.Fatalf("Outsource: %v", err)
	}
	defer db.Close()
	report, err := db.Discover()
	if err != nil {
		t.Fatalf("discovery over a dropping primary: %v", err)
	}
	if want := baseline.MinimalFDs(crashRelation(t)); !relation.FDSetEqual(report.Minimal, want) {
		t.Errorf("FDs = %v, want oracle %v", report.Minimal, want)
	}
	st, err := svc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Retries == 0 || st.Reconnects == 0 {
		t.Errorf("Stats = %d retries, %d reconnects; the drops were not exercised", st.Retries, st.Reconnects)
	}
	if n := f.Failovers(); n != 0 {
		t.Errorf("failovers = %d, want 0: a dropped connection is not a lost primary", n)
	}
	if addr, fence := f.Primary(); addr != nodes[0].addr || fence != 1 {
		t.Errorf("serving %s at fence %d, want the original primary %s at fence 1", addr, fence, nodes[0].addr)
	}
}

// TestFailoverExPrimaryRejoinsFenced: after a failover, the ex-primary's
// directory is reopened with its original primary flags (an operator
// restarting the crashed box unchanged). The FENCE file its successor's
// stream left behind demotes it at boot; it cannot serve clients or accept
// writes, and a fence-aware handshake is refused.
func TestFailoverExPrimaryRejoinsFenced(t *testing.T) {
	_, afterUpload, total := cleanReplicatedRun(t)
	kill := afterUpload + (total-afterUpload)/2
	nodes := failCluster(t, 3, kill)
	f, svc := failoverService(t, nodes)
	db, err := securefd.Outsource(svc, crashRelation(t), failoverOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Discover(); err != nil {
		t.Fatalf("discovery across primary death: %v", err)
	}
	_, fence := f.Primary()
	if fence < 2 {
		t.Fatalf("post-failover fence = %d, want >= 2", fence)
	}

	// Restart the dead box from its directory, flags unchanged.
	nodes[0].ts.Shutdown(0)
	if err := nodes[0].rep.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := store.OpenDir(nodes[0].dir, store.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := store.Replicated(d, store.ReplicationConfig{Primary: true, Fence: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rep2.Close()
	if rep2.IsPrimary() {
		t.Fatal("ex-primary rebooted into the primary role despite its successor's fence")
	}
	if rep2.Fence() < fence {
		t.Errorf("rebooted fence = %d, want >= %d (learned from the successor's stream)", rep2.Fence(), fence)
	}
	if err := rep2.WriteCells("anything", []int64{0}, [][]byte{{1}}); err == nil ||
		(!errors.Is(err, securefd.ErrNotPrimary) && !errors.Is(err, securefd.ErrFenced)) {
		t.Errorf("rebooted ex-primary write = %v, want ErrNotPrimary or ErrFenced", err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts2 := transport.NewServer(rep2)
	ts2.SetReplicator(rep2)
	go func() { _ = ts2.Serve(l) }()
	defer ts2.Shutdown(0)
	cfg := securefd.DefaultClientConfig()
	cfg.Fence = fence
	if _, err := securefd.DialTCPWith(l.Addr().String(), cfg); err == nil ||
		(!errors.Is(err, securefd.ErrNotPrimary) && !errors.Is(err, securefd.ErrFenced)) {
		t.Errorf("fence-aware dial of rebooted ex-primary = %v, want a role refusal", err)
	}
}
