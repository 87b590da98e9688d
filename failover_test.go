package oblivfd

// Kill-the-primary chaos harness for the replication subsystem: a 3-node
// replicated cluster (1 primary, 2 replicas) serves a discovery run through
// a failover client; the primary is killed at seeded WAL offsets
// mid-discovery; the client must promote a replica (with a higher fencing
// epoch) and finish with the oracle's exact FD set. The per-layer
// properties live in internal/store (stream integrity, fencing) and
// internal/transport (promotion, fence-aware handshakes); this is the
// end-to-end composition check, the replication analogue of crash_test.go.

import (
	"errors"
	"fmt"
	"testing"

	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/transport"
	"github.com/oblivfd/oblivfd/securefd"
)

// primaryAppends measures a clean replicated run: the primary's WAL-append
// counts after upload and at the end of discovery — the coordinate system
// the kill points are placed in.
func primaryAppends(t *testing.T) (afterUpload, total int64) {
	t.Helper()
	nodes := newCluster(t, 3, nodeSetup{})
	_, svc := dial(t, nodes, 6)
	d := nodes[0].rep.Durable()
	scenario{
		opts: sortOpts,
		mid:  func(*securefd.Database) { afterUpload = d.WALAppends() },
		then: func(*securefd.Database, *securefd.Report) { total = d.WALAppends() },
	}.run(t, svc)
	// Synchronous shipping: nothing outstanding at the end of a clean run.
	if lag := nodes[0].rep.ReplicaLag(); lag != 0 {
		t.Fatalf("clean run ends with replication lag %d", lag)
	}
	return afterUpload, total
}

// killedPrimary boots a 3-node cluster whose primary dies at its kill'th WAL
// append, and runs a discovery through it that must end in the oracle's FD
// set on a promoted replica at a fence of at least 2.
func killedPrimary(t *testing.T, kill int64) ([]*clusterNode, *transport.FailoverPool) {
	t.Helper()
	nodes := newCluster(t, 3, nodeSetup{primary: store.DurableOptions{KillAfterAppends: kill}})
	f, svc := dial(t, nodes, 6)
	scenario{opts: sortOpts}.run(t, svc)
	if n := f.Failovers(); n < 1 {
		t.Errorf("failovers = %d, want >= 1 (the kill point must have fired)", n)
	}
	if _, fence := f.Primary(); fence < 2 {
		t.Fatalf("post-failover fence = %d, want >= 2", fence)
	}
	return nodes, f
}

// TestFailoverPrimaryKilledMidDiscovery is the tentpole acceptance test:
// the primary dies at five seeded WAL offsets spread across the discovery
// phase; each time the client must fail over to a promoted replica and
// produce the identical FD set, and the dead primary's successor must hold a
// strictly higher fence.
func TestFailoverPrimaryKilledMidDiscovery(t *testing.T) {
	afterUpload, total := primaryAppends(t)
	if total-afterUpload < 6 {
		t.Fatalf("discovery spans only %d appends; cannot place 5 kill points", total-afterUpload)
	}
	for i := int64(1); i <= 5; i++ {
		kill := afterUpload + i*(total-afterUpload)/6
		// Named by position, not by offset: the offset moves with every
		// change to how much a discovery writes.
		t.Run(fmt.Sprintf("kill-%d-of-5", i), func(t *testing.T) {
			t.Logf("primary dies at WAL append %d of %d (upload ends at %d)", kill, total, afterUpload)
			nodes, f := killedPrimary(t, kill)
			if addr, _ := f.Primary(); addr == nodes[0].addr {
				t.Errorf("client still points at the killed primary %s", addr)
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
	nodes := newCluster(t, 3, nodeSetup{drops: transport.FaultConfig{Seed: 7, DropRate: 0.02}})
	f, svc := dial(t, nodes, 10)
	scenario{opts: sortOpts}.run(t, svc)
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
	afterUpload, total := primaryAppends(t)
	nodes, f := killedPrimary(t, afterUpload+(total-afterUpload)/2)
	_, fence := f.Primary()

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
	t.Cleanup(func() { rep2.Close() })
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

	cfg := securefd.DefaultClientConfig()
	cfg.Fence = fence
	if _, err := securefd.DialTCPWith(serveTCP(t, rep2, serving{rep: rep2}).addr, cfg); err == nil ||
		(!errors.Is(err, securefd.ErrNotPrimary) && !errors.Is(err, securefd.ErrFenced)) {
		t.Errorf("fence-aware dial of rebooted ex-primary = %v, want a role refusal", err)
	}
}
