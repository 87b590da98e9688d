package oblivfd

// Self-healing chaos harness: a replicated pair (1 primary, 1 replica) over
// real TCP serves discovery runs while seeded damage lands mid-run — bit rot
// in flat arrays and ORAM trees, corruption inside the WAL and retained
// snapshot files, and an ENOSPC window that sheds writes partway through
// discovery. Background scrubbers sweep throughout. Every scenario must end
// with the oracle's FD set and at least one recorded repair; with no
// replica, corruption must still fail loudly with ErrIntegrity
// (self-healing never degrades fail-loudly into silence).

import (
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/securefd"
)

// rotCells flips a bit in up to k populated cells of the objects on d,
// failing t if it rotted none. Cells are chosen in the scrubber's own sweep
// order, so the choice is deterministic. The Sort engine stores arrays only,
// so every cell rotted is an array cell.
func rotCells(t *testing.T, d *store.DurableServer, k int) {
	t.Helper()
	names, err := d.ObjectNames()
	if err != nil {
		t.Fatal(err)
	}
	rotted := 0
	for _, name := range names {
		n, err := d.ObjectExtent(name)
		if err != nil {
			continue
		}
		for i := 0; i < n && rotted < k; i++ {
			if err := d.CorruptStored(name, int64(i), 3); err == nil {
				rotted++
			}
		}
	}
	if rotted == 0 {
		t.Fatal("no populated array cells to rot")
	}
}

// scrubbed boots a scrubbed cluster of n nodes, lands damage on it between
// upload and discovery, and runs a Sort discovery through it that must end
// in want (nil: the oracle's FD set).
func scrubbed(t *testing.T, n int, damage func(nodes []*clusterNode), want error) []*clusterNode {
	t.Helper()
	nodes := newCluster(t, n, nodeSetup{scrub: true})
	_, svc := dial(t, nodes, 10)
	scenario{opts: sortOpts, mid: func(*securefd.Database) { damage(nodes) }, want: want}.run(t, svc)
	return nodes
}

// wantRepairs fails t unless n's replication layer healed at least one
// corruption from a peer.
func wantRepairs(t *testing.T, n *clusterNode) {
	t.Helper()
	if got := n.rep.Repairs(); got < 1 {
		t.Errorf("repairs = %d, want >= 1", got)
	}
}

// TestScrubChaosArrayRot: seeded bit rot in the primary's flat arrays after
// upload; discovery must finish with the oracle FD set and the rot healed
// from the replica.
func TestScrubChaosArrayRot(t *testing.T) {
	nodes := scrubbed(t, 2, func(nodes []*clusterNode) { rotCells(t, nodes[0].rep.Durable(), 4) }, nil)
	wantRepairs(t, nodes[0])
}

// TestScrubChaosTreeRot: under the ORAM protocol the bucket trees only live
// during discovery, so the rot injector rides with it: ahead of each round
// that fetches a path, every live tree's root bucket gets a slot rotted (the
// root is in every round's fetch, so that round must hit it) until a repair lands
// mid-run. (An injector on a timer of its own raced the write-backs, which
// rewrite the root and heal the rot unseen; once a level's records cost a
// third of the rounds, a run was often over before a rotted root was read.)
func TestScrubChaosTreeRot(t *testing.T) {
	nodes := newCluster(t, 2, nodeSetup{scrub: true})
	d := nodes[0].rep.Durable()
	var (
		mu     sync.Mutex // the engine's workers call in concurrently
		rotted int
		trees  []string // every tree the client created, live or deleted
	)
	_, remote := dial(t, nodes, 10)
	svc := store.Adapt(func(op *store.Op, res *store.Result) error {
		mu.Lock()
		fetches := op.Kind == store.KindReadCells && slices.Contains(trees, op.Name)
		for i := range op.Ops {
			// An ORAM round's fetch, or a tree created in a set-up batch.
			fetches = fetches || op.Ops[i].Kind() == store.KindReadCells && slices.Contains(trees, op.Ops[i].Name)
			if op.Ops[i].Kind() == store.KindCreateTree {
				trees = append(trees, op.Ops[i].Name)
			}
		}
		if op.Kind == store.KindCreateTree {
			trees = append(trees, op.Name)
		}
		if fetches && nodes[0].rep.Repairs() == 0 {
			for _, name := range trees {
				if err := d.CorruptStored(name, 0, 3); err == nil {
					rotted++
				}
			}
		}
		mu.Unlock()
		return store.Invoke(remote, op, res)
	})
	scenario{opts: securefd.Options{Protocol: securefd.ProtocolORAM, Workers: 2, MaxLHS: 2}}.run(t, svc)
	if rotted == 0 {
		t.Fatal("no tree slot was ever rotted — injector never saw a live tree")
	}
	wantRepairs(t, nodes[0])
}

// rotFileAndWait flips a bit in the middle of the file at path and waits
// until n's scrubber has healed at least one finding.
func rotFileAndWait(t *testing.T, n *clusterNode, path string) {
	t.Helper()
	flipByteInFile(t, path, 0x10)
	deadline := time.Now().Add(10 * time.Second)
	for n.sc.Repairs() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("scrubber never repaired: corruptions=%d repairs=%d failures=%d",
				n.sc.Corruptions(), n.sc.Repairs(), n.sc.RepairFailures())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestScrubChaosWALRot: a bit flip inside the primary's WAL prefix is found
// by the background scrubber and healed from live memory before it can
// poison a recovery; discovery is unaffected.
func TestScrubChaosWALRot(t *testing.T) {
	scrubbed(t, 2, func(nodes []*clusterNode) {
		rotFileAndWait(t, nodes[0], filepath.Join(nodes[0].dir, "wal.log"))
	}, nil)
}

// TestScrubChaosSnapshotRot: a rotted retained snapshot on the primary is
// replaced by a fresh one written from live memory and the damaged file is
// removed; discovery is unaffected.
func TestScrubChaosSnapshotRot(t *testing.T) {
	scrubbed(t, 2, func(nodes []*clusterNode) {
		if err := nodes[0].rep.Snapshot(); err != nil {
			t.Fatal(err)
		}
		snaps, err := filepath.Glob(filepath.Join(nodes[0].dir, "snap-*.snap"))
		if err != nil || len(snaps) == 0 {
			t.Fatalf("snapshots = %v, %v", snaps, err)
		}
		target := snaps[len(snaps)-1]
		rotFileAndWait(t, nodes[0], target)
		if _, err := os.Stat(target); !os.IsNotExist(err) {
			t.Errorf("corrupt snapshot still on disk: %v", err)
		}
	}, nil)
}

// TestScrubChaosDiskFullMidDiscovery: an ENOSPC window (torn short writes
// included) opens partway through discovery while seeded rot lands in the
// arrays. Writes shed with a retryable error, the client rides it out, the
// rot heals from the replica, and the FD set is exact.
func TestScrubChaosDiskFullMidDiscovery(t *testing.T) {
	// Measurement run: an unarmed FaultFS counts bytes written, giving the
	// coordinate system the window is placed in.
	meter := store.NewFaultFS(nil, store.FaultFSConfig{})
	_, svc := dial(t, newCluster(t, 2, nodeSetup{primary: store.DurableOptions{FS: meter}, scrub: true}), 10)
	var afterUpload int64
	scenario{opts: sortOpts, mid: func(*securefd.Database) { afterUpload = meter.BytesWritten() }}.run(t, svc)
	total := meter.BytesWritten()
	if total-afterUpload < 4096 {
		t.Fatalf("discovery writes only %d bytes; cannot place an ENOSPC window", total-afterUpload)
	}

	// Armed run: the window opens halfway through discovery.
	ffs := store.NewFaultFS(nil, store.FaultFSConfig{
		Seed:               11,
		DiskFullAfterBytes: afterUpload + (total-afterUpload)/2,
		DiskFullWrites:     6, // inside one retry budget of 10, whichever frame it opens on
		ShortWrites:        true,
	})
	nodes := newCluster(t, 2, nodeSetup{primary: store.DurableOptions{FS: ffs}, scrub: true})
	_, svc = dial(t, nodes, 10)
	scenario{opts: sortOpts, mid: func(*securefd.Database) { rotCells(t, nodes[0].rep.Durable(), 2) }}.run(t, svc)
	if ffs.DiskFullInjected() == 0 {
		t.Error("the ENOSPC window never fired")
	}
	wantRepairs(t, nodes[0])
	if nodes[0].rep.Durable().Degraded() {
		t.Error("primary still degraded after the window passed")
	}
}

// TestScrubChaosNoReplicaFailsLoudly: with no healthy copy anywhere,
// corruption must surface as fatal ErrIntegrity — detection without repair,
// exactly the pre-scrubbing contract.
func TestScrubChaosNoReplicaFailsLoudly(t *testing.T) {
	nodes := scrubbed(t, 1, func(nodes []*clusterNode) { rotCells(t, nodes[0].rep.Durable(), 2) }, securefd.ErrIntegrity)
	if got := nodes[0].rep.Repairs(); got != 0 {
		t.Errorf("repairs = %d without any replica", got)
	}
}

// TestScrubTraceNeutral: aggressive background scrubbing must not change the
// adversary's trace — identical op and byte totals to an unscrubbed run of
// the same workload, because sweeps read through server-side verification
// paths that bypass the trace recorder (DESIGN.md §15).
func TestScrubTraceNeutral(t *testing.T) {
	run := func(scrub bool) (ops, bytes int64) {
		nodes := newCluster(t, 2, nodeSetup{scrub: scrub})
		_, svc := dial(t, nodes, 10)
		scenario{opts: sortOpts}.run(t, svc)
		rec := nodes[0].rep.Durable().Trace()
		return rec.TotalOps(), rec.TotalBytes()
	}
	plainOps, plainBytes := run(false)
	scrubOps, scrubBytes := run(true)
	if plainOps != scrubOps || plainBytes != scrubBytes {
		t.Errorf("trace with scrubbing = %d ops / %d bytes, without = %d ops / %d bytes — scrubbing leaked into the trace",
			scrubOps, scrubBytes, plainOps, plainBytes)
	}
}
