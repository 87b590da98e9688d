package oblivfd

// Self-healing chaos harness: a replicated pair (1 primary, 1 replica) over
// real TCP serves discovery runs while seeded damage lands mid-run — bit rot
// in flat arrays and ORAM trees, corruption inside the WAL and retained
// snapshot files, and an ENOSPC window that sheds writes partway through
// discovery. Background scrubbers sweep throughout. Every scenario must end
// with the FD set of an undamaged run and at least one recorded repair; with
// no replica, corruption must still fail loudly with ErrIntegrity (the PR 4
// contract — self-healing never degrades fail-loudly into silence).

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/oblivfd/oblivfd/internal/baseline"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/trace"
	"github.com/oblivfd/oblivfd/securefd"
)

var scrubSortOpts = securefd.Options{Protocol: securefd.ProtocolSort, Workers: 2, MaxLHS: 2}
var scrubORAMOpts = securefd.Options{Protocol: securefd.ProtocolORAM, Workers: 2, MaxLHS: 2}

// scrubCluster boots n nodes, the primary on primaryFS (nil = the real
// filesystem), each running a background scrubber when scrub is set. The
// primary's trace keeps its events: corruptLiveCells reads from them which
// objects are arrays.
func scrubCluster(t *testing.T, n int, primaryFS store.FS, scrub bool) []*clusterNode {
	nodes := newCluster(t, n, func(i int, s *nodeSetup) {
		if i == 0 {
			s.durable.FS = primaryFS
		}
		s.scrub = scrub
	})
	nodes[0].rep.Durable().Trace().Enable()
	return nodes
}

// scrubService dials the cluster; repairs and disk-full sheds are ridden out
// by the retry policy.
func scrubService(t *testing.T, nodes []*clusterNode) securefd.Service {
	_, svc := dial(t, nodes, 10)
	return svc
}

// corruptLiveCells flips a bit in up to k populated cells of the arrays on
// d — the objects d's own trace saw created by CreateArray — returning how
// many it rotted. Cells are chosen in the scrubber's own sweep order, so the
// choice is deterministic.
func corruptLiveCells(t *testing.T, d *store.DurableServer, k int) int {
	t.Helper()
	arrays := map[string]bool{}
	for _, e := range d.Trace().Events() {
		if e.Op == trace.OpCreateArray {
			arrays[e.Object] = true
		}
	}
	names, err := d.ObjectNames()
	if err != nil {
		t.Fatal(err)
	}
	rotted := 0
	for _, name := range names {
		if !arrays[name] {
			continue
		}
		n, err := d.ObjectExtent(name)
		if err != nil {
			continue
		}
		for i := 0; i < n && rotted < k; i++ {
			if err := d.CorruptStored(name, int64(i), 3); err == nil {
				rotted++
			}
		}
		if rotted >= k {
			break
		}
	}
	return rotted
}

// scrubDiscover runs discovery over the damaged cluster and checks the FD
// set against the oracle.
func scrubDiscover(t *testing.T, svc securefd.Service, opts securefd.Options) {
	t.Helper()
	db, err := securefd.Outsource(svc, crashRelation(t), opts)
	if err != nil {
		t.Fatalf("Outsource: %v", err)
	}
	defer db.Close()
	report, err := db.Discover()
	if err != nil {
		t.Fatalf("discovery across damage: %v", err)
	}
	if want := baseline.MinimalFDs(crashRelation(t)); !relation.FDSetEqual(report.Minimal, want) {
		t.Fatalf("FDs = %v, want oracle %v", report.Minimal, want)
	}
}

// TestScrubChaosArrayRot: seeded bit rot in the primary's flat arrays after
// upload; discovery must finish with the oracle FD set and the rot healed
// from the replica.
func TestScrubChaosArrayRot(t *testing.T) {
	nodes := scrubCluster(t, 2, nil, true)
	svc := scrubService(t, nodes)
	db, err := securefd.Outsource(svc, crashRelation(t), scrubSortOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if rotted := corruptLiveCells(t, nodes[0].rep.Durable(), 4); rotted == 0 {
		t.Fatal("no populated array cells to rot")
	}
	report, err := db.Discover()
	if err != nil {
		t.Fatalf("discovery across array rot: %v", err)
	}
	if want := baseline.MinimalFDs(crashRelation(t)); !relation.FDSetEqual(report.Minimal, want) {
		t.Errorf("FDs = %v, want oracle %v", report.Minimal, want)
	}
	if got := nodes[0].rep.Repairs(); got < 1 {
		t.Errorf("repairs = %d, want >= 1", got)
	}
}

// TestScrubChaosTreeRot: under the ORAM protocol the bucket trees only live
// during discovery, so the rot injector rides with it: ahead of each round
// that fetches a path, every live tree's root bucket gets a slot rotted (the
// root is on every ReadPath, so that round must hit it) until a repair lands
// mid-run. (An injector on a timer of its own raced the write-backs, which
// rewrite the root and heal the rot unseen; once a level's records cost a
// third of the rounds, a run was often over before a rotted root was read.)
func TestScrubChaosTreeRot(t *testing.T) {
	nodes := scrubCluster(t, 2, nil, true)
	d := nodes[0].rep.Durable()
	var (
		mu     sync.Mutex // the engine's workers call in concurrently
		rotted int
		trees  []string // every tree the client created, live or deleted
	)
	remote := scrubService(t, nodes)
	svc := store.Adapt(func(op *store.Op, res *store.Result) error {
		fetches := op.Kind == store.KindReadPath
		for i := range op.Ops {
			fetches = fetches || op.Ops[i].Kind() == store.KindReadPath
		}
		mu.Lock()
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
	db, err := securefd.Outsource(svc, crashRelation(t), scrubORAMOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	report, err := db.Discover()
	if err != nil {
		t.Fatalf("discovery across ORAM rot: %v", err)
	}
	if rotted == 0 {
		t.Fatal("no tree slot was ever rotted — injector never saw a live tree")
	}
	if want := baseline.MinimalFDs(crashRelation(t)); !relation.FDSetEqual(report.Minimal, want) {
		t.Errorf("FDs = %v, want oracle %v", report.Minimal, want)
	}
	if got := nodes[0].rep.Repairs(); got < 1 {
		t.Errorf("repairs = %d, want >= 1", got)
	}
}

// waitForScrubRepair polls the node's scrubber until it has healed at least
// one finding.
func waitForScrubRepair(t *testing.T, n *clusterNode) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if n.sc.Repairs() >= 1 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("scrubber never repaired: corruptions=%d repairs=%d failures=%d",
		n.sc.Corruptions(), n.sc.Repairs(), n.sc.RepairFailures())
}

// TestScrubChaosWALRot: a bit flip inside the primary's WAL prefix is found
// by the background scrubber and healed from live memory before it can
// poison a recovery; discovery is unaffected.
func TestScrubChaosWALRot(t *testing.T) {
	nodes := scrubCluster(t, 2, nil, true)
	svc := scrubService(t, nodes)
	db, err := securefd.Outsource(svc, crashRelation(t), scrubSortOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	walPath := filepath.Join(nodes[0].dir, "wal.log")
	b, err := os.ReadFile(walPath)
	if err != nil || len(b) == 0 {
		t.Fatalf("WAL unreadable or empty after upload: %d bytes, %v", len(b), err)
	}
	b[len(b)/2] ^= 0x10
	if err := os.WriteFile(walPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	waitForScrubRepair(t, nodes[0])

	report, err := db.Discover()
	if err != nil {
		t.Fatalf("discovery across WAL rot: %v", err)
	}
	if want := baseline.MinimalFDs(crashRelation(t)); !relation.FDSetEqual(report.Minimal, want) {
		t.Errorf("FDs = %v, want oracle %v", report.Minimal, want)
	}
}

// TestScrubChaosSnapshotRot: a rotted retained snapshot on the primary is
// replaced by a fresh one written from live memory and the damaged file is
// removed; discovery is unaffected.
func TestScrubChaosSnapshotRot(t *testing.T) {
	nodes := scrubCluster(t, 2, nil, true)
	svc := scrubService(t, nodes)
	db, err := securefd.Outsource(svc, crashRelation(t), scrubSortOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if err := nodes[0].rep.Snapshot(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(nodes[0].dir, "snap-*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("snapshots = %v, %v", snaps, err)
	}
	target := snaps[len(snaps)-1]
	b, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x10
	if err := os.WriteFile(target, b, 0o644); err != nil {
		t.Fatal(err)
	}
	waitForScrubRepair(t, nodes[0])
	if _, err := os.Stat(target); !os.IsNotExist(err) {
		t.Errorf("corrupt snapshot still on disk: %v", err)
	}

	report, err := db.Discover()
	if err != nil {
		t.Fatalf("discovery across snapshot rot: %v", err)
	}
	if want := baseline.MinimalFDs(crashRelation(t)); !relation.FDSetEqual(report.Minimal, want) {
		t.Errorf("FDs = %v, want oracle %v", report.Minimal, want)
	}
}

// TestScrubChaosDiskFullMidDiscovery: an ENOSPC window (torn short writes
// included) opens partway through discovery while seeded rot lands in the
// arrays. Writes shed with a retryable error, the client rides it out, the
// rot heals from the replica, and the FD set is exact.
func TestScrubChaosDiskFullMidDiscovery(t *testing.T) {
	// Measurement run: an unarmed FaultFS counts bytes written, giving the
	// coordinate system the window is placed in.
	meter := store.NewFaultFS(nil, store.FaultFSConfig{})
	nodes := scrubCluster(t, 2, meter, true)
	svc := scrubService(t, nodes)
	db, err := securefd.Outsource(svc, crashRelation(t), scrubSortOpts)
	if err != nil {
		t.Fatal(err)
	}
	afterUpload := meter.BytesWritten()
	if _, err := db.Discover(); err != nil {
		t.Fatal(err)
	}
	db.Close()
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
	nodes2 := scrubCluster(t, 2, ffs, true)
	svc2 := scrubService(t, nodes2)
	db2, err := securefd.Outsource(svc2, crashRelation(t), scrubSortOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if rotted := corruptLiveCells(t, nodes2[0].rep.Durable(), 2); rotted == 0 {
		t.Fatal("no populated array cells to rot")
	}
	report, err := db2.Discover()
	if err != nil {
		t.Fatalf("discovery across ENOSPC + rot: %v", err)
	}
	if want := baseline.MinimalFDs(crashRelation(t)); !relation.FDSetEqual(report.Minimal, want) {
		t.Errorf("FDs = %v, want oracle %v", report.Minimal, want)
	}
	if ffs.DiskFullInjected() == 0 {
		t.Error("the ENOSPC window never fired")
	}
	if got := nodes2[0].rep.Repairs(); got < 1 {
		t.Errorf("repairs = %d, want >= 1", got)
	}
	if nodes2[0].rep.Durable().Degraded() {
		t.Error("primary still degraded after the window passed")
	}
}

// TestScrubChaosNoReplicaFailsLoudly: with no healthy copy anywhere,
// corruption must surface as fatal ErrIntegrity — detection without repair,
// exactly the pre-scrubbing contract.
func TestScrubChaosNoReplicaFailsLoudly(t *testing.T) {
	nodes := scrubCluster(t, 1, nil, true)
	svc := scrubService(t, nodes)
	db, err := securefd.Outsource(svc, crashRelation(t), scrubSortOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if rotted := corruptLiveCells(t, nodes[0].rep.Durable(), 2); rotted == 0 {
		t.Fatal("no populated array cells to rot")
	}
	if _, err := db.Discover(); !errors.Is(err, securefd.ErrIntegrity) {
		t.Fatalf("discovery over unrepairable rot = %v, want ErrIntegrity", err)
	}
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
		nodes := scrubCluster(t, 2, nil, scrub)
		svc := scrubService(t, nodes)
		db, err := securefd.Outsource(svc, crashRelation(t), scrubSortOpts)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if _, err := db.Discover(); err != nil {
			t.Fatal(err)
		}
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
