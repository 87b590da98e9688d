package oblivfd

// Crash-injection harness for the recovery subsystem: kill the server at
// seeded WAL offsets mid-discovery, kill the client between lattice levels,
// then recover both sides and require the identical FD set and access
// accounting as an uninterrupted run. This is the end-to-end check that the
// WAL + snapshot + checkpoint machinery composes; the per-layer properties
// live in internal/store and internal/core.

import (
	"errors"
	"net"
	"path/filepath"
	"testing"

	"github.com/oblivfd/oblivfd/internal/baseline"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/transport"
	"github.com/oblivfd/oblivfd/securefd"
)

// crashRelation is small but deep enough to cross several lattice levels
// (several checkpoint epochs).
func crashRelation(t *testing.T) *securefd.Relation {
	t.Helper()
	schema, err := securefd.NewSchema("A", "B", "C", "D")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := securefd.FromRows(schema, []securefd.Row{
		{"a1", "b1", "c1", "d1"},
		{"a1", "b1", "c2", "d1"},
		{"a2", "b2", "c1", "d1"},
		{"a2", "b2", "c3", "d2"},
		{"a3", "b1", "c2", "d2"},
		{"a3", "b1", "c1", "d1"},
		{"a4", "b2", "c3", "d2"},
		{"a4", "b2", "c2", "d1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

var crashOpts = securefd.Options{Protocol: securefd.ProtocolORAM}

// meterSvc wraps the durable server to observe where, in WAL-append and
// client-write counts, each checkpoint epoch lands. The crash tests use a
// clean metered run to place kill points that are guaranteed to fall after
// the first checkpoint (a run that never checkpointed has nothing to resume).
type meterSvc struct {
	store.Service
	srv            *securefd.DurableServer
	writes         int64
	appendsAtEpoch map[int64]int64
	writesAtEpoch  map[int64]int64
}

func newMeter(srv *securefd.DurableServer) *meterSvc {
	return &meterSvc{
		Service:        srv,
		srv:            srv,
		appendsAtEpoch: make(map[int64]int64),
		writesAtEpoch:  make(map[int64]int64),
	}
}

func (m *meterSvc) WriteCells(name string, idx []int64, cts [][]byte) error {
	m.writes++
	return m.Service.WriteCells(name, idx, cts)
}

func (m *meterSvc) WritePath(name string, leaf uint32, slots [][]byte) error {
	m.writes++
	return m.Service.WritePath(name, leaf, slots)
}

func (m *meterSvc) Checkpoint(epoch int64) error {
	if err := m.Service.Checkpoint(epoch); err != nil {
		return err
	}
	m.appendsAtEpoch[epoch] = m.srv.WALAppends()
	m.writesAtEpoch[epoch] = m.writes
	return nil
}

// cleanRun performs one uninterrupted resumable discovery over a durable
// server and returns the baseline report plus the meter.
func cleanRun(t *testing.T) (*securefd.Report, *meterSvc) {
	t.Helper()
	dir := t.TempDir()
	srv, err := securefd.OpenDir(dir, securefd.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	meter := newMeter(srv)
	db, err := securefd.Outsource(meter, crashRelation(t), crashOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	report, err := db.DiscoverResumable(filepath.Join(dir, "run.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	// Anchor the baseline against the plaintext oracle.
	if want := baseline.MinimalFDs(crashRelation(t)); !relation.FDSetEqual(report.Minimal, want) {
		t.Fatalf("clean run FDs = %v, want oracle %v", report.Minimal, want)
	}
	return report, meter
}

// TestCrashRecoveryServerKill crashes the server at three seeded WAL offsets
// mid-discovery, restarts it from the data directory rolled back to the
// checkpoint's epoch, resumes the client, and requires the exact baseline FD
// set and access accounting.
func TestCrashRecoveryServerKill(t *testing.T) {
	want, meter := cleanRun(t)
	total := meter.srv.WALAppends()
	first := meter.appendsAtEpoch[1]
	if first == 0 || first >= total {
		t.Fatalf("epoch 1 at append %d of %d; cannot place kill points", first, total)
	}

	// Three kill points strictly after the first checkpoint.
	kills := []int64{
		first + (total-first)/4,
		first + (total-first)/2,
		first + 3*(total-first)/4,
	}
	for _, kill := range kills {
		dir := t.TempDir()
		ckpt := filepath.Join(dir, "run.ckpt")
		srv, err := securefd.OpenDir(dir, securefd.DurableOptions{KillAfterAppends: kill})
		if err != nil {
			t.Fatal(err)
		}
		db, err := securefd.Outsource(srv, crashRelation(t), crashOpts)
		if err != nil {
			t.Fatalf("kill@%d: Outsource hit the kill point during upload: %v", kill, err)
		}
		_, err = db.DiscoverResumable(ckpt)
		if !errors.Is(err, securefd.ErrServerKilled) {
			t.Fatalf("kill@%d: Discover err = %v, want ErrServerKilled", kill, err)
		}
		db.Close()
		srv.Close() // killed; error is expected and irrelevant

		// The server restarts from disk, rolled back to the epoch the
		// client's checkpoint names; the client resumes against it.
		db2, srv2, err := securefd.ResumeFromDir(dir, ckpt, securefd.DurableOptions{})
		if err != nil {
			t.Fatalf("kill@%d: ResumeFromDir: %v", kill, err)
		}
		report, err := db2.DiscoverResumable(ckpt)
		if err != nil {
			t.Fatalf("kill@%d: resumed discovery: %v", kill, err)
		}
		if !relation.FDSetEqual(report.Minimal, want.Minimal) {
			t.Errorf("kill@%d: resumed FDs = %v, want %v", kill, report.Minimal, want.Minimal)
		}
		if report.SetsMaterialized != want.SetsMaterialized || report.Checks != want.Checks {
			t.Errorf("kill@%d: accounting = %d sets/%d checks, want %d/%d",
				kill, report.SetsMaterialized, report.Checks, want.SetsMaterialized, want.Checks)
		}
		db2.Close()
		if err := srv2.Snapshot(); err != nil {
			t.Errorf("kill@%d: final snapshot: %v", kill, err)
		}
		if err := srv2.Close(); err != nil {
			t.Errorf("kill@%d: close: %v", kill, err)
		}
	}
}

// dyingSvc simulates a client crash: the Nth write meterSvc counts is
// forwarded to the server (the mutation lands, as it would if the process died
// after the server applied the op but before the ack was processed) and then
// reported as a failure, aborting the discovery loop.
type dyingSvc struct {
	store.Service
	remaining int64
}

var errClientCrash = errors.New("simulated client crash")

func (d *dyingSvc) WriteCells(name string, idx []int64, cts [][]byte) error {
	return d.after(d.Service.WriteCells(name, idx, cts))
}

func (d *dyingSvc) WritePath(name string, leaf uint32, slots [][]byte) error {
	return d.after(d.Service.WritePath(name, leaf, slots))
}

// after counts a write the server has applied and reports the Nth as failed.
func (d *dyingSvc) after(err error) error {
	if err != nil {
		return err
	}
	d.remaining--
	if d.remaining <= 0 {
		return errClientCrash
	}
	return nil
}

// TestCrashRecoveryClientKill crashes the client mid-level (after its write
// already reached the server), shows that a naive resume against the drifted
// server is refused with ErrEpochMismatch, then recovers by rolling the
// server back to the checkpoint's epoch and requires the baseline result.
func TestCrashRecoveryClientKill(t *testing.T) {
	want, meter := cleanRun(t)
	totalWrites := meter.writes
	firstWrites := meter.writesAtEpoch[1]
	if firstWrites == 0 || firstWrites >= totalWrites {
		t.Fatalf("epoch 1 at write %d of %d; cannot place a client kill point", firstWrites, totalWrites)
	}

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	srv, err := securefd.OpenDir(dir, securefd.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Die on a write strictly after the first checkpoint so the server has
	// drifted past the epoch when the client comes back.
	dying := &dyingSvc{Service: srv, remaining: firstWrites + (totalWrites-firstWrites)/2}
	db, err := securefd.Outsource(dying, crashRelation(t), crashOpts)
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.DiscoverResumable(ckpt)
	if !errors.Is(err, errClientCrash) {
		t.Fatalf("Discover err = %v, want simulated client crash", err)
	}
	db.Close()

	// The server applied mutations after the checkpointed epoch, so resuming
	// the checkpoint's ORAM client state against it must be refused.
	if _, err := securefd.Resume(srv, ckpt); !errors.Is(err, securefd.ErrEpochMismatch) {
		t.Fatalf("Resume against drifted server = %v, want ErrEpochMismatch", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Correct recovery: roll the server back to the checkpoint's epoch.
	db2, srv2, err := securefd.ResumeFromDir(dir, ckpt, securefd.DurableOptions{})
	if err != nil {
		t.Fatalf("ResumeFromDir: %v", err)
	}
	defer srv2.Close()
	report, err := db2.Discover()
	if err != nil {
		t.Fatalf("resumed discovery: %v", err)
	}
	defer db2.Close()
	if !relation.FDSetEqual(report.Minimal, want.Minimal) {
		t.Errorf("resumed FDs = %v, want %v", report.Minimal, want.Minimal)
	}
	if report.SetsMaterialized != want.SetsMaterialized || report.Checks != want.Checks {
		t.Errorf("accounting = %d sets/%d checks, want %d/%d",
			report.SetsMaterialized, report.Checks, want.SetsMaterialized, want.Checks)
	}
}

// TestCrashRecoveryTwoTenants: a durable multi-tenant server is killed and
// restarted; OpenDir must restore every tenant's namespace — objects, cell
// contents, recovery epoch, and mutations-since-epoch counter — from the WAL
// alone and again from a snapshot, so each tenant's resume-consistency check
// stays sound independently of its neighbors.
func TestCrashRecoveryTwoTenants(t *testing.T) {
	dir := t.TempDir()
	srv, err := securefd.OpenDir(dir, securefd.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	alpha := securefd.Namespaced(srv, "alpha")
	beta := securefd.Namespaced(srv, "beta")

	if err := alpha.CreateArray("arr", 2); err != nil {
		t.Fatal(err)
	}
	if err := alpha.WriteCells("arr", []int64{0, 1}, [][]byte{[]byte("a0"), []byte("a1")}); err != nil {
		t.Fatal(err)
	}
	if err := alpha.Checkpoint(3); err != nil {
		t.Fatal(err)
	}
	if err := beta.CreateArray("arr", 1); err != nil {
		t.Fatal(err)
	}
	if err := beta.Checkpoint(7); err != nil {
		t.Fatal(err)
	}
	// Beta drifts past its checkpoint; alpha stays clean. The restarted
	// server must reproduce exactly this asymmetry.
	if err := beta.WriteCells("arr", []int64{0}, [][]byte{[]byte("b0")}); err != nil {
		t.Fatal(err)
	}
	// Close without a snapshot: recovery replays the WAL, including the
	// per-namespace checkpoint records (a hard kill leaves the same state —
	// the WAL fsyncs every record by default).
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	checkTenants := func(srv *securefd.DurableServer, phase string) {
		t.Helper()
		alpha := securefd.Namespaced(srv, "alpha")
		beta := securefd.Namespaced(srv, "beta")
		stA, err := alpha.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if stA.Epoch != 3 || stA.MutationsSinceEpoch != 0 || stA.Objects != 1 {
			t.Errorf("%s: alpha = epoch %d, dirty %d, objects %d; want 3/0/1",
				phase, stA.Epoch, stA.MutationsSinceEpoch, stA.Objects)
		}
		stB, err := beta.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if stB.Epoch != 7 || stB.MutationsSinceEpoch == 0 {
			t.Errorf("%s: beta = epoch %d, dirty %d; want epoch 7 with drift",
				phase, stB.Epoch, stB.MutationsSinceEpoch)
		}
		got, err := alpha.ReadCells("arr", []int64{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		if string(got[0]) != "a0" || string(got[1]) != "a1" {
			t.Errorf("%s: alpha cells = %q, %q; want a0, a1", phase, got[0], got[1])
		}
		if got, err := beta.ReadCells("arr", []int64{0}); err != nil || string(got[0]) != "b0" {
			t.Errorf("%s: beta cell = %q, %v; want b0", phase, got, err)
		}
	}

	srv2, err := securefd.OpenDir(dir, securefd.DurableOptions{})
	if err != nil {
		t.Fatalf("restart from WAL: %v", err)
	}
	checkTenants(srv2, "wal replay")
	// Absorb everything into a snapshot and restart again: the marks must
	// survive the snapshot format too, not just WAL replay.
	if err := srv2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	srv3, err := securefd.OpenDir(dir, securefd.DurableOptions{})
	if err != nil {
		t.Fatalf("restart from snapshot: %v", err)
	}
	defer srv3.Close()
	checkTenants(srv3, "snapshot")
}

// TestCrashRecoveryOverTCP runs the server-kill scenario with the durable
// server behind the real TCP transport: the typed kill/corruption errors must
// survive the wire and the recovered run must still match.
func TestCrashRecoveryOverTCP(t *testing.T) {
	want, meter := cleanRun(t)
	total := meter.srv.WALAppends()
	first := meter.appendsAtEpoch[1]
	kill := first + (total-first)/2

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	srv, err := securefd.OpenDir(dir, securefd.DurableOptions{KillAfterAppends: kill})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = transport.Serve(l, srv) }()
	t.Cleanup(func() { l.Close() })
	svc, err := securefd.DialTCP(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	db, err := securefd.Outsource(svc, crashRelation(t), crashOpts)
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.DiscoverResumable(ckpt)
	if !errors.Is(err, securefd.ErrServerKilled) {
		t.Fatalf("Discover over TCP err = %v, want ErrServerKilled", err)
	}
	db.Close()
	svc.Close()
	srv.Close()

	db2, srv2, err := securefd.ResumeFromDir(dir, ckpt, securefd.DurableOptions{})
	if err != nil {
		t.Fatalf("ResumeFromDir: %v", err)
	}
	defer srv2.Close()
	report, err := db2.Discover()
	if err != nil {
		t.Fatalf("resumed discovery: %v", err)
	}
	defer db2.Close()
	if !relation.FDSetEqual(report.Minimal, want.Minimal) {
		t.Errorf("FDs after TCP crash recovery = %v, want %v", report.Minimal, want.Minimal)
	}
}
