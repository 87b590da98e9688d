package oblivfd

// Crash-injection harness for the recovery subsystem: kill the server at
// seeded WAL offsets mid-discovery, kill the client between lattice levels,
// then recover both sides and require the oracle's FD set and the access
// accounting of an uninterrupted run. This is the end-to-end check that the
// WAL + snapshot + checkpoint machinery composes; the per-layer properties
// live in internal/store and internal/core.

import (
	"errors"
	"path/filepath"
	"testing"

	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/securefd"
)

// resume restarts the server from dir rolled back to the epoch the client's
// checkpoint names, resumes the client against it, and requires the oracle's
// FD set and the access accounting of the uninterrupted run want.
func resume(t *testing.T, dir, ckpt string, want *securefd.Report) {
	t.Helper()
	db, srv, err := securefd.ResumeFromDir(dir, ckpt, securefd.DurableOptions{}, nil, nil)
	if err != nil {
		t.Fatalf("ResumeFromDir: %v", err)
	}
	rep, err := db.DiscoverResumable(ckpt)
	if err != nil {
		t.Fatalf("resumed discovery: %v", err)
	}
	db.Close()
	if fds := oracle(crashRelation(t), 0); !relation.FDSetEqual(rep.Minimal, fds) {
		t.Errorf("resumed FDs = %v, want oracle %v", rep.Minimal, fds)
	}
	if rep.SetsMaterialized != want.SetsMaterialized || rep.Checks != want.Checks {
		t.Errorf("accounting = %d sets/%d checks, want %d/%d",
			rep.SetsMaterialized, rep.Checks, want.SetsMaterialized, want.Checks)
	}
	if err := srv.Snapshot(); err != nil {
		t.Errorf("final snapshot: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

// TestCrashRecoveryServerKill crashes the server at three seeded WAL offsets
// mid-discovery, restarts it from the data directory rolled back to the
// checkpoint's epoch, resumes the client, and requires the exact baseline FD
// set and access accounting.
func TestCrashRecoveryServerKill(t *testing.T) {
	want, m := measure(t)
	total, first := m.srv.WALAppends(), m.appendsAtEpoch[1]
	if first == 0 || first >= total {
		t.Fatalf("epoch 1 at append %d of %d; cannot place kill points", first, total)
	}
	// Three kill points strictly after the first checkpoint.
	for _, kill := range []int64{first + (total-first)/4, first + (total-first)/2, first + 3*(total-first)/4} {
		dir := t.TempDir()
		ckpt := filepath.Join(dir, "run.ckpt")
		srv := openDir(t, dir, securefd.DurableOptions{KillAfterAppends: kill})
		scenario{opts: crashOpts, ckpt: ckpt, want: securefd.ErrServerKilled}.run(t, srv)
		srv.Close() // killed; error is expected and irrelevant
		resume(t, dir, ckpt, want)
	}
}

// TestCrashRecoveryClientKill crashes the client mid-level (after its write
// already reached the server), shows that a naive resume against the drifted
// server is refused with ErrEpochMismatch, then recovers by rolling the
// server back to the checkpoint's epoch and requires the baseline result.
func TestCrashRecoveryClientKill(t *testing.T) {
	want, m := measure(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	srv := killClient(t, m, dir, ckpt)
	// The server applied mutations after the checkpointed epoch, so resuming
	// the checkpoint's ORAM client state against it must be refused.
	if _, err := securefd.Resume(srv, ckpt, nil, nil); !errors.Is(err, securefd.ErrEpochMismatch) {
		t.Fatalf("Resume against drifted server = %v, want ErrEpochMismatch", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	resume(t, dir, ckpt, want)
}

// killClient runs a resumable discovery on a durable server in dir that dies
// on a write strictly after the first checkpoint, so the server has drifted
// past the epoch when the client comes back, and returns the server.
func killClient(t *testing.T, m *meter, dir, ckpt string) *securefd.DurableServer {
	t.Helper()
	total, first := m.writes, m.writesAtEpoch[1]
	if first == 0 || first >= total {
		t.Fatalf("epoch 1 at write %d of %d; cannot place a client kill point", first, total)
	}
	srv := openDir(t, dir, securefd.DurableOptions{})
	scenario{opts: crashOpts, ckpt: ckpt, want: errClientCrash}.run(t, dying(srv, first+(total-first)/2))
	return srv
}

// TestCrashRecoveryTwoTenants: a durable multi-tenant server is killed and
// restarted; OpenDir must restore every tenant's namespace — objects, cell
// contents, recovery epoch, and mutations-since-epoch counter — from the WAL
// alone and again from a snapshot, so each tenant's resume-consistency check
// stays sound independently of its neighbors.
func TestCrashRecoveryTwoTenants(t *testing.T) {
	dir := t.TempDir()
	srv := openDir(t, dir, securefd.DurableOptions{})
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
	want, m := measure(t)
	total, first := m.srv.WALAppends(), m.appendsAtEpoch[1]
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	srv := openDir(t, dir, securefd.DurableOptions{KillAfterAppends: first + (total-first)/2})
	svc, err := securefd.DialTCP(serveTCP(t, srv, serving{}).addr)
	if err != nil {
		t.Fatal(err)
	}
	scenario{opts: crashOpts, ckpt: ckpt, want: securefd.ErrServerKilled}.run(t, svc)
	svc.Close()
	srv.Close()
	resume(t, dir, ckpt, want)
}
