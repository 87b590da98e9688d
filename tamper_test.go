package oblivfd

// Tamper-injection harness for the integrity subsystem: corrupt ciphertexts
// at seeded read offsets mid-discovery — in-process and through the real TCP
// transport — and require that every corruption is either detected as
// ErrIntegrity or provably harmless (the run still produces the exact
// plaintext-oracle FD set). The invariant under test is *zero silent wrong
// results*: no seeded corruption, at any offset, in any engine, may ever
// complete discovery with a wrong FD set. Per-layer properties (AEAD
// rejection, ORAM freshness tags, WAL/snapshot framing) live in
// internal/crypto, internal/oram, and internal/store; this file checks that
// they compose end to end.

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/oblivfd/oblivfd/internal/baseline"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/transport"
	"github.com/oblivfd/oblivfd/securefd"
)

// tamperConfigs covers all three secure engines, so both read shapes see
// corruption: cell-batch reads are Sort's, tree path reads the ORAMs'.
var tamperConfigs = []struct {
	name string
	opts securefd.Options
}{
	{"sort", securefd.Options{Protocol: securefd.ProtocolSort}},
	{"or-oram", securefd.Options{Protocol: securefd.ProtocolORAM}},
	{"ex-oram", securefd.Options{Protocol: securefd.ProtocolDynamicORAM}},
}

// readCounter counts successful payload reads so tamper points can be placed
// deterministically: the storage call sequence of a discovery run is a pure
// function of the relation and options, so a clean run's read count maps
// corruption offsets onto every phase of a tampered run.
type readCounter struct {
	store.Service
	reads int64
}

func (r *readCounter) ReadCells(name string, idx []int64) ([][]byte, error) {
	cts, err := r.Service.ReadCells(name, idx)
	if err == nil {
		r.reads++
	}
	return cts, err
}

func (r *readCounter) ReadPath(name string, leaf uint32) ([][]byte, error) {
	cts, err := r.Service.ReadPath(name, leaf)
	if err == nil {
		r.reads++
	}
	return cts, err
}

// cleanTamperRun discovers without corruption, anchors the result against
// the plaintext oracle, and returns the oracle FD set plus the total number
// of successful reads (the tamper offset space).
func cleanTamperRun(t *testing.T, opts securefd.Options) ([]relation.FD, int64) {
	t.Helper()
	rc := &readCounter{Service: securefd.NewServer()}
	db, err := securefd.Outsource(rc, crashRelation(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	report, err := db.Discover()
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.MinimalFDs(crashRelation(t))
	if !relation.FDSetEqual(report.Minimal, want) {
		t.Fatalf("clean run FDs = %v, want oracle %v", report.Minimal, want)
	}
	if rc.reads == 0 {
		t.Fatal("clean run issued no reads; harness cannot place tamper points")
	}
	return want, rc.reads
}

// tamperOffsets spreads deterministic one-shot corruption points across the
// whole run: the first read (setup/upload edge), the last, and three interior
// points.
func tamperOffsets(n int64) []int64 {
	cand := []int64{1, n / 4, n / 2, 3 * n / 4, n}
	seen := map[int64]bool{}
	var out []int64
	for _, k := range cand {
		if k >= 1 && !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// tamperedDiscover runs one full outsource+discover against svc, returning
// the report (nil on error) and the terminal error. Corruption during upload
// or engine construction surfaces from Outsource; mid-run corruption from
// Discover.
func tamperedDiscover(t *testing.T, svc securefd.Service, opts securefd.Options) (*securefd.Report, error) {
	t.Helper()
	db, err := securefd.Outsource(svc, crashRelation(t), opts)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	return db.Discover()
}

// TestTamperBitFlipDetected: a single flipped bit in any read payload — any
// engine, any offset — must abort discovery with ErrIntegrity. A flipped
// ciphertext, nonce, or tag byte always fails GCM authentication at the
// client, so unlike the swap case there is no harmless outcome to accept.
func TestTamperBitFlipDetected(t *testing.T) {
	for _, tc := range tamperConfigs {
		t.Run(tc.name, func(t *testing.T) {
			_, n := cleanTamperRun(t, tc.opts)
			for _, k := range tamperOffsets(n) {
				fs := securefd.WithFaults(securefd.NewServer(), securefd.FaultConfig{
					Seed:              42,
					CorruptAfterReads: k,
				})
				_, err := tamperedDiscover(t, fs, tc.opts)
				if fs.Corruptions() == 0 {
					t.Fatalf("flip@%d/%d: schedule never fired (err = %v)", k, n, err)
				}
				if !errors.Is(err, securefd.ErrIntegrity) {
					t.Errorf("flip@%d/%d: err = %v, want errors.Is(ErrIntegrity)", k, n, err)
				}
			}
		})
	}
}

// TestTamperBlockSwapNeverSilentlyWrong: swapping two blocks within a read
// batch must be refused outright. Every surface binds a ciphertext to its
// place — a column cell or a B_X cell to its array and index, an Or-ORAM
// label to its array and record id, a PathORAM bucket to its tree and heap
// index — so no swap is harmless any more and none may complete a run.
// (PathORAM used to be the absorbing case: blocks were sealed to the tree,
// not to a place in it, and the client collects a path into the stash as a
// set.)
func TestTamperBlockSwapNeverSilentlyWrong(t *testing.T) {
	for _, tc := range tamperConfigs {
		t.Run(tc.name, func(t *testing.T) {
			_, n := cleanTamperRun(t, tc.opts)
			for _, k := range tamperOffsets(n) {
				fs := securefd.WithFaults(securefd.NewServer(), securefd.FaultConfig{
					Seed:              42,
					CorruptAfterReads: k,
					CorruptMode:       store.CorruptSwap,
				})
				_, err := tamperedDiscover(t, fs, tc.opts)
				if fs.Corruptions() == 0 {
					t.Fatalf("swap@%d/%d: schedule never fired (err = %v)", k, n, err)
				}
				if !errors.Is(err, securefd.ErrIntegrity) {
					t.Errorf("swap@%d/%d: two blocks of a read exchanged: err = %v, want errors.Is(ErrIntegrity)", k, n, err)
				}
			}
		})
	}
}

// TestTamperDetectedOverTCP: the same seeded flip with the fault injector on
// the server side of a real TCP connection. The corrupted ciphertext crosses
// the wire, the client's verification rejects it, and the typed error keeps
// its ErrIntegrity classification end to end.
func TestTamperDetectedOverTCP(t *testing.T) {
	for _, tc := range tamperConfigs {
		t.Run(tc.name, func(t *testing.T) {
			_, n := cleanTamperRun(t, tc.opts)
			backend := securefd.WithFaults(store.NewServer(), securefd.FaultConfig{
				Seed:              42,
				CorruptAfterReads: n / 2,
			})
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go func() { _ = transport.Serve(l, backend) }()
			t.Cleanup(func() { l.Close() })
			svc, err := securefd.DialTCP(l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			_, err = tamperedDiscover(t, svc, tc.opts)
			if !errors.Is(err, securefd.ErrIntegrity) {
				t.Errorf("flip@%d over TCP: err = %v, want errors.Is(ErrIntegrity)", n/2, err)
			}
			if backend.Corruptions() == 0 {
				t.Errorf("flip@%d over TCP: schedule never fired", n/2)
			}
		})
	}
}

// TestTamperErrorNamesLatticePosition: a mid-run verification failure must
// tell the operator where discovery died — the lattice level and the attribute
// set being built or read as a cover — not just that "authentication failed"
// somewhere, under every worker count: the engine is asked for a whole level
// at a time, so it is the engine that names the set.
func TestTamperErrorNamesLatticePosition(t *testing.T) {
	for _, workers := range []int{1, 4} {
		opts := securefd.Options{Protocol: securefd.ProtocolORAM, Workers: workers}
		_, n := cleanTamperRun(t, opts)
		fs := securefd.WithFaults(securefd.NewServer(), securefd.FaultConfig{
			Seed:              42,
			CorruptAfterReads: n / 2,
		})
		_, err := tamperedDiscover(t, fs, opts)
		if !errors.Is(err, securefd.ErrIntegrity) {
			t.Fatalf("workers=%d: err = %v, want errors.Is(ErrIntegrity)", workers, err)
		}
		for _, part := range []string{"lattice level", "attribute set {"} {
			if !strings.Contains(err.Error(), part) {
				t.Errorf("workers=%d: error does not say %q: %v", workers, part, err)
			}
		}
	}
}

// TestTamperTelemetryCounters: every decryption counts as an integrity check
// and a rejected one as a failure, so an operator watching /metrics sees
// both the steady-state verification volume and the exact moment tampering
// was caught.
func TestTamperTelemetryCounters(t *testing.T) {
	opts := securefd.Options{Protocol: securefd.ProtocolORAM}
	_, n := cleanTamperRun(t, opts)
	reg := securefd.NewRegistry()
	opts.Telemetry = reg
	fs := securefd.WithFaults(securefd.NewServer(), securefd.FaultConfig{
		Seed:              42,
		CorruptAfterReads: n / 2,
		Metrics:           reg,
	})
	_, err := tamperedDiscover(t, fs, opts)
	if !errors.Is(err, securefd.ErrIntegrity) {
		t.Fatalf("err = %v, want errors.Is(ErrIntegrity)", err)
	}
	if checks := reg.Counter("oblivfd_integrity_checks_total").Value(); checks == 0 {
		t.Errorf("integrity_checks_total = 0, want > 0")
	}
	if fails := reg.Counter("oblivfd_integrity_failures_total").Value(); fails == 0 {
		t.Errorf("integrity_failures_total = 0, want >= 1")
	}
	if inj := reg.Counter("oblivfd_corruptions_injected_total").Value(); inj != fs.Corruptions() {
		t.Errorf("corruptions_injected_total = %d, want %d (registry and accessor disagree)",
			inj, fs.Corruptions())
	}
}

// flipByteInFile flips one bit at the file's midpoint.
func flipByteInFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatalf("%s is empty; nothing to corrupt", path)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
}

// TestTamperSnapshotDetected: a bit flip in every retained snapshot file
// makes recovery impossible, and OpenDir must say so with
// ErrCorruptSnapshot — which classifies as ErrIntegrity, so the same
// operator alerting catches storage-at-rest tampering and wire tampering.
func TestTamperSnapshotDetected(t *testing.T) {
	dir := t.TempDir()
	srv, err := securefd.OpenDir(dir, securefd.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := securefd.Outsource(srv, crashRelation(t), crashOpts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.DiscoverResumable(filepath.Join(dir, "run.ckpt")); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshots in %s (err = %v)", dir, err)
	}
	for _, s := range snaps {
		flipByteInFile(t, s)
	}
	_, err = securefd.OpenDir(dir, securefd.DurableOptions{})
	if !errors.Is(err, securefd.ErrCorruptSnapshot) {
		t.Errorf("open over corrupt snapshots = %v, want ErrCorruptSnapshot", err)
	}
	if !errors.Is(err, securefd.ErrIntegrity) {
		t.Errorf("ErrCorruptSnapshot must classify as ErrIntegrity; got %v", err)
	}
}

// TestTamperWALNeverSilentlyWrong: a bit flip inside a WAL frame breaks its
// CRC, and recovery deliberately treats the unreadable suffix as a torn tail
// — that is indistinguishable, at the storage layer, from a crash mid-write.
// What turns silent truncation into detected tampering is the epoch tag:
// resuming the client checkpoint against the rolled-back server must be
// refused with ErrEpochMismatch (an ErrIntegrity), unless the truncation
// happens to land exactly on the checkpointed state, in which case the
// resumed run must match the oracle exactly. Either way: never a silent
// wrong FD set.
func TestTamperWALNeverSilentlyWrong(t *testing.T) {
	want, meter := cleanRun(t)
	totalWrites := meter.writes
	firstWrites := meter.writesAtEpoch[1]
	if firstWrites == 0 || firstWrites >= totalWrites {
		t.Fatalf("epoch 1 at write %d of %d; cannot place a kill point", firstWrites, totalWrites)
	}

	// Crash the client mid-level so wal.log holds mutations past the
	// epoch-1 snapshot, then flip a bit in that tail.
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	srv, err := securefd.OpenDir(dir, securefd.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dying := &dyingSvc{Service: srv, remaining: firstWrites + (totalWrites-firstWrites)/2}
	db, err := securefd.Outsource(dying, crashRelation(t), crashOpts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.DiscoverResumable(ckpt); !errors.Is(err, errClientCrash) {
		t.Fatalf("Discover err = %v, want simulated client crash", err)
	}
	db.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	flipByteInFile(t, filepath.Join(dir, "wal.log"))

	srv2, err := securefd.OpenDir(dir, securefd.DurableOptions{})
	if err != nil {
		// Mid-stream garbage that still frames correctly is rejected
		// outright; that is detection too.
		if !errors.Is(err, securefd.ErrIntegrity) {
			t.Fatalf("open over corrupt WAL = %v, want errors.Is(ErrIntegrity)", err)
		}
		return
	}
	defer srv2.Close()
	db2, err := securefd.Resume(srv2, ckpt)
	if err != nil {
		if !errors.Is(err, securefd.ErrEpochMismatch) || !errors.Is(err, securefd.ErrIntegrity) {
			t.Fatalf("resume against truncated server = %v, want ErrEpochMismatch (an ErrIntegrity)", err)
		}
		return
	}
	defer db2.Close()
	report, err := db2.Discover()
	if err != nil {
		if !errors.Is(err, securefd.ErrIntegrity) {
			t.Fatalf("resumed discovery = %v, want success or ErrIntegrity", err)
		}
		return
	}
	if !relation.FDSetEqual(report.Minimal, want.Minimal) {
		t.Errorf("SILENT WRONG RESULT after WAL tamper: FDs = %v, want %v", report.Minimal, want.Minimal)
	}
}
