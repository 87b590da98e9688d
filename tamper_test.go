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
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/securefd"
)

// tamperConfigs covers all three secure engines, so both read shapes see
// corruption: cell-batch reads are Sort's, tree path reads the ORAMs'.
var tamperConfigs = []struct {
	name string
	opts securefd.Options
}{
	{"sort", securefd.Options{Protocol: securefd.ProtocolSort}},
	{"or-oram", crashOpts},
	{"ex-oram", securefd.Options{Protocol: securefd.ProtocolDynamicORAM}},
}

// reads is the number of successful payload reads a clean run of opts
// makes: the offset space tamper points are placed in.
func reads(t *testing.T, opts securefd.Options) int64 {
	t.Helper()
	rc := newReadCounter(store.NewServer())
	scenario{opts: opts}.run(t, rc)
	if rc.reads == 0 {
		t.Fatal("clean run issued no reads; harness cannot place tamper points")
	}
	return rc.reads
}

// tampered serves a store whose kth successful read comes back corrupted in
// mode, in-process or behind a TCP listener.
func tampered(t *testing.T, k int64, mode store.CorruptMode, reg *securefd.Registry, overTCP bool) (*store.FaultService, securefd.Service) {
	t.Helper()
	fs := securefd.WithFaults(store.NewServer(), securefd.FaultConfig{
		Seed:              42,
		CorruptAfterReads: k,
		CorruptMode:       mode,
		Metrics:           reg,
	})
	if !overTCP {
		return fs, fs
	}
	c, err := securefd.DialTCP(serveTCP(t, fs, serving{}).addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return fs, c
}

// tamperEveryEngine corrupts one read in mode at each of five offsets
// spread across a whole run — the first read (the setup/upload edge), the
// last, and three interior points — of every engine, and requires every
// run to abort with ErrIntegrity.
func tamperEveryEngine(t *testing.T, mode store.CorruptMode, overTCP bool) {
	for _, tc := range tamperConfigs {
		t.Run(tc.name, func(t *testing.T) {
			n := reads(t, tc.opts)
			seen := map[int64]bool{}
			for _, k := range []int64{1, n / 4, n / 2, 3 * n / 4, n} {
				if k < 1 || seen[k] {
					continue
				}
				seen[k] = true
				fs, svc := tampered(t, k, mode, nil, overTCP)
				_, err := scenario{opts: tc.opts, want: securefd.ErrIntegrity}.run(t, svc)
				if fs.Corruptions() == 0 {
					t.Fatalf("corruption@%d/%d: schedule never fired (err = %v)", k, n, err)
				}
			}
		})
	}
}

// TestTamperBitFlipDetected: a single flipped bit in any read payload — any
// engine, any offset — must abort discovery with ErrIntegrity. A flipped
// ciphertext, nonce, or tag byte always fails GCM authentication at the
// client, so unlike the swap case there is no harmless outcome to accept.
func TestTamperBitFlipDetected(t *testing.T) { tamperEveryEngine(t, store.CorruptFlip, false) }

// TestTamperBlockSwapNeverSilentlyWrong: swapping two blocks within a read
// batch must be refused outright. Every surface binds a ciphertext to its
// place — a column cell or a B_X cell to its array and index, an Or-ORAM
// label to its array and record id, a PathORAM bucket to its tree and heap
// index — so no swap is harmless any more and none may complete a run.
// (PathORAM used to be the absorbing case: blocks were sealed to the tree,
// not to a place in it, and the client collects a path into the stash as a
// set.)
func TestTamperBlockSwapNeverSilentlyWrong(t *testing.T) {
	tamperEveryEngine(t, store.CorruptSwap, false)
}

// TestTamperDetectedOverTCP: the same seeded flips with the fault injector
// on the server side of a real TCP connection. The corrupted ciphertext
// crosses the wire, the client's verification rejects it, and the typed
// error keeps its ErrIntegrity classification end to end.
func TestTamperDetectedOverTCP(t *testing.T) { tamperEveryEngine(t, store.CorruptFlip, true) }

// TestTamperEquivocatedBucket: the ORAM engines fetch a chunk's paths to a
// tree in one round, and paths share buckets below the levels a round reads
// whole, each shared bucket fetched once for every path through it. A server
// that answers one round's two fetches of such a bucket with two different
// authentic ciphertexts — the current one to one path, the first it ever
// served for that bucket to another — is refused with ErrIntegrity, never
// absorbed into a wrong FD set: the client takes a shared bucket in once and
// requires every repeat of it to be the same bytes.
func TestTamperEquivocatedBucket(t *testing.T) {
	for _, tc := range tamperConfigs[1:] {
		t.Run(tc.name, func(t *testing.T) {
			srv := securefd.NewServer()
			type bucket struct {
				tree string
				at   int64
			}
			first := make(map[bucket][]byte) // the first ciphertext served per bucket
			trees := make(map[string]bool)
			fired := false
			svc := store.Adapt(func(op *store.Op, res *store.Result) error {
				if op.Kind == store.KindCreateTree {
					trees[op.Name] = true
				}
				for _, b := range op.Ops {
					if b.Kind() == store.KindCreateTree { // a set-up batch
						trees[b.Name] = true
					}
				}
				if err := store.Invoke(srv, op, res); err != nil || op.Kind != store.KindBatch {
					return err
				}
				for i := range op.Ops {
					b := &op.Ops[i]
					if b.Write || !trees[b.Name] {
						continue
					}
					seen := make(map[int64]bool)
					for k, at := range b.Idx {
						old, ok := first[bucket{b.Name, at}]
						switch {
						case !ok:
							first[bucket{b.Name, at}] = res.Batch[i][k]
						case seen[at] && !fired && !bytes.Equal(old, res.Batch[i][k]):
							res.Batch[i][k] = old
							fired = true
						}
						seen[at] = true
					}
				}
				return nil
			})
			// Records enough for two chunks, so every tree is fetched in
			// more than one round and has older buckets to replay.
			_, err := scenario{rel: securefd.GenerateRND(4, 100, 5), opts: tc.opts, want: securefd.ErrIntegrity}.run(t, svc)
			if !fired {
				t.Fatalf("the server never equivocated (err = %v)", err)
			}
			if err == nil || !strings.Contains(err.Error(), "different authentic ciphertexts") {
				t.Errorf("a bucket answered twice in one round: err = %v, want ErrIntegrity naming the equivocation", err)
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
		_, svc := tampered(t, reads(t, opts)/2, store.CorruptFlip, nil, false)
		_, err := scenario{opts: opts, want: securefd.ErrIntegrity}.run(t, svc)
		for _, part := range []string{"lattice level", "attribute set {"} {
			if err == nil || !strings.Contains(err.Error(), part) {
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
	opts := crashOpts
	n := reads(t, opts)
	reg := securefd.NewRegistry()
	opts.Telemetry = reg
	fs, svc := tampered(t, n/2, store.CorruptFlip, reg, false)
	scenario{opts: opts, want: securefd.ErrIntegrity}.run(t, svc)
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

// flipByteInFile flips the bits of mask in the byte at the file's midpoint.
func flipByteInFile(t *testing.T, path string, mask byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatalf("%s is empty; nothing to corrupt", path)
	}
	data[len(data)/2] ^= mask
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
	srv := openDir(t, dir, securefd.DurableOptions{})
	scenario{opts: crashOpts, ckpt: filepath.Join(dir, "run.ckpt")}.run(t, srv)
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
		flipByteInFile(t, s, 0x01)
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
	_, m := measure(t)
	// Crash the client mid-level so wal.log holds mutations past the
	// epoch-1 snapshot, then flip a bit in that tail.
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	if err := killClient(t, m, dir, ckpt).Close(); err != nil {
		t.Fatal(err)
	}
	flipByteInFile(t, filepath.Join(dir, "wal.log"), 0x01)

	srv, err := securefd.OpenDir(dir, securefd.DurableOptions{})
	if err != nil {
		// Mid-stream garbage that still frames correctly is rejected
		// outright; that is detection too.
		if !errors.Is(err, securefd.ErrIntegrity) {
			t.Fatalf("open over corrupt WAL = %v, want errors.Is(ErrIntegrity)", err)
		}
		return
	}
	defer srv.Close()
	db, err := securefd.Resume(srv, ckpt, nil, nil)
	if err != nil {
		if !errors.Is(err, securefd.ErrEpochMismatch) || !errors.Is(err, securefd.ErrIntegrity) {
			t.Fatalf("resume against truncated server = %v, want ErrEpochMismatch (an ErrIntegrity)", err)
		}
		return
	}
	defer db.Close()
	rep, err := db.Discover()
	if err != nil {
		if !errors.Is(err, securefd.ErrIntegrity) {
			t.Fatalf("resumed discovery = %v, want success or ErrIntegrity", err)
		}
		return
	}
	if want := oracle(crashRelation(t), 0); !relation.FDSetEqual(rep.Minimal, want) {
		t.Errorf("SILENT WRONG RESULT after WAL tamper: FDs = %v, want %v", rep.Minimal, want)
	}
}
