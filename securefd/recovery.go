package securefd

import (
	"fmt"

	"github.com/oblivfd/oblivfd/internal/core"
	"github.com/oblivfd/oblivfd/internal/store"
)

// Crash recovery. Discovery over a large database can run for hours and
// makes millions of storage calls; a crash on either side must not cost the
// whole run. Recovery is two-sided:
//
//   - Server side: a DurableServer (OpenDir) persists every mutation to an
//     append-only WAL and takes an atomic snapshot at each client-marked
//     epoch. After a crash it recovers to the last acknowledged operation.
//   - Client side: DiscoverResumable periodically writes a client-local
//     checkpoint file — encryption key, ORAM stashes and position maps, and
//     the lattice frontier — and marks the matching epoch on the server.
//     Resume continues the run from the last completed lattice level.
//
// The checkpoint file contains the database secrets and must never leave
// the client. The server-side counterpart is only the epoch number, so the
// leakage profile L(DB) = {Size(DB), FD(DB)} is unchanged: the adversary
// additionally learns when the client checkpointed, which is timing it
// already observes, and the persisted bytes are the same ciphertexts and
// public structure a memory-observing adversary already sees.
type (
	// DurableServer is a Server backed by a data directory (WAL +
	// snapshots); create with OpenDir, shut down with Snapshot + Close.
	DurableServer = store.DurableServer
	// DurableOptions tunes durability (sync cadence, snapshot retention).
	DurableOptions = store.DurableOptions
	// RecoveryInfo reports what OpenDir found and repaired.
	RecoveryInfo = store.RecoveryInfo
	// Checkpoint is a complete client-side recovery point.
	Checkpoint = core.Checkpoint
)

// Typed recovery failures; all are fatal (never retried by WithRetry) and
// survive the TCP transport.
var (
	// ErrCorruptSnapshot marks an unreadable snapshot stream or file.
	ErrCorruptSnapshot = store.ErrCorruptSnapshot
	// ErrCorruptWAL marks a write-ahead log that fails mid-stream (a torn
	// tail is repaired silently, not an error).
	ErrCorruptWAL = store.ErrCorruptWAL
	// ErrServerKilled marks operations after an injected kill point.
	ErrServerKilled = store.ErrServerKilled
	// ErrNoSuchEpoch is returned by OpenDirAtEpoch when no retained
	// snapshot matches the requested epoch.
	ErrNoSuchEpoch = store.ErrNoSuchEpoch
	// ErrCorruptCheckpoint marks an unreadable client checkpoint file.
	ErrCorruptCheckpoint = core.ErrCorruptCheckpoint
	// ErrEpochMismatch means the server's storage state does not match the
	// checkpoint's epoch; recover the server first (OpenDirAtEpoch). A stale
	// or rolled-back snapshot is an integrity event, so errors carrying this
	// sentinel also match ErrIntegrity.
	ErrEpochMismatch = core.ErrEpochMismatch
)

// OpenDir opens (or initializes) a durable server over a data directory,
// recovering state from the newest valid snapshot plus the WAL tail.
func OpenDir(dir string, opts DurableOptions) (*DurableServer, error) {
	return store.OpenDir(dir, opts)
}

// OpenDirAtEpoch opens a durable server rolled back to the snapshot taken at
// exactly the given epoch, discarding anything newer. Use it to re-align the
// server with a client checkpoint after a client crash.
func OpenDirAtEpoch(dir string, epoch int64, opts DurableOptions) (*DurableServer, error) {
	return store.OpenDirAtEpoch(dir, epoch, opts)
}

// ReadCheckpointFile loads and validates a client checkpoint file (for
// inspecting its epoch before deciding how to recover the server).
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	return core.ReadCheckpointFile(path)
}

// DiscoverResumable runs Discover while periodically persisting progress: at
// every completed lattice level it marks an epoch on the server
// (Service.Checkpoint — a durable server snapshots there) and atomically
// rewrites the checkpoint file at path. After a crash, Resume(svc, path, reg, tr)
// continues from the last completed level.
//
// Only the ORAM protocols support checkpointing — their per-set client state
// is serializable. ProtocolSort holds transient sorting state with no stable
// intermediate to persist; restart those runs instead.
//
// On a handle built by Resume, the run continues from the checkpointed
// frontier, and keeps checkpointing to path.
func (db *Database) DiscoverResumable(path string) (*Report, error) {
	eng, ok := db.engine.(core.CheckpointableEngine)
	if !ok || db.edb == nil {
		return nil, fmt.Errorf("securefd: protocol %v does not support checkpointing (want %v or %v)",
			db.opts.Protocol, ProtocolORAM, ProtocolDynamicORAM)
	}
	opts := db.discoverOptions()
	opts.Checkpoint = func(ls *core.LatticeState) error {
		// Epoch = completed-level count. Server first: once the epoch is
		// marked (and, on a durable server, snapshotted), the client file
		// is written. If we crash between the two, the previous epoch's
		// snapshot is still retained (a data directory keeps two), so the old
		// checkpoint file can still roll the server back via
		// OpenDirAtEpoch.
		epoch := int64(ls.NextLevel)
		if err := db.svc.Checkpoint(epoch); err != nil {
			return fmt.Errorf("marking server epoch %d: %w", epoch, err)
		}
		return core.WriteCheckpointFile(path, &core.Checkpoint{
			Epoch:   epoch,
			EDB:     db.edb.State(),
			Engine:  eng.CheckpointState(),
			Lattice: ls,
		})
	}
	res, err := core.Discover(db.engine, db.m, opts)
	if err != nil {
		return nil, fmt.Errorf("securefd: %w", err)
	}
	return db.report(res), nil
}

// Resume rebuilds a Database from a checkpoint file against a service whose
// storage state matches the checkpoint's epoch exactly, its engine
// instrumented with reg and its discoveries traced by tr (nil: none). The
// recovered snapshot's epoch tag is verified before anything is rebuilt; on
// mismatch Resume returns an error matching both ErrEpochMismatch and
// ErrIntegrity instead of proceeding — recover the server to that epoch
// first, e.g. with OpenDirAtEpoch or ResumeFromDir. The next Discover or
// DiscoverResumable call on the returned handle continues from the
// checkpointed lattice level.
func Resume(svc Service, path string, reg *Registry, tr *Tracer) (*Database, error) {
	cp, err := core.ReadCheckpointFile(path)
	if err != nil {
		return nil, fmt.Errorf("securefd: %w", err)
	}
	return resumeFrom(svc, cp, reg, tr)
}

// ResumeFromDir recovers both sides at once: it reads the checkpoint, opens
// the server's data directory rolled back to the checkpoint's epoch, and
// resumes the client against it as Resume does. The caller owns the returned
// server (Snapshot + Close on shutdown).
func ResumeFromDir(dir, ckptPath string, opts DurableOptions, reg *Registry, tr *Tracer) (*Database, *DurableServer, error) {
	cp, err := core.ReadCheckpointFile(ckptPath)
	if err != nil {
		return nil, nil, fmt.Errorf("securefd: %w", err)
	}
	srv, err := store.OpenDirAtEpoch(dir, cp.Epoch, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("securefd: %w", err)
	}
	db, err := resumeFrom(srv, cp, reg, tr)
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	return db, srv, nil
}

func resumeFrom(svc Service, cp *core.Checkpoint, reg *Registry, tr *Tracer) (*Database, error) {
	if err := core.VerifyEpoch(svc, cp.Epoch); err != nil {
		return nil, fmt.Errorf("securefd: %w", err)
	}
	eng, edb, proto, err := core.ResumeEngine(svc, cp, reg)
	if err != nil {
		return nil, fmt.Errorf("securefd: %w", err)
	}
	return &Database{
		svc:    svc,
		schema: edb.Schema(),
		opts: Options{
			Protocol:       proto,
			MaxLHS:         cp.Lattice.MaxLHS,
			KeepPartitions: cp.Lattice.KeepPartitions,
			Telemetry:      reg,
			Trace:          tr,
		},
		engine: eng,
		edb:    edb,
		resume: cp.Lattice,
		m:      cp.Lattice.M,
	}, nil
}
