package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/oblivfd/oblivfd/internal/otrace"
	"github.com/oblivfd/oblivfd/internal/telemetry"
	"github.com/oblivfd/oblivfd/internal/trace"
)

// DurableServer wraps the in-memory Server with crash-safe persistence:
// every mutation is applied to memory and then appended to a write-ahead
// log before the call returns, and Snapshot/Checkpoint write the full state
// to an atomically-renamed snapshot file and compact the log. OpenDir
// recovers by replaying the surviving log over the newest valid snapshot.
//
// Data directory layout:
//
//	<dir>/snap-<seq>.snap   framed snapshots, seq strictly increasing
//	<dir>/wal.log           mutations since the newest snapshot
//
// The newest two snapshots (retainedSnapshots) are kept so a client whose
// checkpoint file is one epoch behind the server's newest mark can still
// roll back to a matching state (OpenDirAtEpoch).
//
// Leakage: the directory holds exactly what the live server holds —
// ciphertexts and public structure. Persisting it gives the adversary
// nothing the threat model's full-memory view did not already include.
type DurableServer struct {
	Adapter
	mu   sync.Mutex
	mem  *Server
	dir  string
	fsys FS

	wal     *walWriter
	snapSeq int64 // sequence number of the newest snapshot on disk

	killed  bool  // crash-injection kill point fired
	kills   int64 // appends remaining before the kill point (when armed)
	armed   bool
	recInfo RecoveryInfo

	// failed, once set, wraps ErrServerKilled and makes every operation
	// refuse: a fail-stop condition (fsync failure, unrecoverable torn
	// write) where continuing could acknowledge writes that never become
	// durable.
	failed error
	// parked holds the frames of records applied to memory whose WAL append
	// was refused with ErrDiskFull. While any are parked the server is degraded
	// (read-only): writes shed with a retryable error, reads proceed. Later
	// appends drain the queue first (preserving log order), and a successful
	// snapshot absorbs the parked effects wholesale and clears it.
	parked   [][]byte
	degraded bool

	walAppendLat  *telemetry.Histogram
	snapshotLat   *telemetry.Histogram
	snapshots     *telemetry.Counter
	prunes        *telemetry.Counter
	pruneFailures *telemetry.Counter
	sheds         *telemetry.Counter
	degradedGauge *telemetry.Gauge
	otr           *otrace.Tracer // nil-safe span recorder (wal/append, store/snapshot)
}

// retainedSnapshots is how many epoch snapshots a data directory retains. Two
// covers the client-crash window between the server's epoch mark and the
// client writing its own checkpoint file: a client whose checkpoint is one
// mark behind still finds a snapshot to roll back to (securefd's resume).
const retainedSnapshots = 2

// DurableOptions tunes the durable backend. Every WAL append is fsynced
// before its mutation is acknowledged.
type DurableOptions struct {
	// KillAfterAppends arms the crash-injection kill point: the Nth WAL
	// append (1-based) writes only a torn partial frame, the in-memory
	// mutation is acknowledged to nobody, and every subsequent call
	// returns ErrServerKilled until the directory is reopened. Zero
	// disables injection.
	KillAfterAppends int64
	// Metrics, when set, times WAL appends (oblivfd_wal_append_seconds)
	// and snapshots (oblivfd_snapshot_seconds) into the registry.
	Metrics *telemetry.Registry
	// Trace, when set, records one span per WAL append (wal/append) and
	// per snapshot write (store/snapshot), parented under the span of the op
	// that caused it (Op.Parent). A snapshot no op asked for (shutdown, a
	// scrubber's heal, a replica's resync) is a root.
	Trace *otrace.Tracer
	// FS selects the filesystem the WAL, snapshots, and FENCE file go
	// through. Nil means the real one (OSFS); the disk-fault harness passes
	// a FaultFS to inject ENOSPC, short writes, fsync failures, and bit rot.
	FS FS
}

// RecoveryInfo reports what OpenDir found and did.
type RecoveryInfo struct {
	SnapshotSeq    int64 // sequence of the snapshot restored (0 = none)
	SnapshotEpoch  int64 // epoch recorded in that snapshot
	WALReplayed    int   // complete WAL records replayed
	WALTruncatedAt int64 // byte offset the log was truncated to (torn tail)
	TornTail       bool  // whether a torn tail was found and discarded
	WALDiscarded   bool  // log dropped: it extended a snapshot we could not restore
}

const (
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	walName    = "wal.log"
)

func snapPath(dir string, seq int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", snapPrefix, seq, snapSuffix))
}

// listSnapshots returns the snapshot sequence numbers in dir, ascending.
func listSnapshots(fsys FS, dir string) ([]int64, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []int64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix), 10, 64)
		if err != nil {
			continue // foreign file; ignore
		}
		seqs = append(seqs, n)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// OpenDir opens (creating if needed) a data directory and recovers: it
// loads the newest snapshot that passes validation, replays the WAL's
// complete records over it, and truncates any torn tail. A snapshot that
// fails its CRC is skipped in favor of the next-newest (the write was
// atomic, so a bad newest snapshot means a crash before rename completed
// its fsync — the previous one is intact); if every snapshot is corrupt,
// OpenDir returns ErrCorruptSnapshot.
func OpenDir(dir string, opts DurableOptions) (*DurableServer, error) {
	return openDir(dir, opts, -1)
}

// OpenDirAtEpoch opens the directory rolled back to the newest retained
// snapshot that was taken exactly at the given epoch mark (matching epoch,
// zero mutations since — shutdown snapshots recording later mutations under
// the same epoch are skipped): the WAL and any newer snapshots are discarded
// so the storage state is exactly the one the client's checkpoint at that
// epoch describes. Returns ErrNoSuchEpoch if no retained snapshot qualifies.
func OpenDirAtEpoch(dir string, epoch int64, opts DurableOptions) (*DurableServer, error) {
	return openDir(dir, opts, epoch)
}

func openDir(dir string, opts DurableOptions, wantEpoch int64) (*DurableServer, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	seqs, err := listSnapshots(fsys, dir)
	if err != nil {
		return nil, err
	}

	mem := NewServer()
	var info RecoveryInfo
	rollback := wantEpoch >= 0

	// Restore the newest usable snapshot (newest matching snapshot when
	// rolling back to an epoch).
	matched := false
	newest := int64(-1)
	if len(seqs) > 0 {
		newest = seqs[len(seqs)-1]
	}
	var loadErr error
	for i := len(seqs) - 1; i >= 0; i-- {
		f, err := fsys.Open(snapPath(dir, seqs[i]))
		if err != nil {
			return nil, err
		}
		err = mem.LoadSnapshot(f)
		f.Close()
		if err != nil {
			if IsCorrupt(err) {
				loadErr = err
				continue // fall back to the previous snapshot
			}
			return nil, err
		}
		if rollback {
			// Only a snapshot taken at the epoch mark itself will do: a
			// shutdown snapshot can record the same epoch with mutations
			// applied since, and resuming a client checkpoint against that
			// state would corrupt its ORAM partitions (VerifyEpoch would
			// reject it anyway — skip to the checkpoint-consistent one).
			st, serr := mem.Stats()
			if serr != nil {
				return nil, serr
			}
			if st.Epoch != wantEpoch || st.MutationsSinceEpoch != 0 {
				mem = NewServer() // discard; keep looking for the epoch
				continue
			}
		}
		info.SnapshotSeq = seqs[i]
		info.SnapshotEpoch = mem.Epoch()
		matched = true
		break
	}
	if !matched {
		if rollback {
			return nil, fmt.Errorf("%w: epoch %d not among retained snapshots", ErrNoSuchEpoch, wantEpoch)
		}
		if len(seqs) > 0 && loadErr != nil {
			// Snapshots exist but none restored: surface the corruption.
			return nil, loadErr
		}
		mem = NewServer() // fresh directory
	}

	walPath := filepath.Join(dir, walName)
	switch {
	case rollback:
		// The log extends the *newest* state; after rollback it no longer
		// applies. Discard it.
		if err := fsys.Remove(walPath); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		// Newer snapshots than the matched one describe futures the client
		// abandoned; prune them so the next snapshot sequence stays sane.
		for _, seq := range seqs {
			if seq > info.SnapshotSeq {
				if err := fsys.Remove(snapPath(dir, seq)); err != nil && !os.IsNotExist(err) {
					return nil, err
				}
			}
		}
	case matched && info.SnapshotSeq != newest:
		// The log extends the newest snapshot, which failed to restore.
		// Replaying it over an older one would fabricate state; drop it
		// and report the data loss.
		info.WALDiscarded = true
		if err := fsys.Remove(walPath); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	default:
		if err := replayWALFile(fsys, mem, walPath, &info); err != nil {
			return nil, err
		}
	}
	w, err := openWALWriter(fsys, walPath)
	if err != nil {
		return nil, err
	}
	ds := &DurableServer{
		mem:     mem,
		dir:     dir,
		fsys:    fsys,
		wal:     w,
		snapSeq: info.SnapshotSeq,
		recInfo: info,
		// Nil-safe: with no registry these handles are nil and observing
		// them no-ops.
		walAppendLat:  opts.Metrics.Histogram("oblivfd_wal_append_seconds"),
		snapshotLat:   opts.Metrics.Histogram("oblivfd_snapshot_seconds"),
		snapshots:     opts.Metrics.Counter("oblivfd_snapshots_total"),
		prunes:        opts.Metrics.Counter("oblivfd_snapshots_pruned_total"),
		pruneFailures: opts.Metrics.Counter("oblivfd_snapshot_prune_failures_total"),
		sheds:         opts.Metrics.Counter("oblivfd_disk_full_sheds_total"),
		degradedGauge: opts.Metrics.Gauge("oblivfd_store_degraded"),
		otr:           opts.Trace,
	}
	ds.Adapter = Adapt(ds.handle)
	if opts.KillAfterAppends > 0 {
		ds.armed = true
		ds.kills = opts.KillAfterAppends
	}
	// What recovery found and did, on /metrics rather than log-only: ops can
	// alert on torn tails and discarded logs without scraping stderr.
	opts.Metrics.Gauge("oblivfd_recovery_snapshot_seq").Set(info.SnapshotSeq)
	opts.Metrics.Gauge("oblivfd_recovery_wal_replayed").Set(int64(info.WALReplayed))
	opts.Metrics.Gauge("oblivfd_recovery_wal_truncated_offset").Set(info.WALTruncatedAt)
	opts.Metrics.Gauge("oblivfd_recovery_torn_tail").Set(b2i(info.TornTail))
	opts.Metrics.Gauge("oblivfd_recovery_wal_discarded").Set(b2i(info.WALDiscarded))
	return ds, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// replayWALFile replays every complete record of the log at path into mem
// and truncates a torn tail in place. A missing log is a no-op. A log holding
// a checksummed frame that does not decode is refused untouched: truncating
// there would discard every acknowledged record behind it.
func replayWALFile(fsys FS, mem *Server, path string, info *RecoveryInfo) error {
	f, err := fsys.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	records, validEnd, torn, err := scanWAL(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := replayWAL(mem, records); err != nil {
		return err
	}
	info.WALReplayed = len(records)
	info.TornTail = torn
	info.WALTruncatedAt = validEnd
	if torn {
		if err := fsys.Truncate(path, validEnd); err != nil {
			return err
		}
	}
	return nil
}

// Recovery reports what opening the directory found.
func (d *DurableServer) Recovery() RecoveryInfo { return d.recInfo }

// Trace exposes the in-memory server's adversary recorder.
func (d *DurableServer) Trace() *trace.Recorder { return d.mem.Trace() }

// Reveals exposes the reveal log.
func (d *DurableServer) Reveals() []Reveal { return d.mem.Reveals() }

// Epoch returns the last client-marked recovery epoch.
func (d *DurableServer) Epoch() int64 { return d.mem.Epoch() }

// Dir returns the data directory path.
func (d *DurableServer) Dir() string { return d.dir }

// logFrame appends a record's frame after the in-memory apply succeeded.
// Every append is fsynced, so an acknowledged mutation is durable; a crash
// between apply and append loses only an operation that was never
// acknowledged, which is indistinguishable (to the client) from crashing
// before the call. When the kill point fires the frame is written torn and
// the server plays dead. The wal/append span starts under parent.
func (d *DurableServer) logFrame(parent otrace.SpanContext, frame []byte) error {
	if d.walAppendLat != nil {
		defer d.walAppendLat.ObserveSince(time.Now())
	}
	defer d.otr.StartChild("wal/append", parent).End()
	if d.armed {
		d.kills--
		if d.kills == 0 {
			d.killed = true
			if err := d.wal.appendTorn(frame); err != nil {
				return err
			}
			return fmt.Errorf("%w: kill point at WAL append %d", ErrServerKilled, d.wal.appended+1)
		}
	}
	return d.wal.append(frame)
}

// mutate encodes op, applies it to memory and logs it.
func (d *DurableServer) mutate(op *Op) error {
	frame, err := encodeWALRecord(op)
	if err != nil {
		return err
	}
	return d.applyFramed(op, frame, false)
}

// applyFramed applies op to memory (applyRecord gives replay its meaning)
// and, on success, appends frame — op's encoding, made once by whoever built
// or received the record — to the log. A root checkpoint is the exception: it is
// made durable as a snapshot, which absorbs the log, not as a record in it.
// A WAL append refused for lack of disk space parks the frame (memory already
// holds the effect) and returns a retryable error wrapping ErrDiskFull; while
// anything is parked the server is degraded and sheds further writes up
// front. Fail-stop WAL errors latch the server dead.
func (d *DurableServer) applyFramed(op *Op, frame []byte, replay bool) error {
	if op.Kind == KindCheckpoint && op.DB == "" {
		return d.checkpointRoot(op.Parent, op.Value)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.aliveLocked(); err != nil {
		return err
	}
	// Drain parked frames first so the log stays in apply order; if the
	// disk is still full, shed this write before touching memory.
	if err := d.flushParkedLocked(); err != nil {
		d.sheds.Inc()
		return err
	}
	if err := applyRecord(d.mem, op, replay); err != nil {
		return err
	}
	if err := d.logFrame(op.Parent, frame); err != nil {
		switch {
		case errors.Is(err, ErrDiskFull):
			d.parked = append(d.parked, frame)
			d.setDegradedLocked(true)
			d.sheds.Inc()
			return err
		case errors.Is(err, errWALFailStop):
			return d.failStopLocked(err)
		}
		return err
	}
	return nil
}

// aliveLocked is the common liveness gate: a fired kill point or a latched
// fail-stop condition makes every operation refuse.
func (d *DurableServer) aliveLocked() error {
	if d.failed != nil {
		return d.failed
	}
	if d.killed {
		return ErrServerKilled
	}
	return nil
}

// failStopLocked latches the server dead. The wrapped ErrServerKilled makes
// the condition fatal to retry classification, exactly like a crash — which
// is the point: after an fsync failure the kernel may have discarded dirty
// pages, so pretending to continue could acknowledge writes that never reach
// the disk (the fsyncgate failure mode). Only a process restart (reopening
// the directory, which re-reads what is actually on disk) clears it.
func (d *DurableServer) failStopLocked(cause error) error {
	if d.failed == nil {
		d.failed = fmt.Errorf("%w: fail-stop: %v", ErrServerKilled, cause)
		slog.Error("store: entering fail-stop", "cause", cause)
	}
	return d.failed
}

// flushParkedLocked appends parked frames in order; on success the server
// leaves degraded mode. An ErrDiskFull return means the disk is still full.
func (d *DurableServer) flushParkedLocked() error {
	for len(d.parked) > 0 {
		if err := d.wal.append(d.parked[0]); err != nil {
			if errors.Is(err, errWALFailStop) {
				return d.failStopLocked(err)
			}
			return err
		}
		d.parked = d.parked[1:]
	}
	if d.degraded {
		d.setDegradedLocked(false)
	}
	return nil
}

func (d *DurableServer) setDegradedLocked(v bool) {
	d.degraded = v
	d.degradedGauge.Set(b2i(v))
	if v {
		slog.Warn("store: disk full — degraded to read-only, writes shed as retryable", "parked", len(d.parked))
	} else {
		slog.Info("store: disk space recovered — leaving degraded mode")
	}
}

// Degraded reports whether the server is shedding writes for lack of disk
// space (reads still serve). fdserver surfaces it on /readyz.
func (d *DurableServer) Degraded() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.degraded
}

// readGuard serializes reads with the kill flag. The inner Server has its
// own RWMutex; this lock only makes "dead servers answer nothing" strict.
// Degraded (disk-full) mode deliberately does NOT block reads.
func (d *DurableServer) readGuard() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.aliveLocked()
}

// handle serves one operation. A mutation becomes a WAL record (a Batch one
// record per write, in order). A root Checkpoint marks the epoch, writes an
// epoch-tagged snapshot atomically, compacts the WAL, and prunes snapshots
// beyond retainedSnapshots; a non-root tenant's epoch mark is made durable as
// a WAL record rather than a full snapshot — fsynced like every record, the
// mark survives any crash the moment the call returns, and per-tenant
// checkpoints stay cheap even with many tenants checkpointing at every level
// of their traversals (full snapshots, which absorb these records and
// persist the marks in the snapshot payload, still happen on root
// checkpoints and graceful shutdown). Everything else is answered from
// memory; reveals are part of the adversary's trace, not the recoverable
// storage state, so they are not logged.
func (d *DurableServer) handle(op *Op, res *Result) (err error) {
	switch {
	case op.Kind == KindBatch:
		res.Batch, err = eachBatchOp(op, d.handle)
		return err
	case op.Kind.info().mutates:
		return d.mutate(op)
	}
	if err := d.readGuard(); err != nil {
		return err
	}
	return Invoke(d.mem, op, res)
}

// checkpointRoot marks the root namespace's epoch and snapshots. When it
// returns, the mark is durable: a crash at any later point recovers to a
// state at or after this epoch, and OpenDirAtEpoch can roll back to exactly
// it while retained. The snapshot's span starts under parent.
func (d *DurableServer) checkpointRoot(parent otrace.SpanContext, epoch int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.aliveLocked(); err != nil {
		return err
	}
	if err := d.mem.Checkpoint(epoch); err != nil {
		return err
	}
	return d.snapshotLocked(d.otr.StartChild("store/snapshot", parent))
}

// SnapshotBytes serializes the current state into memory (the same framed
// format SaveSnapshot writes to disk). The replication layer pushes it to a
// replica that needs a full resync.
func (d *DurableServer) SnapshotBytes() ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.aliveLocked(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := d.mem.SaveSnapshot(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ResetFromSnapshot replaces the entire storage state with the snapshot
// read from r, persists it as a new durable snapshot, and truncates the WAL
// (whose records described the abandoned state). The replication layer uses
// it to realign a replica with the primary's exact bytes; afterwards the
// directory recovers to precisely the synced state. The state is loaded in
// place — LoadSnapshot swaps only the object tables and recovery marks, and
// only after a successful decode — so the replica's accumulated adversary
// trace recorder and reveal log survive the resync (the per-replica trace
// accounting of DESIGN.md §13) and anything holding the old Trace() pointer
// keeps observing a live recorder.
func (d *DurableServer) ResetFromSnapshot(r io.Reader) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.aliveLocked(); err != nil {
		return err
	}
	if err := d.mem.LoadSnapshot(r); err != nil {
		return err
	}
	return d.snapshotLocked(d.otr.StartRoot("store/snapshot"))
}

// Snapshot writes a snapshot of the current state (whatever the epoch) and
// compacts the WAL. fdserver calls it on graceful shutdown.
func (d *DurableServer) Snapshot() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.aliveLocked(); err != nil {
		return err
	}
	return d.snapshotLocked(d.otr.StartRoot("store/snapshot"))
}

// snapshotLocked writes snap-<seq+1> via temp + fsync + rename + dir sync,
// then truncates the WAL (its records are absorbed) and prunes old
// snapshots. Crash windows: before rename — old snapshot + full WAL still
// recover; between rename and truncate — the new snapshot already contains
// the WAL's effects, and replay over it is idempotent. It ends sp, the
// store/snapshot span its caller started.
func (d *DurableServer) snapshotLocked(sp *otrace.Span) error {
	if d.snapshotLat != nil {
		defer d.snapshotLat.ObserveSince(time.Now())
		defer d.snapshots.Inc()
	}
	defer sp.End()
	seq := d.snapSeq + 1
	final := snapPath(d.dir, seq)
	tmp, err := d.fsys.CreateTemp(d.dir, "snap-*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	// Running out of space while writing the temp file is recoverable: the
	// old snapshot and WAL are untouched, so clean up and stay (or go)
	// degraded. Everything past the temp write follows fail-stop rules —
	// a failed fsync or rename after we may already depend on the new file
	// cannot be waved off.
	if err := d.mem.SaveSnapshot(tmp); err != nil {
		if cerr := tmp.Close(); cerr != nil {
			slog.Warn("store: closing aborted snapshot temp", "err", cerr)
		}
		if rerr := d.fsys.Remove(tmpName); rerr != nil {
			slog.Warn("store: removing aborted snapshot temp", "file", tmpName, "err", rerr)
		}
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		d.fsys.Remove(tmpName)
		return d.failStopLocked(fmt.Errorf("syncing snapshot %q: %w", tmpName, err))
	}
	if err := tmp.Close(); err != nil {
		d.fsys.Remove(tmpName)
		return d.failStopLocked(fmt.Errorf("closing snapshot %q: %w", tmpName, err))
	}
	if err := d.fsys.Rename(tmpName, final); err != nil {
		d.fsys.Remove(tmpName)
		return err
	}
	if err := syncDir(d.fsys, d.dir); err != nil {
		return d.failStopLocked(fmt.Errorf("syncing data directory: %w", err))
	}
	d.snapSeq = seq

	if err := d.wal.truncate(); err != nil {
		if errors.Is(err, errWALFailStop) {
			return d.failStopLocked(err)
		}
		return err
	}
	// The snapshot absorbed the full in-memory state, including every parked
	// record's effect — the disk-full backlog is durable now.
	if len(d.parked) > 0 || d.degraded {
		d.parked = nil
		d.setDegradedLocked(false)
	}

	// Prune beyond the retention window; failures here cost only disk, but
	// they are counted and logged, not swallowed — unpruned snapshots on a
	// nearly-full disk are how degraded mode becomes permanent.
	seqs, err := listSnapshots(d.fsys, d.dir)
	if err == nil && len(seqs) > retainedSnapshots {
		for _, old := range seqs[:len(seqs)-retainedSnapshots] {
			if rerr := d.fsys.Remove(snapPath(d.dir, old)); rerr != nil {
				d.pruneFailures.Inc()
				slog.Warn("store: pruning old snapshot failed", "seq", old, "err", rerr)
			} else {
				d.prunes.Inc()
			}
		}
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable.
func syncDir(fsys FS, dir string) error {
	f, err := fsys.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ObjectNames lists live objects in the scrubber's fixed sweep order.
func (d *DurableServer) ObjectNames() ([]string, error) {
	if err := d.readGuard(); err != nil {
		return nil, err
	}
	return d.mem.ObjectNames(), nil
}

// ObjectExtent reports how many cells an object stores.
func (d *DurableServer) ObjectExtent(name string) (int, error) {
	if err := d.readGuard(); err != nil {
		return 0, err
	}
	return d.mem.ObjectExtent(name)
}

// VerifyStored checks stored checksums over [lo, hi) of the named object.
func (d *DurableServer) VerifyStored(name string, lo, hi int) ([]int64, error) {
	if err := d.readGuard(); err != nil {
		return nil, err
	}
	return d.mem.VerifyStored(name, lo, hi)
}

// StoredVerified returns checksum-verified ciphertexts (the repair donor
// path).
func (d *DurableServer) StoredVerified(name string, idx []int64) ([][]byte, error) {
	if err := d.readGuard(); err != nil {
		return nil, err
	}
	return d.mem.StoredVerified(name, idx)
}

// CorruptStored flips one stored bit without updating its checksum — the
// chaos harness's bit-rot hook.
func (d *DurableServer) CorruptStored(name string, i int64, bit uint) error {
	if err := d.readGuard(); err != nil {
		return err
	}
	return d.mem.CorruptStored(name, i, bit)
}

// walScrubView captures, under the durable lock, what the WAL scrubber may
// safely read: the log path, the size of the valid prefix, and the number of
// compactions so far. A scan's verdict only counts if the truncation count
// is unchanged afterwards — otherwise a concurrent compaction rewrote the
// file under the scan and any "corruption" seen is an artifact.
func (d *DurableServer) walScrubView() (path string, size, truncations int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return filepath.Join(d.dir, walName), d.wal.size, d.wal.truncations
}

// snapshotScrubView captures the snapshot sequences currently on disk plus
// the newest sequence the server has written.
func (d *DurableServer) snapshotScrubView() (seqs []int64, newest int64, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.aliveLocked(); err != nil {
		return nil, 0, err
	}
	seqs, err = listSnapshots(d.fsys, d.dir)
	return seqs, d.snapSeq, err
}

// WALSize returns the current log size in bytes (for the recovery bench).
func (d *DurableServer) WALSize() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.wal.size
}

// WALAppends returns the total records appended since open, across
// compactions (the crash harness uses it to seed kill points).
func (d *DurableServer) WALAppends() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.wal.appended
}

// Close syncs and closes the log. It does not snapshot; callers wanting a
// compact directory call Snapshot first.
func (d *DurableServer) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.wal.close()
}
