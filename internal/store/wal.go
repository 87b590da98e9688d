package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"syscall"

	"github.com/oblivfd/oblivfd/internal/wire"
)

// Write-ahead log: every mutating storage operation is appended as one
// self-contained CRC32-framed record before the server acknowledges it.
// Recovery replays the log over the newest valid snapshot; a torn tail
// (partial frame from a crash mid-append) is detected by the framing and
// truncated, never replayed and never a panic.
//
// Frame format (integers little-endian, payload in the internal/wire
// layout — uvarint, zigzag varint, `bytes`, delta-coded `indices`, `run`):
//
//	frame   = payloadLen uint32 | crc32(payload) uint32 | payload
//	payload = walVersion op fields(op)
//
// fields(op) are the fields the walRecord comment lists for that op, in
// that order. Frames decode independently — replay can start from any
// snapshot boundary and a torn frame cannot poison its successors — and the
// same frame bytes are what the primary appends, what it ships, and what the
// replica appends: a mutation is encoded once per node.
//
// Version rule: the first payload byte is walVersion; there is one format
// and no migration. Torn and corrupt are different verdicts. A frame that
// ends early or fails its CRC is a torn tail: expected after a crash,
// truncated, recovery continues. A frame whose length and CRC verify but
// whose payload does not parse — a wrong version byte (a gob-era log), a
// short field, trailing bytes — was written that way, so nothing after it
// can be trusted to extend the snapshot and nothing is thrown away on a
// guess: ErrCorruptWAL, OpenDir fails, the file is left as found.
//
// Ownership: a decoded record owns its bytes. Each ciphertext is its own
// allocation, because replay and replication hand them to the store, which
// keeps them cell by cell.

// walVersion is the payload format this build reads and writes.
const walVersion = 1

// walOp enumerates the mutations the log can carry. Reads are not logged:
// they change nothing the snapshot+log must reconstruct.
type walOp uint8

const (
	walCreateArray walOp = iota
	walWriteCells
	walCreateTree
	walWritePath
	walWriteBuckets
	walDelete
	walCheckpoint
	walFence
	walRepairCells
	walRepairSlots
	numWALOps
)

// walOpKind is the Service operation each record logs: the name it prints
// under, and how a mutating Op finds its record. The last three ops log
// something no Service call asks for and name themselves.
var walOpKind = [...]Kind{
	walCreateArray:  KindCreateArray,
	walWriteCells:   KindWriteCells,
	walCreateTree:   KindCreateTree,
	walWritePath:    KindWritePath,
	walWriteBuckets: KindWriteBuckets,
	walDelete:       KindDelete,
	walCheckpoint:   KindCheckpoint,
}

func (o walOp) String() string {
	switch {
	case int(o) < len(walOpKind):
		return walOpKind[o].String()
	case o == walFence:
		return "Fence"
	case o == walRepairCells:
		return "RepairCells"
	case o == walRepairSlots:
		return "RepairSlots"
	}
	return fmt.Sprintf("walOp(%d)", uint8(o))
}

// walRecordOf is the record that logs a mutating Service operation. Any other
// kind gets an op outside the table, which encodeWALRecord refuses.
func walRecordOf(op *Op) *walRecord {
	rec := &walRecord{Op: numWALOps, Name: op.Name, N: int64(op.N), Levels: op.Levels, Slots: op.Slots,
		Leaf: op.Leaf, Idx: op.Idx, Cts: op.Cts}
	for o, k := range walOpKind {
		if k == op.Kind {
			rec.Op = walOp(o)
		}
	}
	if op.Kind == KindCheckpoint {
		rec.Name, rec.N = op.DB, op.Value
	}
	return rec
}

// walRecord is one logged mutation. Field use depends on Op:
//
//	CreateArray:  Name, N
//	WriteCells:   Name, Idx, Cts
//	CreateTree:   Name, Levels, Slots
//	WritePath:    Name, Leaf, Cts
//	WriteBuckets: Name, N (bucketStart), Cts
//	Delete:       Name
//	Checkpoint:   Name (database namespace, "" = root), N (epoch)
//	Fence:        Name ("primary" or "replica" — the role adopted with it),
//	              N (fencing epoch)
//	RepairCells:  Name, Idx, Cts (array self-heal; replays as an install —
//	              no dirty bump, no trace event)
//	RepairSlots:  Name, Idx (flat slot indices), Cts (tree self-heal)
type walRecord struct {
	Op     walOp
	Name   string
	N      int64
	Levels int
	Slots  int
	Leaf   uint32
	Idx    []int64
	Cts    [][]byte
}

// walHeaderLen is the frame header: payload length and CRC.
const walHeaderLen = 8

// encodeWALRecord renders one framed record in a single allocation.
func encodeWALRecord(rec *walRecord) ([]byte, error) {
	// Exact but for the scalars, which are bounded instead of measured.
	size := walHeaderLen + 2 + wire.SizeBytes(len(rec.Name)) + 2*binary.MaxVarintLen64 +
		wire.SizeIndices(rec.Idx) + wire.SizeRun(rec.Cts)
	b := make([]byte, walHeaderLen, size)
	b = append(b, walVersion, byte(rec.Op))
	b = wire.PutString(b, rec.Name)
	switch rec.Op {
	case walCreateArray, walCheckpoint, walFence:
		b = binary.AppendVarint(b, rec.N)
	case walWriteCells, walRepairCells, walRepairSlots:
		b = wire.PutIndices(b, rec.Idx)
		b = wire.PutRun(b, rec.Cts)
	case walCreateTree:
		b = binary.AppendVarint(b, int64(rec.Levels))
		b = binary.AppendVarint(b, int64(rec.Slots))
	case walWritePath:
		b = binary.AppendUvarint(b, uint64(rec.Leaf))
		b = wire.PutRun(b, rec.Cts)
	case walWriteBuckets:
		b = binary.AppendVarint(b, rec.N)
		b = wire.PutRun(b, rec.Cts)
	case walDelete:
	default:
		return nil, fmt.Errorf("store: encoding WAL record: unknown op %v", rec.Op)
	}
	payload := b[walHeaderLen:]
	if uint64(len(payload)) > maxWALPayload {
		return nil, fmt.Errorf("store: encoding WAL record: %d-byte payload exceeds the frame's 32-bit length", len(payload))
	}
	binary.LittleEndian.PutUint32(b[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:], crc32.ChecksumIEEE(payload))
	return b, nil
}

// decodeWALPayload parses a payload whose CRC already verified. Any failure
// wraps ErrCorruptWAL: these bytes are what was written.
func decodeWALPayload(payload []byte) (*walRecord, error) {
	r := wire.NewReader(payload)
	if v := r.Byte(); r.Err() == nil && v != walVersion {
		return nil, fmt.Errorf("%w: record has format version %#02x, this build reads only version %d (logs written by gob-era builds are not readable)",
			ErrCorruptWAL, v, walVersion)
	}
	rec := &walRecord{Op: walOp(r.Byte())}
	rec.Name = r.String()
	switch rec.Op {
	case walCreateArray, walCheckpoint, walFence:
		rec.N = r.Varint()
	case walWriteCells, walRepairCells, walRepairSlots:
		rec.Idx = r.Indices()
		rec.Cts = r.Run(false)
	case walCreateTree:
		rec.Levels = r.Int()
		rec.Slots = r.Int()
	case walWritePath:
		rec.Leaf = r.Uint32()
		rec.Cts = r.Run(false)
	case walWriteBuckets:
		rec.N = r.Varint()
		rec.Cts = r.Run(false)
	case walDelete:
	default:
		r.Fail("unknown op %v", rec.Op)
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: checksummed %v record does not decode: %v", ErrCorruptWAL, rec.Op, err)
	}
	return rec, nil
}

// maxWALPayload is the largest payload the frame's length field can declare.
const maxWALPayload = 1<<32 - 1

// errTornFrame marks bytes that do not form a complete frame with a matching
// checksum — the tail a crash mid-append leaves behind.
var errTornFrame = errors.New("torn frame")

// checkWALFrame verifies that frame is exactly one record frame — header,
// declared length, CRC — and returns its payload.
func checkWALFrame(frame []byte) ([]byte, error) {
	if len(frame) < walHeaderLen {
		return nil, errTornFrame
	}
	payload := frame[walHeaderLen:]
	if uint64(binary.LittleEndian.Uint32(frame[0:])) != uint64(len(payload)) ||
		binary.LittleEndian.Uint32(frame[4:]) != crc32.ChecksumIEEE(payload) {
		return nil, errTornFrame
	}
	return payload, nil
}

// scanWAL reads frames from r until the stream ends and reports the byte
// offset of the end of the last valid one. A torn tail stops the scan without
// error; the caller truncates the file to validEnd. A checksummed frame that
// does not decode stops it with ErrCorruptWAL, validEnd at that frame's
// start; the caller must not truncate.
func scanWAL(r io.Reader) (records []*walRecord, validEnd int64, torn bool, err error) {
	var header [walHeaderLen]byte
	var frame []byte
	for {
		if _, rerr := io.ReadFull(r, header[:]); rerr != nil {
			return records, validEnd, rerr != io.EOF, nil // partial header unless a clean end
		}
		// A garbled length must not size an allocation: AppendN grows with
		// the bytes that are there.
		var rerr error
		frame, rerr = wire.AppendN(r, append(frame[:0], header[:]...), uint64(binary.LittleEndian.Uint32(header[0:])))
		if rerr != nil {
			return records, validEnd, true, nil // partial payload
		}
		payload, ferr := checkWALFrame(frame)
		if ferr != nil {
			return records, validEnd, true, nil
		}
		rec, derr := decodeWALPayload(payload)
		if derr != nil {
			return records, validEnd, false, fmt.Errorf("%w (frame at byte %d)", derr, validEnd)
		}
		records = append(records, rec)
		validEnd += int64(len(frame))
	}
}

// replayWAL applies records to the in-memory server in log order. Replay is
// idempotent so it tolerates a snapshot that already includes a prefix of
// the log (possible when a crash lands between snapshot rename and log
// truncation): creates replace any existing object, deletes of missing
// objects succeed, and cell/path/bucket writes are plain overwrites. A
// record that still fails semantically (e.g. a write to an object no create
// established) means the log does not extend this snapshot — that is
// corruption, not a torn tail.
func replayWAL(s *Server, records []*walRecord) error {
	for i, rec := range records {
		if err := rec.apply(s, true); err != nil {
			return fmt.Errorf("%w: record %d (%v %q): %v", ErrCorruptWAL, i, rec.Op, rec.Name, err)
		}
	}
	return nil
}

// apply runs the record against the in-memory server. With replay set it has
// the idempotent semantics recovery and replication need — a create replaces
// whatever holds the name, a delete of nothing succeeds — because the state
// underneath may already include the record; without it, the strict ones a
// client's own call gets.
func (rec *walRecord) apply(s *Server, replay bool) error {
	switch rec.Op {
	case walCreateArray:
		if replay {
			_ = s.Delete(rec.Name)
		}
		return s.CreateArray(rec.Name, int(rec.N))
	case walWriteCells:
		return s.WriteCells(rec.Name, rec.Idx, rec.Cts)
	case walCreateTree:
		if replay {
			_ = s.Delete(rec.Name)
		}
		return s.CreateTree(rec.Name, rec.Levels, rec.Slots)
	case walWritePath:
		return s.WritePath(rec.Name, rec.Leaf, rec.Cts)
	case walWriteBuckets:
		return s.WriteBuckets(rec.Name, int(rec.N), rec.Cts)
	case walDelete:
		err := s.Delete(rec.Name)
		if replay && errors.Is(err, ErrUnknownObject) {
			return nil
		}
		return err
	case walCheckpoint:
		// Name carries the database namespace; "" is the root.
		return s.CheckpointNS(rec.Name, rec.N)
	case walFence:
		// Fencing epochs are an audit trail in the log; the FENCE file
		// (see replicate.go) is the authoritative durable copy, so there
		// is nothing to apply to the in-memory state.
		return nil
	case walRepairCells:
		return s.InstallStored(rec.Name, false, rec.Idx, rec.Cts)
	case walRepairSlots:
		return s.InstallStored(rec.Name, true, rec.Idx, rec.Cts)
	default:
		return fmt.Errorf("unknown op %v", rec.Op)
	}
}

// errWALFailStop classifies WAL failures the durable layer must treat as
// fail-stop: an fsync error (the kernel may have dropped dirty pages — data
// already acknowledged could be gone, so continuing risks acking writes that
// never become durable; the "fsyncgate" lesson), or a torn write that could
// not be rolled back (the on-disk log no longer matches the in-memory size
// accounting). Disk-full with a clean rollback is NOT fail-stop — it wraps
// ErrDiskFull and the server degrades to read-only instead.
var errWALFailStop = errors.New("store: WAL fail-stop")

// walWriter appends framed records to the log file.
type walWriter struct {
	f           File
	syncEvery   int   // fsync cadence in records; <=1 syncs every append
	pending     int   // appends since last fsync
	appended    int64 // total records appended (kill-point accounting)
	size        int64 // current file size in bytes
	truncations int64 // times truncate() ran (scrub race guard)
}

func openWALWriter(fsys FS, path string, syncEvery int) (*walWriter, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &walWriter{f: f, syncEvery: syncEvery, size: info.Size()}, nil
}

// append writes one encoded frame, fsyncing per the cadence. A failed
// write (ENOSPC) is rolled back by truncating to the pre-append size so the
// log never carries a torn frame the next recovery would mistake for a
// crash; only if that rollback itself fails does the error escalate to
// fail-stop.
func (w *walWriter) append(frame []byte) error {
	if _, err := w.f.Write(frame); err != nil {
		if terr := w.f.Truncate(w.size); terr != nil {
			return fmt.Errorf("%w: append failed (%v) and rollback truncate failed: %v", errWALFailStop, err, terr)
		}
		if _, serr := w.f.Seek(w.size, io.SeekStart); serr != nil {
			return fmt.Errorf("%w: append failed (%v) and rollback seek failed: %v", errWALFailStop, err, serr)
		}
		if errors.Is(err, ErrDiskFull) || isENOSPC(err) {
			return fmt.Errorf("store: appending WAL record: %w", err)
		}
		return fmt.Errorf("%w: appending WAL record: %v", errWALFailStop, err)
	}
	w.size += int64(len(frame))
	w.appended++
	w.pending++
	if w.syncEvery <= 1 || w.pending >= w.syncEvery {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("%w: syncing WAL: %v", errWALFailStop, err)
		}
		w.pending = 0
	}
	return nil
}

// isENOSPC reports whether err is the real filesystem's out-of-space errno
// (the injected form already wraps ErrDiskFull).
func isENOSPC(err error) bool {
	return errors.Is(err, syscall.ENOSPC)
}

// appendTorn simulates a crash mid-append for the kill-point harness: it
// writes only a prefix of the frame (at least the header plus one payload
// byte when possible, never the whole frame) and syncs, leaving exactly the
// torn tail a real SIGKILL between write and completion would.
func (w *walWriter) appendTorn(frame []byte) error {
	cut := len(frame) / 2
	if cut < 9 && len(frame) > 9 {
		cut = 9
	}
	if cut >= len(frame) {
		cut = len(frame) - 1
	}
	if cut < 1 {
		cut = 1
	}
	if _, err := w.f.Write(frame[:cut]); err != nil {
		return fmt.Errorf("store: appending torn WAL record: %w", err)
	}
	w.size += int64(cut)
	return w.f.Sync()
}

// truncate resets the log to empty (after a snapshot absorbed its records).
func (w *walWriter) truncate() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("store: truncating WAL: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("%w: syncing truncated WAL: %v", errWALFailStop, err)
	}
	w.size = 0
	w.pending = 0
	w.truncations++
	return nil
}

func (w *walWriter) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}
