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
// A record is the Op itself. Frame format (integers little-endian, payload
// in the internal/wire layout — uvarint, zigzag varint, `bytes`, delta-coded
// `indices`, `run`):
//
//	frame   = payloadLen uint32 | crc32(payload) uint32 | payload
//	payload = walVersion kind record(kind)
//	record  = fields(kind)                   a mutating Service kind
//	        | fields(Checkpoint) string(DB)  Checkpoint, whose namespace never crosses the wire
//	        | string(Name) varint(Value)     Promote: role ("primary" or "replica"), fencing epoch
//	        | string(Name) varint(N) indices(Idx) run(Cts)
//	                                         Repair: cells by flat position; N is reserved
//
// fields(kind) is AppendFields' layout, the one a TCP request carries. The
// last two record what no client sends: the fence a server adopted (an audit
// trail; the FENCE file is authoritative) and the ciphertexts a self-heal
// installed — the repair RPC's own Op plus the bytes it fetched. Frames
// decode independently — replay can start from any snapshot boundary and a
// torn frame cannot poison its successors — and the same frame bytes are
// what the primary appends, what it ships, and what the replica appends: a
// mutation is encoded once per node.
//
// Version rule: the first payload byte is walVersion; there is one format
// and no migration, so a primary and its replicas run the same version (a
// replica refuses another version's shipment as ErrIntegrity). Version 1,
// whose records had their own operation numbering, is refused like a
// gob-era log. Torn and corrupt are different verdicts. A frame that
// ends early or fails its CRC is a torn tail: expected after a crash,
// truncated, recovery continues. A frame whose length and CRC verify but
// whose payload does not parse — a wrong version byte, a short field,
// trailing bytes — was written that way, so nothing after it can be trusted
// to extend the snapshot and nothing is thrown away on a guess:
// ErrCorruptWAL, OpenDir fails, the file is left as found.
//
// Ownership: a decoded record owns its bytes. Each ciphertext is its own
// allocation, because replay and replication hand them to the store, which
// keeps them cell by cell.

// walVersion is the payload format this build reads and writes.
const walVersion = 2

// walHeaderLen is the frame header: payload length and CRC.
const walHeaderLen = 8

// encodeWALRecord renders op as one framed record in a single allocation. It
// refuses a kind the log does not carry: reads, Reveal and Batch (whose
// writes are logged one record each), and the other control messages.
func encodeWALRecord(op *Op) ([]byte, error) {
	// Exact but for the scalars, which are bounded instead of measured. A
	// record holds a Name or, a Checkpoint, a DB, never both.
	size := walHeaderLen + 2 + wire.SizeBytes(len(op.Name)+len(op.DB)) + 2*binary.MaxVarintLen64 +
		wire.SizeIndices(op.Idx) + wire.SizeRun(op.Cts)
	b := make([]byte, walHeaderLen, size)
	b = append(b, walVersion, byte(op.Kind))
	switch {
	case op.Kind == KindPromote:
		b = wire.PutString(b, op.Name)
		b = binary.AppendVarint(b, op.Value)
	case op.Kind == KindRepair:
		b = wire.PutString(b, op.Name)
		b = binary.AppendVarint(b, int64(op.N))
		b = wire.PutIndices(b, op.Idx)
		b = wire.PutRun(b, op.Cts)
	case op.Kind.info().mutates:
		b = AppendFields(b, op)
		if op.Kind == KindCheckpoint {
			b = wire.PutString(b, op.DB)
		}
	default:
		return nil, fmt.Errorf("store: encoding WAL record: %v is not logged", op.Kind)
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
func decodeWALPayload(payload []byte) (*Op, error) {
	r := wire.NewReader(payload)
	if v := r.Byte(); r.Err() == nil && v != walVersion {
		return nil, fmt.Errorf("%w: record has format version %#02x, this build reads only version %d (logs of version 1 and of gob-era builds are not readable)",
			ErrCorruptWAL, v, walVersion)
	}
	op := &Op{Kind: Kind(r.Byte())}
	switch {
	case op.Kind == KindPromote:
		op.Name = r.String()
		op.Value = r.Varint()
	case op.Kind == KindRepair:
		op.Name = r.String()
		if op.N = r.Int(); op.N != 0 && op.N != 1 {
			r.Fail("repair reserved field %d (0 or 1)", op.N)
		}
		op.Idx = r.Indices()
		op.Cts = r.Run(false)
	case op.Kind.info().mutates:
		ReadFields(r, op)
		if op.Kind == KindCheckpoint {
			op.DB = r.String()
		}
	default:
		r.Fail("unknown op %v", op.Kind)
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: checksummed %v record does not decode: %v", ErrCorruptWAL, op.Kind, err)
	}
	return op, nil
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
func scanWAL(r io.Reader) (records []*Op, validEnd int64, torn bool, err error) {
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
		op, derr := decodeWALPayload(payload)
		if derr != nil {
			return records, validEnd, false, fmt.Errorf("%w (frame at byte %d)", derr, validEnd)
		}
		records = append(records, op)
		validEnd += int64(len(frame))
	}
}

// replayWAL applies records to the in-memory server in log order. Replay is
// idempotent so it tolerates a snapshot that already includes a prefix of
// the log (possible when a crash lands between snapshot rename and log
// truncation): see applyRecord. A record that still fails semantically (e.g.
// a write to an object no create established) means the log does not extend
// this snapshot — that is corruption, not a torn tail.
func replayWAL(s *Server, records []*Op) error {
	for i, op := range records {
		if err := applyRecord(s, op, true); err != nil {
			return fmt.Errorf("%w: record %d (%v %q): %v", ErrCorruptWAL, i, op.Kind, op.Name, err)
		}
	}
	return nil
}

// applyRecord runs a logged record against the in-memory server. With replay
// set it has the idempotent semantics recovery and replication need — a
// create replaces whatever holds the name, a delete of nothing succeeds —
// because the state underneath may already include the record; without it,
// the strict ones a client's own call gets. A repair installs its bytes (no
// dirty bump, no trace event); a fence is an audit trail, the FENCE file (see
// replicate.go) being its authoritative durable copy, so it applies nothing.
func applyRecord(s *Server, op *Op, replay bool) error {
	switch op.Kind {
	case KindPromote:
		return nil
	case KindRepair:
		return s.InstallStored(op.Name, op.Idx, op.Cts)
	case KindCreateArray, KindCreateTree:
		if replay {
			_ = s.Delete(op.Name)
		}
	}
	// A Server mutation fills no Result; none is allocated for it.
	err := Invoke(s, op, nil)
	if replay && op.Kind == KindDelete && errors.Is(err, ErrUnknownObject) {
		return nil
	}
	return err
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
	appended    int64 // total records appended (kill-point accounting)
	size        int64 // current file size in bytes
	truncations int64 // times truncate() ran (scrub race guard)
}

func openWALWriter(fsys FS, path string) (*walWriter, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &walWriter{f: f, size: info.Size()}, nil
}

// append writes one encoded frame and fsyncs it. A failed
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
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("%w: syncing WAL: %v", errWALFailStop, err)
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
