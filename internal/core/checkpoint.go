package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/oram"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
)

// Client-side checkpointing. A Checkpoint bundles everything the client
// needs to continue a discovery run after a crash: the encryption key, the
// engine's per-set ORAM client states (stash + position map — the secrets),
// and the lattice traversal frontier. It is written to a client-local file
// and NEVER crosses the wire: the server-side counterpart is just the
// recovery epoch number passed to store.Service.Checkpoint, so the leakage
// profile is unchanged (the adversary learns that — and when — the client
// checkpointed, which is timing it already observes).
//
// Consistency contract: a checkpoint at epoch E is valid only against a
// server whose storage is exactly as it was when E was marked. PathORAM
// reads mutate the server (leaf remap + path rewrite), so resuming an old
// client state against a newer server state silently corrupts the
// partitions. Resume therefore verifies Stats().Epoch == E and
// Stats().MutationsSinceEpoch == 0 before touching anything.

// Checkpoint sentinels.
var (
	// ErrCorruptCheckpoint marks a checkpoint file that cannot be restored
	// (truncated, bit-flipped, or semantically inconsistent).
	ErrCorruptCheckpoint = errors.New("core: corrupt checkpoint")
	// ErrEpochMismatch is returned by Resume when the server's storage
	// state does not match the checkpoint's epoch — either a different
	// epoch was marked last, or mutations were applied after the mark.
	ErrEpochMismatch = errors.New("core: server state does not match checkpoint epoch")
)

// checkpointMagic identifies the framed checkpoint format — and, because a
// checkpoint is only half of a resumable state, what its ORAM handles expect
// to find on the server. OFDCKPT4 holds each ORAM's client state as the handle
// holds it: slots, value slab, counters (oram.State), for a tree of half the
// next power of two ≥ capacity leaves, a shape oram derives from Capacity and
// does not store. The payload stays gob: gob drops what the reader has no
// field for, which is why every change of layout, or of the trees a state
// describes, bumps the magic and the older files are refused by name, from
// retiredCheckpoints. There is no migration.
var checkpointMagic = [8]byte{'O', 'F', 'D', 'C', 'K', 'P', 'T', '4'}

// retiredCheckpoints says what each refused magic was written for.
var retiredCheckpoints = map[string]string{
	"OFDCKPT1": "ORAM trees sealed per block",
	"OFDCKPT2": "ORAM client state as three maps; commit 07fe223 was the last to resume it, 56f5a87 for the scan ORAM's",
	"OFDCKPT3": "ORAM trees with one leaf per unit of capacity; commit 520a5d8 was the last to resume it",
}

const maxCheckpointPayload = 1 << 40

// EDBState is the serializable client handle to an uploaded database. It
// carries the encryption key — the reason checkpoint files must stay on the
// client.
type EDBState struct {
	Name     string
	Attrs    []string
	N        int
	Capacity int
	Key      crypto.Key
}

// State captures the database handle.
func (e *EncryptedDB) State() *EDBState {
	return &EDBState{
		Name:     e.name,
		Attrs:    e.schema.Names(),
		N:        e.n,
		Capacity: e.capacity,
		Key:      e.cipher.Key(),
	}
}

// AttachEDB rebuilds a database handle over existing server-side column
// arrays (no creation, no upload).
func AttachEDB(svc store.Service, st *EDBState) (*EncryptedDB, error) {
	schema, err := relation.NewSchema(st.Attrs...)
	if err != nil {
		return nil, fmt.Errorf("%w: schema: %v", ErrCorruptCheckpoint, err)
	}
	if st.N < 0 || st.Capacity < 1 || st.N > st.Capacity {
		return nil, fmt.Errorf("%w: %d rows in capacity %d", ErrCorruptCheckpoint, st.N, st.Capacity)
	}
	cipher, err := crypto.NewCipher(st.Key)
	if err != nil {
		return nil, err
	}
	return &EncryptedDB{
		svc:      svc,
		cipher:   cipher,
		name:     st.Name,
		schema:   schema,
		n:        st.N,
		capacity: st.Capacity,
	}, nil
}

// SetState is the checkpoint form of one materialized attribute set:
// cardinality, covering subsets, and the client states of its ORAMs — KL and
// the name of the IL label array for OrEngine, KLF and IKL for ExEngine. An
// Or-ORAM state with a Secondary was written by a build that kept IL as an
// ORAM, and is refused.
type SetState struct {
	Set       relation.AttrSet
	Card      uint64
	NextLabel uint64 // ExEngine's monotone label source; unused by OrEngine
	Cover     [2]relation.AttrSet
	Primary   *oram.State // KL or KLF
	Secondary *oram.State // IKL; nil for OrEngine
	Labels    string      // IL; empty for ExEngine
}

// Engine kind tags used in EngineState.Kind.
const (
	engineKindOr = "or-oram"
	engineKindEx = "ex-oram"
)

// EngineState is the serializable client state of an attribute-level engine.
type EngineState struct {
	Kind     string // engineKindOr or engineKindEx
	Instance string // ORAM name prefix; preserved so names keep matching
	Seq      int64  // ORAM-name counter; preserved so new names stay unique
	Dead     []int  // ids of the database's rows never to traverse, ascending
	Sets     []SetState
}

// CheckpointableEngine is implemented by engines that can capture and later
// resume their client state.
type CheckpointableEngine interface {
	Engine
	CheckpointState() *EngineState
}

// ResumeEngine rebuilds whichever engine the state describes, attached to
// the given database handle; see oramCore.resume for what the server must
// hold.
func ResumeEngine(edb *EncryptedDB, st *EngineState) (Engine, error) {
	var e interface {
		Engine
		resume(*EncryptedDB, *EngineState, oramLayout) error
	}
	var layout oramLayout
	switch st.Kind {
	case orLayout.kind:
		e, layout = new(OrEngine), orLayout
	case exLayout.kind:
		e, layout = new(ExEngine), exLayout
	default:
		return nil, fmt.Errorf("%w: unknown engine kind %q", ErrCorruptCheckpoint, st.Kind)
	}
	if err := e.resume(edb, st, layout); err != nil {
		return nil, err
	}
	return e, nil
}

// LatticeState is the serializable frontier of a Discover run, captured at
// a level boundary: the sets whose partitions are live, the pruning state
// (C⁺), and the results so far. NextLevel is the loop index the resumed run
// starts at. Its tables are slices, not maps: gob sizes a decoded map by the
// length the bytes claim, and a slice by the bytes present.
type LatticeState struct {
	M                int
	NextLevel        int
	Level            []relation.AttrSet
	PrevLevel        []relation.AttrSet
	CPlus            [][2]relation.AttrSet // {X, C⁺(X)}
	Minimal          []relation.FD
	Cardinalities    []SetCard
	SetsMaterialized int
	Checks           int
	MaxLHS           int
	KeepPartitions   bool
}

// SetCard is |π_X| for one set X.
type SetCard struct {
	Set  relation.AttrSet
	Card int
}

// Checkpoint is a complete client-side recovery point. Epoch is the value
// passed to store.Service.Checkpoint at capture time (the completed lattice
// level count); Resume verifies the server still sits at exactly that
// state.
type Checkpoint struct {
	Epoch   int64
	EDB     *EDBState
	Engine  *EngineState
	Lattice *LatticeState
}

// writeCheckpoint serializes a checkpoint with the same CRC framing as
// server snapshots, so truncation and corruption are always detected.
func writeCheckpoint(w io.Writer, cp *Checkpoint) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(cp); err != nil {
		return fmt.Errorf("core: encoding checkpoint: %w", err)
	}
	header := make([]byte, 8+8+4)
	copy(header, checkpointMagic[:])
	binary.LittleEndian.PutUint64(header[8:], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(header[16:], crc32.ChecksumIEEE(payload.Bytes()))
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("core: writing checkpoint header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("core: writing checkpoint payload: %w", err)
	}
	return nil
}

// readCheckpoint parses and validates a framed checkpoint. Any failure —
// short read, bad magic, CRC mismatch, decode error — wraps
// ErrCorruptCheckpoint.
func readCheckpoint(r io.Reader) (*Checkpoint, error) {
	header := make([]byte, 8+8+4)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorruptCheckpoint, err)
	}
	if !bytes.Equal(header[:8], checkpointMagic[:]) {
		if what, ok := retiredCheckpoints[string(header[:8])]; ok {
			return nil, fmt.Errorf("%w: format %s (%s) is not resumable by this build, which reads only %s",
				ErrCorruptCheckpoint, header[:8], what, checkpointMagic[:])
		}
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorruptCheckpoint, header[:8])
	}
	plen := binary.LittleEndian.Uint64(header[8:])
	want := binary.LittleEndian.Uint32(header[16:])
	if plen > maxCheckpointPayload {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrCorruptCheckpoint, plen)
	}
	// Incremental read: a corrupted length field must not provoke a huge
	// up-front allocation.
	var payloadBuf bytes.Buffer
	if n, err := io.CopyN(&payloadBuf, r, int64(plen)); err != nil || n != int64(plen) {
		return nil, fmt.Errorf("%w: short payload (%d of %d bytes): %v", ErrCorruptCheckpoint, n, plen, err)
	}
	payload := payloadBuf.Bytes()
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (got %08x, want %08x)", ErrCorruptCheckpoint, got, want)
	}
	return decodeCheckpoint(payload)
}

// decodeCheckpoint decodes a payload whose CRC has been checked. Any failure
// wraps ErrCorruptCheckpoint.
func decodeCheckpoint(payload []byte) (cp *Checkpoint, err error) {
	defer func() {
		if p := recover(); p != nil {
			cp, err = nil, fmt.Errorf("%w: gob decode panicked: %v", ErrCorruptCheckpoint, p)
		}
	}()
	cp = new(Checkpoint)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(cp); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptCheckpoint, err)
	}
	if cp.EDB == nil || cp.Engine == nil || cp.Lattice == nil {
		return nil, fmt.Errorf("%w: missing section", ErrCorruptCheckpoint)
	}
	return cp, nil
}

// WriteCheckpointFile writes a checkpoint atomically (store.ReplaceFile), so
// a crash mid-write can never leave a torn file where a previous good
// checkpoint was, nor bring the previous one back once this call returns.
func WriteCheckpointFile(path string, cp *Checkpoint) error {
	return store.ReplaceFile(store.OSFS, path, ".ckpt-*.tmp", func(w io.Writer) error { return writeCheckpoint(w, cp) })
}

// ReadCheckpointFile loads a checkpoint from a file.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readCheckpoint(f)
}

// VerifyEpoch checks the resume-consistency contract against a live
// service: the server's last-marked epoch must equal the checkpoint's and
// no mutation may have been applied since. Works over any transport because
// both values travel in Stats.
func VerifyEpoch(svc store.Service, epoch int64) error {
	st, err := svc.Stats()
	if err != nil {
		return err
	}
	if st.Epoch != epoch || st.MutationsSinceEpoch != 0 {
		// A stale or rolled-back snapshot is an integrity event, not just a
		// bookkeeping mismatch: wrap both sentinels so callers matching
		// either ErrEpochMismatch or store.ErrIntegrity see it.
		return fmt.Errorf("%w: checkpoint epoch %d, server epoch %d with %d mutations since: %w",
			ErrEpochMismatch, epoch, st.Epoch, st.MutationsSinceEpoch, store.ErrIntegrity)
	}
	return nil
}
