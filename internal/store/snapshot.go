package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"github.com/oblivfd/oblivfd/internal/wire"
)

// Snapshot persistence: the server can serialize its entire encrypted state
// and restore it later — e.g. across restarts of fdserver. Only ciphertexts
// and public structure cross the boundary; the snapshot is exactly as
// sensitive as the server's live memory (which the threat model already
// hands to the adversary).
//
// Format (version 3): an 8-byte magic, the recovery epoch and the
// mutations-since-epoch count, then a CRC32-framed payload in the
// internal/wire layout:
//
//	"OFDSNAP3" | epoch int64 | dirty int64 | payloadLen uint64 | crc32 uint32 | payload
//	payload = count { name run(cells) }                          arrays
//	          count { name varint(levels) varint(slots) run(slots) }  trees
//	          count { name varint(epoch) varint(dirty) }         non-root marks
//
// each table in ascending name order, so equal states are equal bytes. Header
// integers are little-endian. The CRC covers the epoch and dirty header
// fields followed by the payload — a flipped epoch must not verify, or a
// resumed client could pass the epoch-match check against the wrong state.
// The rest of the header is validated structurally (magic, sane length). Any
// truncation, bit flip, or shape violation surfaces as ErrCorruptSnapshot —
// never a raw decode error and never a panic — so callers can classify it as
// fatal (see DefaultRetryable).

// snapshotMagic identifies the framed snapshot format. Version bumps change
// the trailing digit so a binary of another version fails loudly instead of
// misparsing; there is no migration, and the gob-era OFDSNAP2 is refused by
// name.
var snapshotMagic = [8]byte{'O', 'F', 'D', 'S', 'N', 'A', 'P', '3'}

// maxSnapshotPayload bounds the declared payload length so a corrupted
// header cannot trigger a huge allocation before the CRC check.
const maxSnapshotPayload = 1 << 40

// snapshot is the decoded form of a server's storage: its objects, and the
// recovery marks of every non-root namespace (the root namespace's mark
// rides in the framed header). Marks live inside the CRC-covered payload, so
// a flipped tenant epoch fails verification exactly like a flipped root
// epoch.
type snapshot struct {
	Objects map[string]*object
	Marks   map[string]markSnapshot
}

// markSnapshot is one namespace's recovery mark.
type markSnapshot struct {
	Epoch int64
	Dirty int64
}

// SaveSnapshot serializes all storage objects to w. Trace state and the
// reveal log are not part of the snapshot; the recovery epoch and dirty
// counter are, so a restart restores the resume-consistency check too.
func (s *Server) SaveSnapshot(w io.Writer) error {
	s.mu.RLock()
	snap := snapshot{Objects: s.objects, Marks: make(map[string]markSnapshot, len(s.marks))}
	var epoch, dirty int64
	for db, m := range s.marks {
		if db == "" {
			epoch, dirty = m.epoch, m.dirty
			continue
		}
		snap.Marks[db] = markSnapshot{Epoch: m.epoch, Dirty: m.dirty}
	}
	// Encode under the lock: the snapshot shares the live objects.
	payload := snap.encode()
	s.mu.RUnlock()
	return writeSnapshotStream(w, epoch, dirty, payload)
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// encode renders the payload.
func (sn *snapshot) encode() []byte {
	// One allocation for the whole payload: growing by doubling would leave
	// up to the snapshot's size again in garbage.
	size := 3 * binary.MaxVarintLen64
	var arrays, trees []string
	for _, name := range sortedKeys(sn.Objects) {
		o := sn.Objects[name]
		size += wire.SizeBytes(len(name)) + wire.SizeRun(o.cells)
		if o.levels == 0 {
			arrays = append(arrays, name)
		} else {
			trees = append(trees, name)
			size += 2 * binary.MaxVarintLen64
		}
	}
	for db := range sn.Marks {
		size += wire.SizeBytes(len(db)) + 2*binary.MaxVarintLen64
	}
	b := make([]byte, 0, size)
	b = binary.AppendUvarint(b, uint64(len(arrays)))
	for _, name := range arrays {
		b = wire.PutString(b, name)
		b = wire.PutRun(b, sn.Objects[name].cells)
	}
	b = binary.AppendUvarint(b, uint64(len(trees)))
	for _, name := range trees {
		t := sn.Objects[name]
		b = wire.PutString(b, name)
		b = binary.AppendVarint(b, int64(t.levels))
		b = binary.AppendVarint(b, int64(t.slots))
		b = wire.PutRun(b, t.cells)
	}
	b = binary.AppendUvarint(b, uint64(len(sn.Marks)))
	for _, db := range sortedKeys(sn.Marks) {
		m := sn.Marks[db]
		b = wire.PutString(b, db)
		b = binary.AppendVarint(b, m.Epoch)
		b = binary.AppendVarint(b, m.Dirty)
	}
	return b
}

// decodeSnapshot parses a payload whose CRC already verified into live
// objects, validating every tree's shape. Every stored ciphertext gets its
// own allocation: the server keeps them cell by cell. Checksums are not
// persisted: the frame's CRC already vouches for the bytes read here, so
// recomputing per-cell sums from them re-establishes the in-memory integrity
// baseline the scrubber verifies against.
func decodeSnapshot(payload []byte) (*snapshot, error) {
	r := wire.NewReader(payload)
	sn := &snapshot{
		Objects: make(map[string]*object),
		Marks:   make(map[string]markSnapshot),
	}
	add := func(name string, o *object) {
		if _, dup := sn.Objects[name]; dup {
			r.Fail("object %q appears twice", name)
		}
		sn.Objects[name] = o
	}
	for n := r.Count(); n > 0 && r.Err() == nil; n-- {
		add(r.String(), &object{cells: r.Run(false)})
	}
	for n := r.Count(); n > 0 && r.Err() == nil; n-- {
		name := r.String()
		t := &object{levels: r.Int(), slots: r.Int(), cells: r.Run(false)}
		if r.Err() != nil {
			break // no shape to check
		}
		if want, err := treeCells(t.levels, t.slots); err != nil {
			r.Fail("tree %q: %v", name, err)
		} else if len(t.cells) != want {
			r.Fail("tree %q has %d slots, want %d", name, len(t.cells), want)
		}
		add(name, t)
	}
	for n := r.Count(); n > 0 && r.Err() == nil; n-- {
		db := r.String()
		if _, dup := sn.Marks[db]; dup {
			r.Fail("namespace %q marked twice", db)
		}
		sn.Marks[db] = markSnapshot{Epoch: r.Varint(), Dirty: r.Varint()}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	for _, o := range sn.Objects {
		o.sums = make([]uint32, len(o.cells))
		for i, c := range o.cells {
			o.bytes += int64(len(c))
			o.sums[i] = cellSum(c)
		}
	}
	return sn, nil
}

func writeSnapshotStream(w io.Writer, epoch, dirty int64, payload []byte) error {
	header := make([]byte, 8+8+8+8+4)
	copy(header, snapshotMagic[:])
	binary.LittleEndian.PutUint64(header[8:], uint64(epoch))
	binary.LittleEndian.PutUint64(header[16:], uint64(dirty))
	binary.LittleEndian.PutUint64(header[24:], uint64(len(payload)))
	crc := crc32.NewIEEE()
	crc.Write(header[8:24]) // epoch | dirty
	crc.Write(payload)
	binary.LittleEndian.PutUint32(header[32:], crc.Sum32())
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("store: writing snapshot header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("store: writing snapshot payload: %w", err)
	}
	return nil
}

// readSnapshotStream parses and validates a framed snapshot. Every failure
// mode — short read, bad magic, CRC mismatch, payload that does not decode,
// shape violations — wraps ErrCorruptSnapshot.
func readSnapshotStream(r io.Reader) (epoch, dirty int64, snap *snapshot, err error) {
	header := make([]byte, 8+8+8+8+4)
	if _, rerr := io.ReadFull(r, header); rerr != nil {
		return 0, 0, nil, fmt.Errorf("%w: short header: %v", ErrCorruptSnapshot, rerr)
	}
	if !bytes.Equal(header[:8], snapshotMagic[:]) {
		if string(header[:8]) == "OFDSNAP2" {
			return 0, 0, nil, fmt.Errorf("%w: format OFDSNAP2 (gob payload) is not readable by this build, which reads only %s",
				ErrCorruptSnapshot, snapshotMagic[:])
		}
		return 0, 0, nil, fmt.Errorf("%w: bad magic %q", ErrCorruptSnapshot, header[:8])
	}
	epoch = int64(binary.LittleEndian.Uint64(header[8:]))
	dirty = int64(binary.LittleEndian.Uint64(header[16:]))
	plen := binary.LittleEndian.Uint64(header[24:])
	want := binary.LittleEndian.Uint32(header[32:])
	if plen > maxSnapshotPayload {
		return 0, 0, nil, fmt.Errorf("%w: implausible payload length %d", ErrCorruptSnapshot, plen)
	}
	// Read incrementally: a corrupted length field must not provoke a huge
	// up-front allocation — a short stream fails here after reading only
	// what actually exists.
	payload, rerr := wire.AppendN(r, nil, plen)
	if rerr != nil {
		return 0, 0, nil, fmt.Errorf("%w: short payload (%d of %d bytes): %v", ErrCorruptSnapshot, len(payload), plen, rerr)
	}
	crc := crc32.NewIEEE()
	crc.Write(header[8:24]) // epoch | dirty
	crc.Write(payload)
	if got := crc.Sum32(); got != want {
		return 0, 0, nil, fmt.Errorf("%w: CRC mismatch (got %08x, want %08x)", ErrCorruptSnapshot, got, want)
	}
	snap, derr := decodeSnapshot(payload)
	if derr != nil {
		return 0, 0, nil, fmt.Errorf("%w: %v", ErrCorruptSnapshot, derr)
	}
	return epoch, dirty, snap, nil
}

// LoadSnapshot replaces the server's storage with the snapshot read from r.
// Truncated or corrupted input returns an error wrapping ErrCorruptSnapshot
// (check with errors.Is) and leaves the server's current state untouched.
func (s *Server) LoadSnapshot(r io.Reader) error {
	epoch, dirty, snap, err := readSnapshotStream(r)
	if err != nil {
		return err
	}
	marks := make(map[string]*nsMark, len(snap.Marks)+1)
	if epoch != 0 || dirty != 0 {
		marks[""] = &nsMark{epoch: epoch, dirty: dirty}
	}
	for db, m := range snap.Marks {
		if db == "" {
			return fmt.Errorf("%w: root mark duplicated in payload", ErrCorruptSnapshot)
		}
		if !ValidDBName(db) {
			return fmt.Errorf("%w: invalid namespace %q in marks", ErrCorruptSnapshot, db)
		}
		marks[db] = &nsMark{epoch: m.Epoch, dirty: m.Dirty}
	}
	s.mu.Lock()
	s.objects = snap.Objects
	s.marks = marks
	s.mu.Unlock()
	return nil
}

// IsCorrupt reports whether err indicates unrecoverable on-disk corruption
// (snapshot or WAL). Exposed for operators scripting recovery decisions.
func IsCorrupt(err error) bool {
	return errors.Is(err, ErrCorruptSnapshot) || errors.Is(err, ErrCorruptWAL)
}
