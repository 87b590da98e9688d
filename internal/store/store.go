// Package store implements the server S: named encrypted storage objects
// (flat ciphertext arrays for the sorting protocol, bucket trees for
// PathORAM) plus the persistent adversary's trace recorder. The server never
// holds a key; everything it stores is ciphertext produced by the client.
package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"github.com/oblivfd/oblivfd/internal/trace"
)

// Common storage errors.
var (
	ErrUnknownObject = errors.New("store: unknown object")
	ErrObjectExists  = errors.New("store: object already exists")
	ErrOutOfRange    = errors.New("store: index out of range")
	ErrBadPath       = errors.New("store: malformed path payload")

	// ErrTransient marks an injected or otherwise momentary failure: the
	// operation did not necessarily apply, but repeating it is expected to
	// succeed. WithFaults produces it; WithRetry retries on it.
	ErrTransient = errors.New("store: transient fault")
	// ErrUnavailable marks a connection-level failure (dial refused,
	// connection reset, deadline exceeded) or a failover: the transport sent
	// the call at most once and re-dials on the next one. WithRetry retries
	// on it.
	ErrUnavailable = errors.New("store: service unavailable")

	// ErrIntegrity marks data that failed client-side verification: an
	// AEAD authentication failure, a stale or replayed ORAM block, a
	// version-tag or epoch-tag mismatch, a corrupt WAL frame or snapshot.
	// The data is wrong, not the network, so it is fatal — WithRetry never
	// retries it — and discovery aborts with the location that tripped it.
	ErrIntegrity = errors.New("store: integrity verification failed")

	// ErrCorruptSnapshot marks a snapshot stream that cannot be restored:
	// truncated, bit-flipped, or semantically inconsistent. It is an
	// integrity failure (errors.Is(err, ErrIntegrity) holds) and fatal —
	// retrying the identical load cannot succeed — so the retry classifier
	// treats it as non-retryable.
	ErrCorruptSnapshot error = &integrityError{"store: corrupt snapshot"}
	// ErrCorruptWAL marks a write-ahead log whose surviving prefix cannot
	// be applied to the snapshot it extends (a torn *tail* is expected
	// after a crash and silently truncated; this error means corruption
	// before the tail). An integrity failure, fatal like
	// ErrCorruptSnapshot.
	ErrCorruptWAL error = &integrityError{"store: corrupt write-ahead log"}
	// ErrServerKilled is returned by a durable server whose crash-injection
	// kill point fired: the simulated process is dead and every further
	// call fails until the data directory is re-opened. Fatal by
	// construction — retrying against a dead process cannot succeed.
	ErrServerKilled = errors.New("store: server killed (crash injection)")
	// ErrNoSuchEpoch is returned by OpenDirAtEpoch when no retained
	// snapshot matches the requested recovery epoch.
	ErrNoSuchEpoch = errors.New("store: no snapshot for requested epoch")

	// ErrDiskFull is returned when the durable backend cannot append to its
	// WAL or write a snapshot because the disk is out of space. The write
	// did not become durable (it is parked and re-appended once space
	// frees), so the server sheds it while reads continue — degraded
	// read-only mode. Retryable: freeing space (compaction, pruning, an
	// operator) makes the identical request succeed.
	ErrDiskFull = errors.New("store: disk full")

	// ErrNotPrimary is returned by a replica asked to serve client
	// operations: only the primary may read or mutate, because the client's
	// ORAM state is coupled to a single linearized history. Not retryable
	// against the same server — the failover layer rotates to another one.
	ErrNotPrimary = errors.New("store: not the primary")
	// ErrFenced is returned by a server that has been fenced off: it held
	// (or believed it held) the primary role under an older fencing epoch
	// and has since learned of a higher one. A fenced server refuses every
	// client operation — accepting even one write would fork the history a
	// promoted replica continued. Fatal at the issuing server; the failover
	// layer treats it as "find the real primary".
	ErrFenced = errors.New("store: fenced by a newer primary epoch")
)

// CorruptCellsError reports stored ciphertexts that failed their
// server-side checksum: latent corruption (bit rot) in the live store, as
// opposed to tampering the client's AEAD layer detects end-to-end. It
// matches ErrIntegrity under errors.Is; the self-healing layer additionally
// uses the location to fetch authoritative bytes from a healthy replica and
// rewrite in place (see scrub.go), so the error reaches a client only when
// no healthy copy exists.
type CorruptCellsError struct {
	Object string
	Idx    []int64 // corrupt cell positions (a tree's slots counted flat)
}

func (e *CorruptCellsError) Error() string {
	return fmt.Sprintf("store: integrity verification failed: %q: %d stored cells failed checksum (first at %d)",
		e.Object, len(e.Idx), e.Idx[0])
}

func (e *CorruptCellsError) Is(target error) bool { return target == ErrIntegrity }

// integrityError is a named sentinel that additionally matches ErrIntegrity
// under errors.Is, so callers can branch on the specific failure
// (ErrCorruptSnapshot vs ErrCorruptWAL) or on the whole integrity class with
// one check.
type integrityError struct{ msg string }

func (e *integrityError) Error() string { return e.msg }

func (e *integrityError) Is(target error) bool { return target == ErrIntegrity }

// Stats summarizes server-side resource usage; it backs the storage columns
// of Table II and Fig. 5. The fault-tolerance counters are contributed by
// the decorator layers as a Stats call passes through them: WithFaults adds
// FaultsInjected, WithRetry adds Retries, and the TCP client/pool add
// Reconnects — so one Stats() call on the outermost service reports the
// whole stack.
type Stats struct {
	Objects     int   // number of live storage objects
	StoredBytes int64 // total ciphertext bytes currently stored

	FaultsInjected int64 // transient errors injected by WithFaults
	Retries        int64 // re-attempts performed by WithRetry
	Reconnects     int64 // TCP re-dials

	// Epoch is the most recent recovery epoch the client marked via
	// Checkpoint, and MutationsSinceEpoch counts mutating operations
	// applied after that mark. A client resuming from a checkpoint file
	// requires Epoch to match and MutationsSinceEpoch to be zero —
	// otherwise its stash/position map no longer describes the server's
	// trees. Both flow over the wire so the check works on any transport.
	Epoch               int64
	MutationsSinceEpoch int64

	// Replication state, contributed by a ReplicatedServer. Primary reports
	// whether this server currently holds the primary role; Fence is its
	// fencing epoch; ReplicaLag is the primary-side count of shipped records
	// the slowest configured replica has not acknowledged; Watermark is the
	// replica-side count of replication records applied this reign (the
	// failover layer promotes the freshest reachable replica). Failovers is
	// added client-side by a FailoverPool.
	Primary    bool
	Fence      int64
	ReplicaLag int64
	Watermark  int64
	Failovers  int64
}

// Service is the full server-side surface the client can invoke. Both the
// in-process and TCP transports expose exactly this interface, so protocol
// code is transport-agnostic.
type Service interface {
	// CreateArray allocates a flat array of n empty cells.
	CreateArray(name string, n int) error
	// ArrayLen returns the number of cells in an array.
	ArrayLen(name string) (int, error)
	// ReadCells returns the ciphertexts at the given indices.
	ReadCells(name string, idx []int64) ([][]byte, error)
	// WriteCells replaces the ciphertexts at the given indices.
	WriteCells(name string, idx []int64, cts [][]byte) error
	// CreateTree allocates a complete binary bucket tree with the given
	// number of levels (root..leaves) and slots per bucket; every slot
	// starts empty and is populated by client writes.
	CreateTree(name string, levels, slotsPerBucket int) error
	// ReadPath returns the slots of all buckets on the root→leaf path,
	// root first.
	ReadPath(name string, leaf uint32) ([][]byte, error)
	// WritePath replaces the slots of all buckets on the root→leaf path.
	// len(slots) must equal levels × slotsPerBucket.
	WritePath(name string, leaf uint32, slots [][]byte) error
	// WriteBuckets bulk-replaces the slots of the contiguous bucket range
	// starting at bucketStart (heap order, root = 0). It exists so ORAM
	// setup can populate the whole tree with encrypted dummies in one
	// linear pass rather than N overlapping path writes.
	WriteBuckets(name string, bucketStart int, slots [][]byte) error
	// Delete removes an object and frees its storage.
	Delete(name string) error
	// Reveal logs a deliberately public value (a result bit or an FD id).
	// It exists so the adversary's trace contains exactly the allowed
	// leakage L(DB) and nothing else.
	Reveal(tag string, value int64) error
	// Checkpoint marks a client recovery epoch. A durable backend makes
	// everything up to this point crash-safe (snapshot + WAL compaction)
	// before returning; the in-memory server just records the mark. The
	// epoch value and its timing are public — they reveal only how far
	// the levelwise traversal has progressed, which L(DB) already
	// includes via the reveal log.
	Checkpoint(epoch int64) error
	// Stats reports storage accounting.
	Stats() (Stats, error)
}

// Server is the in-memory reference implementation of Service. It is safe
// for concurrent use; the parallel sorting driver issues overlapping
// ReadCells/WriteCells on disjoint indices.
//
// Recovery marks are tracked per database namespace (see NamespaceOf): each
// tenant checkpoints its own epoch, and a tenant's MutationsSinceEpoch counts
// only that tenant's writes — another tenant's traffic must not invalidate a
// resuming client's consistency check. The root namespace "" is what
// un-prefixed (single-tenant) clients use, so Checkpoint/Stats keep their
// historical meaning.
type Server struct {
	mu      sync.RWMutex
	objects map[string]*object
	rec     *trace.Recorder
	reveals []Reveal
	marks   map[string]*nsMark // recovery marks keyed by namespace
}

// nsMark is one namespace's recovery state: the last client-marked epoch and
// the count of mutations applied in that namespace since the mark.
type nsMark struct {
	epoch int64
	dirty int64
}

// Reveal is one logged public disclosure.
type Reveal struct {
	Tag   string
	Value int64
}

// object is one stored object: a run of ciphertext cells. An array has
// levels 0. A bucket tree of levels levels keeps its 2^levels − 1 buckets in
// heap order (root = 0), slots cells each, so bucket b is cells
// [b·slots, (b+1)·slots). The Service methods check that a cell op names an
// array and a path op a tree; everything under them addresses cells by flat
// position, whatever the shape.
//
// Every cell carries a CRC-32C, maintained on every write, checked on every
// read and scrub pass, and never persisted. The server holds no keys, so
// this is not a substitute for the client's AEAD verification — it is how
// the server itself notices latent corruption (bit rot) early enough to
// repair from a replica instead of serving bytes the client will fatally
// reject.
type object struct {
	cells  [][]byte
	sums   []uint32
	bytes  int64
	levels int // 0 for an array
	slots  int // per bucket
}

func newObject(cells, levels, slots int) *object {
	return &object{cells: make([][]byte, cells), sums: make([]uint32, cells), levels: levels, slots: slots}
}

// kind names the object's shape in errors.
func (o *object) kind() string {
	if o.levels == 0 {
		return "array"
	}
	return "tree"
}

// get returns the cells at positions idx and the positions among them whose
// checksum fails, in the order asked. A position out of range refuses the
// whole read.
func (o *object) get(name string, idx []int64) (out [][]byte, bad []int64, err error) {
	out = make([][]byte, len(idx))
	for k, i := range idx {
		if i < 0 || i >= int64(len(o.cells)) {
			return nil, nil, o.outOfRange(name, i)
		}
		if cellSum(o.cells[i]) != o.sums[i] {
			bad = append(bad, i)
		}
		out[k] = o.cells[i]
	}
	return out, bad, nil
}

// put replaces cell at(k) with cts[k] for each of the n positions at names,
// keeping the checksums and the byte count. It checks every position before
// it writes any, so a refused write changes nothing. It is the one routine
// that writes a cell.
func (o *object) put(name string, n int, at func(k int) int64, cts [][]byte) error {
	if n != len(cts) {
		return fmt.Errorf("store: writing %s %q: %d indices, %d ciphertexts", o.kind(), name, n, len(cts))
	}
	for k := range cts {
		if i := at(k); i < 0 || i >= int64(len(o.cells)) {
			return o.outOfRange(name, i)
		}
	}
	for k, ct := range cts {
		i := at(k)
		o.bytes += int64(len(ct) - len(o.cells[i]))
		o.cells[i] = ct
		o.sums[i] = cellSum(ct)
	}
	return nil
}

func (o *object) outOfRange(name string, i int64) error {
	return fmt.Errorf("%w: %s %q index %d (len %d)", ErrOutOfRange, o.kind(), name, i, len(o.cells))
}

// runBytes is the ciphertext bytes of cts.
func runBytes(cts [][]byte) (n int) {
	for _, ct := range cts {
		n += len(ct)
	}
	return n
}

// castagnoli is the CRC-32C table. On amd64 Go computes CRC-32C with the
// SSE 4.2 instruction at any length, where IEEE falls back to slicing-by-8
// below 64 bytes — the size of most cells.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// cellSum is the stored-cell checksum, CRC-32C. It lives in memory only (a
// snapshot load recomputes it), so its polynomial is no part of any format;
// the WAL, snapshot and checkpoint CRCs are IEEE. An empty or never-written
// cell sums to 0, which the CRC also assigns to the empty payload —
// consistent.
func cellSum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// NewServer returns an empty server with trace counting active.
func NewServer() *Server {
	return &Server{
		objects: make(map[string]*object),
		rec:     trace.NewRecorder(),
		marks:   make(map[string]*nsMark),
	}
}

// Trace exposes the adversary's recorder.
func (s *Server) Trace() *trace.Recorder { return s.rec }

// markLocked returns the recovery mark for a namespace, creating it on first
// use. Callers hold s.mu.
func (s *Server) markLocked(db string) *nsMark {
	m, ok := s.marks[db]
	if !ok {
		m = &nsMark{}
		s.marks[db] = m
	}
	return m
}

// bumpLocked counts one mutation against the namespace that owns the object.
// Callers hold s.mu.
func (s *Server) bumpLocked(name string) {
	s.markLocked(NamespaceOf(name)).dirty++
}

// objectLocked returns the named object. A Service method passes the kind it
// operates on ("array" or "tree"): a cell op on a tree, or a path op on an
// array, names no object it knows. Maintenance passes "" and takes either.
// Callers hold s.mu.
func (s *Server) objectLocked(name, kind string) (*object, error) {
	if o, ok := s.objects[name]; ok && (kind == "" || o.kind() == kind) {
		return o, nil
	}
	if kind == "" {
		return nil, fmt.Errorf("%w: %q", ErrUnknownObject, name)
	}
	return nil, fmt.Errorf("%w: %s %q", ErrUnknownObject, kind, name)
}

// Reveals returns the public values the client has disclosed, oldest first.
func (s *Server) Reveals() []Reveal {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Reveal(nil), s.reveals...)
}

// maxCells bounds the cells of one object (an array's cells, a tree's
// slots), and maxLevels a tree's depth: a leaf is numbered by a uint32.
const (
	maxCells  = 1 << 32
	maxLevels = 33
)

// treeCells is the tree shape check, whether a client's create asks for the
// shape or a snapshot holds it: the cells a tree of levels × slots per bucket
// holds, counted without overflow, or an error wrapping ErrOutOfRange.
func treeCells(levels, slots int) (int, error) {
	if levels < 1 || levels > maxLevels || slots < 1 {
		return 0, fmt.Errorf("%w: tree of %d levels × %d slots (1 to %d levels, at least 1 slot)", ErrOutOfRange, levels, slots, maxLevels)
	}
	buckets := 1<<levels - 1
	if slots > maxCells/buckets {
		return 0, fmt.Errorf("%w: tree of %d buckets × %d slots exceeds %d slots", ErrOutOfRange, buckets, slots, maxCells)
	}
	return buckets * slots, nil
}

// create adds obj under a free name, counting the mutation and recording ev.
func (s *Server) create(name string, obj *object, ev trace.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.objects[name]; ok {
		return fmt.Errorf("%w: %s %q", ErrObjectExists, old.kind(), name)
	}
	s.objects[name] = obj
	s.bumpLocked(name)
	s.rec.Record(ev)
	return nil
}

// CreateArray implements Service.
func (s *Server) CreateArray(name string, n int) error {
	if n < 0 || n > maxCells {
		return fmt.Errorf("store: array %q: %w: array of %d cells (0 to %d)", name, ErrOutOfRange, n, maxCells)
	}
	return s.create(name, newObject(n, 0, 0), trace.Event{Op: trace.OpCreateArray, Object: name, Index: int64(n)})
}

// ArrayLen implements Service.
func (s *Server) ArrayLen(name string) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	a, err := s.objectLocked(name, "array")
	if err != nil {
		return 0, err
	}
	return len(a.cells), nil
}

// ReadCells implements Service.
func (s *Server) ReadCells(name string, idx []int64) ([][]byte, error) {
	s.mu.RLock()
	a, err := s.objectLocked(name, "array")
	var out [][]byte
	var bad []int64
	if err == nil {
		out, bad, err = a.get(name, idx)
	}
	s.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	if len(bad) > 0 {
		return nil, &CorruptCellsError{Object: name, Idx: bad}
	}
	s.rec.RecordCells(trace.OpReadCell, name, idx, out)
	return out, nil
}

// WriteCells implements Service.
func (s *Server) WriteCells(name string, idx []int64, cts [][]byte) error {
	s.mu.Lock()
	a, err := s.objectLocked(name, "array")
	if err == nil {
		err = a.put(name, len(idx), func(k int) int64 { return idx[k] }, cts)
	}
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.bumpLocked(name)
	s.mu.Unlock()
	s.rec.RecordCells(trace.OpWriteCell, name, idx, cts)
	return nil
}

// CreateTree implements Service.
func (s *Server) CreateTree(name string, levels, slotsPerBucket int) error {
	cells, err := treeCells(levels, slotsPerBucket)
	if err != nil {
		return fmt.Errorf("store: tree %q: %w", name, err)
	}
	return s.create(name, newObject(cells, levels, slotsPerBucket), trace.Event{Op: trace.OpCreateTree, Object: name, Index: int64(levels)})
}

// pathCells returns the positions of the cells of every bucket on the
// root→leaf path, root first (so ascending).
func (o *object) pathCells(leaf uint32) ([]int64, error) {
	numLeaves := 1 << (o.levels - 1)
	if int(leaf) >= numLeaves {
		return nil, fmt.Errorf("%w: leaf %d (have %d leaves)", ErrOutOfRange, leaf, numLeaves)
	}
	idx := make([]int64, o.levels*o.slots)
	node := numLeaves - 1 + int(leaf) // leaf node index in heap layout
	for l := o.levels - 1; l >= 0; l-- {
		for j := 0; j < o.slots; j++ {
			idx[l*o.slots+j] = int64(node*o.slots + j)
		}
		node = (node - 1) / 2
	}
	return idx, nil
}

// ReadPath implements Service.
func (s *Server) ReadPath(name string, leaf uint32) ([][]byte, error) {
	s.mu.RLock()
	t, err := s.objectLocked(name, "tree")
	if err != nil {
		s.mu.RUnlock()
		return nil, err
	}
	idx, err := t.pathCells(leaf)
	if err != nil {
		s.mu.RUnlock()
		return nil, fmt.Errorf("store: ReadPath(%q): %w", name, err)
	}
	out, bad, _ := t.get(name, idx) // a path's positions are in range
	s.mu.RUnlock()
	if len(bad) > 0 {
		return nil, &CorruptCellsError{Object: name, Idx: bad}
	}
	s.rec.Record(trace.Event{Op: trace.OpReadPath, Object: name, Index: int64(leaf), Bytes: runBytes(out)})
	return out, nil
}

// WritePath implements Service.
func (s *Server) WritePath(name string, leaf uint32, slots [][]byte) error {
	s.mu.Lock()
	t, err := s.objectLocked(name, "tree")
	if err != nil {
		s.mu.Unlock()
		return err
	}
	idx, err := t.pathCells(leaf)
	if err != nil {
		s.mu.Unlock()
		return fmt.Errorf("store: WritePath(%q): %w", name, err)
	}
	if len(slots) != len(idx) {
		s.mu.Unlock()
		return fmt.Errorf("%w: tree %q: got %d slots, want %d", ErrBadPath, name, len(slots), len(idx))
	}
	_ = t.put(name, len(idx), func(k int) int64 { return idx[k] }, slots) // a path's positions are in range
	s.bumpLocked(name)
	s.mu.Unlock()
	s.rec.Record(trace.Event{Op: trace.OpWritePath, Object: name, Index: int64(leaf), Bytes: runBytes(slots)})
	return nil
}

// WriteBuckets implements Service.
func (s *Server) WriteBuckets(name string, bucketStart int, slots [][]byte) error {
	s.mu.Lock()
	t, err := s.objectLocked(name, "tree")
	if err != nil {
		s.mu.Unlock()
		return err
	}
	if len(slots)%t.slots != 0 {
		s.mu.Unlock()
		return fmt.Errorf("%w: tree %q: %d slots not a multiple of bucket size %d", ErrBadPath, name, len(slots), t.slots)
	}
	// Compared in buckets: bucketStart × slots may not fit an int.
	n := len(slots) / t.slots
	if bucketStart < 0 || bucketStart > len(t.cells)/t.slots-n {
		s.mu.Unlock()
		return fmt.Errorf("%w: tree %q: bucket range [%d,+%d)", ErrOutOfRange, name, bucketStart, n)
	}
	first := int64(bucketStart * t.slots)
	_ = t.put(name, len(slots), func(k int) int64 { return first + int64(k) }, slots) // the range is checked above
	s.bumpLocked(name)
	s.mu.Unlock()
	s.rec.Record(trace.Event{Op: trace.OpWriteBucket, Object: name, Index: int64(bucketStart), Bytes: runBytes(slots)})
	return nil
}

// Delete implements Service.
func (s *Server) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objects[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownObject, name)
	}
	delete(s.objects, name)
	s.bumpLocked(name)
	s.rec.Record(trace.Event{Op: trace.OpDelete, Object: name})
	return nil
}

// Reveal implements Service.
func (s *Server) Reveal(tag string, value int64) error {
	s.mu.Lock()
	s.reveals = append(s.reveals, Reveal{Tag: tag, Value: value})
	s.mu.Unlock()
	s.rec.Record(trace.Event{Op: trace.OpReveal, Object: tag, Index: value})
	return nil
}

// Checkpoint implements Service: it records the epoch mark and zeroes the
// mutation counter for the root namespace. Durability is the durable
// backend's job; the in-memory server only supports the resume-consistency
// check in Stats.
func (s *Server) Checkpoint(epoch int64) error {
	return s.CheckpointNS("", epoch)
}

// CheckpointNS implements NamespaceService: it marks a recovery epoch for one
// database namespace, leaving every other tenant's mark untouched.
func (s *Server) CheckpointNS(db string, epoch int64) error {
	s.mu.Lock()
	m := s.markLocked(db)
	m.epoch = epoch
	m.dirty = 0
	s.mu.Unlock()
	s.rec.Record(trace.Event{Op: trace.OpCheckpoint, Object: db, Index: epoch})
	return nil
}

// Epoch returns the root namespace's last client-marked recovery epoch.
func (s *Server) Epoch() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if m, ok := s.marks[""]; ok {
		return m.epoch
	}
	return 0
}

// Stats implements Service: server-wide object and byte totals, with the
// recovery mark of the root namespace (the one un-prefixed clients write to).
func (s *Server) Stats() (Stats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{Objects: len(s.objects)}
	for _, o := range s.objects {
		st.StoredBytes += o.bytes
	}
	if m, ok := s.marks[""]; ok {
		st.Epoch = m.epoch
		st.MutationsSinceEpoch = m.dirty
	}
	return st, nil
}

// StatsNS implements NamespaceService: accounting restricted to one database
// namespace — only that tenant's objects, bytes, and recovery mark. A tenant
// therefore learns nothing about its neighbors from Stats, and its
// MutationsSinceEpoch check stays sound while other tenants keep writing.
func (s *Server) StatsNS(db string) (Stats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var st Stats
	for name, o := range s.objects {
		if NamespaceOf(name) == db {
			st.Objects++
			st.StoredBytes += o.bytes
		}
	}
	if m, ok := s.marks[db]; ok {
		st.Epoch = m.epoch
		st.MutationsSinceEpoch = m.dirty
	}
	return st, nil
}

// ObjectNames returns every live object name, sorted. The scrubber sweeps
// them in this fixed order so its access pattern is a function of the public
// structure only (DESIGN.md §15).
func (s *Server) ObjectNames() []string {
	s.mu.RLock()
	names := sortedKeys(s.objects)
	s.mu.RUnlock()
	return names
}

// ObjectExtent reports how many cells an object stores: an array's cells, or
// a tree's slots.
func (s *Server) ObjectExtent(name string) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, err := s.objectLocked(name, "")
	if err != nil {
		return 0, err
	}
	return len(o.cells), nil
}

// VerifyStored checks the checksums of the cells [lo, hi) and returns the
// corrupt positions (nil when clean). Verification holds only the read lock
// and records nothing in the adversary trace: the scrubber is the server
// inspecting its own memory, not a client access.
func (s *Server) VerifyStored(name string, lo, hi int) (bad []int64, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, err := s.objectLocked(name, "")
	if err != nil {
		return nil, err
	}
	if lo < 0 || hi > len(o.cells) || lo > hi {
		return nil, fmt.Errorf("%w: %q range [%d,%d) of %d", ErrOutOfRange, name, lo, hi, len(o.cells))
	}
	for i := lo; i < hi; i++ {
		if cellSum(o.cells[i]) != o.sums[i] {
			bad = append(bad, int64(i))
		}
	}
	return bad, nil
}

// StoredVerified returns the ciphertexts at the given positions after
// re-verifying their checksums — the donor side of repair-from-replica: a
// peer must never serve bytes its own store has rotted. Like VerifyStored it
// records no trace events.
func (s *Server) StoredVerified(name string, idx []int64) ([][]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, err := s.objectLocked(name, "")
	if err != nil {
		return nil, err
	}
	out, bad, err := o.get(name, idx)
	if err != nil {
		return nil, err
	}
	if len(bad) > 0 {
		return nil, &CorruptCellsError{Object: name, Idx: bad}
	}
	return out, nil
}

// InstallStored rewrites the given positions with repaired ciphertexts,
// updating checksums. A repair re-establishes bytes the object logically
// already held, so it bumps no namespace dirty counter (a resuming client's
// MutationsSinceEpoch check must not trip on a background repair) and
// records no adversary-trace event (the canonical client trace is unchanged
// by self-healing; the repair itself is visible to the adversary through the
// replication view, which DESIGN.md §15 argues leaks nothing new).
func (s *Server) InstallStored(name string, idx []int64, cts [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, err := s.objectLocked(name, "")
	if err != nil {
		return err
	}
	return o.put(name, len(idx), func(k int) int64 { return idx[k] }, cts)
}

// CorruptStored flips one bit of a stored ciphertext without touching its
// checksum — the bit-rot injection the scrub/repair harness uses. It fails
// if the cell is empty (there is no byte to flip). Injection only; never
// called outside tests and the chaos/bench harnesses.
func (s *Server) CorruptStored(name string, i int64, bit uint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, err := s.objectLocked(name, "")
	if err != nil {
		return err
	}
	if i < 0 || i >= int64(len(o.cells)) {
		return o.outOfRange(name, i)
	}
	if len(o.cells[i]) == 0 {
		return fmt.Errorf("store: CorruptStored: %q cell %d is empty", name, i)
	}
	// Copy-on-rot: the stored slice may alias a buffer a reader still holds.
	rotted := append([]byte(nil), o.cells[i]...)
	rotted[int(bit/8)%len(rotted)] ^= 1 << (bit % 8)
	o.cells[i] = rotted
	return nil
}
