// Package oram implements the non-recursive PathORAM of Stefanov et al.
// (JACM 2018) with the key-value interface of the paper's Definition 4:
// Setup / Read / Write (plus Remove, needed by the dynamic protocol's
// Algorithm 5). The client keeps the position map and stash; the server
// stores an encrypted bucket tree via store.Service.
//
// Parameters follow the paper's evaluation (§VII-A): Z = 4 blocks per
// bucket and a stash capped at 7·⌈log₂ n⌉ blocks. Neither is an option.
//
// A handle is two halves. The placement kernel (placer, placement.go) holds
// no secret: it draws the leaves, lays out each round and decides which
// blocks go in which bucket, by slot number alone. The handle holds the
// secrets — keys, values, versions and the cipher — and everything that
// touches them: opening and checking buckets, the access's function,
// sealing, and the server calls.
//
// There is one access, Stefanov et al.'s Access(op, a, data*): fetch the
// key's path, hand the value found there (or its absence) to the caller's
// UpdateFunc, keep what that returns, write the path back. Read, Write and
// Remove are its three trivial functions, and Update gives a caller the
// general one — a read-modify-write for the price of a single access.
//
// Obliviousness: every access — whatever its function, hit or miss —
// reads and writes back the path to a uniformly random leaf, re-encrypting
// every bucket it writes. The server cannot distinguish the operations
// (Definition 4 requires Read and Write to be mutually indistinguishable).
//
// A Pipeline runs accesses in batches: r accesses to one tree fetch r paths,
// r independent uniform leaves whatever the keys, in one round, and write
// them back in the next (Stefanov et al., CCS 2013; Sahin et al.,
// "TaoStore", S&P 2016). A direct access is a batch of one, draw for draw the
// textbook access.
//
// A round is one cell read of the tree and, in the next round, one cell write
// of the same positions, laid out by the placement kernel (placer.lay;
// treetop rounds, DESIGN.md §11).
//
// The bucket is the unit of encryption, as in Stefanov et al.: a bucket's Z
// blocks — real and dummy side by side, each version(4) ∥ key length(1) ∥ key
// zero-filled to KeyWidth ∥ value, a dummy all zeros — are sealed as one
// ciphertext bound to the bucket's place in the tree, and the server stores
// one such ciphertext per bucket. Its length is Z·(5 + KeyWidth + ValueWidth)
// plus the AEAD's 28 bytes, a function of Config alone: how many of a
// bucket's blocks are real changes the plaintext's content, never its size.
// Setup fills the entire tree with sealed all-dummy buckets (SetupAll), so
// everything the server ever holds is a same-sized semantically secure
// ciphertext and path-read sizes are constant and carry nothing.
package oram

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/telemetry"
)

// ErrStashOverflow is returned when the stash exceeds its bound. With Z = 4
// this happens with negligible probability; seeing it indicates a bug or an
// adversarial workload outside the model.
var ErrStashOverflow = errors.New("oram: stash overflow")

// ErrValueWidth is returned when a written value does not match the ORAM's
// fixed value width.
var ErrValueWidth = errors.New("oram: value width mismatch")

// ErrKeyWidth is returned when a key exceeds the ORAM's fixed key width.
var ErrKeyWidth = errors.New("oram: key too long")

// ErrVersionWrap is returned by an access whose eviction would stamp a
// version, the handle's access count, past 2^32 − 1. Versions never wrap: a
// wrapped one would let an authentic copy from 2^32 accesses earlier pass for
// the current one (DESIGN.md §10).
var ErrVersionWrap = errors.New("oram: block version would wrap")

// A block is version(verWidth) ∥ key length(1) ∥ key, zero-filled to
// KeyWidth ∥ value. The version is the freshness tag a real block is stamped
// with when evicted, the handle's access count then: at least 1, and never
// the same for two evictions. A dummy is all zeros, version 0, so real and dummy
// plaintexts are the same length and no flag is needed.
const (
	verWidth    = 4
	blockHeader = verWidth + 1
)

// maxKeyWidth is the widest key a block's one-byte key length can name.
const maxKeyWidth = 255

// MaxCapacity is the largest Capacity Setup and Resume accept: a leaf, and
// every count below the capacity, fits 4 bytes.
const MaxCapacity = 1 << 32

// checkShape refuses a capacity or widths no handle can have.
func checkShape(name string, capacity, keyWidth, valueWidth int) error {
	if capacity < 1 || capacity > MaxCapacity || keyWidth < 1 || keyWidth > maxKeyWidth || valueWidth < 1 {
		return fmt.Errorf("oram %q: invalid shape: capacity %d (1 to 2^32), key width %d (1 to 255), value width %d (at least 1)",
			name, capacity, keyWidth, valueWidth)
	}
	return nil
}

// Config parameterizes Setup.
type Config struct {
	// Capacity is the maximum number of live key-value pairs (the paper's
	// n), at most MaxCapacity; it sets the tree's shape (shape).
	Capacity int
	// KeyWidth is the maximum key length in bytes, at most 255. All
	// blocks are padded to a common size derived from KeyWidth and
	// ValueWidth.
	KeyWidth int
	// ValueWidth is the exact value length in bytes; every stored value
	// must have this length so ciphertext sizes are data-independent.
	ValueWidth int
	// Seed seeds the leaf-choice RNG for reproducible tests; 0 draws a
	// random seed from crypto/rand.
	Seed int64
	// Metrics, when set, counts path reads/writes and accesses and tracks
	// the stash size across all ORAMs sharing the registry. Everything
	// observed (access counts, path sizes, stash occupancy) is part of the
	// construction's public behaviour, not the data (DESIGN.md §9).
	Metrics *telemetry.Registry
}

// ORAM is a client-side handle to one oblivious key-value store. It is not
// safe for concurrent use: the protocols access each ORAM sequentially
// (Algorithms 1–5 are sequential loops).
type ORAM struct {
	svc        store.Service
	cipher     *crypto.Cipher
	name       string
	capacity   int
	keyWidth   int
	valueWidth int
	blockSize  int

	// Client-held state: position map, stash, and freshness tags (§VII-C
	// discusses their O(n) memory cost), kept per live key in one slot.
	// index maps a live key to its slot; entries holds each slot's key and
	// version, values its valueWidth bytes, meaningful while the slot is
	// stashed; pl holds its leaf and stashed flag and the stash list. Slots
	// are dense: removing a key moves the last slot into its place.
	index   map[string]int32
	entries []entry
	values  []byte
	pl      placer

	// ad binds a bucket to its heap index in this tree (root = 0), as
	// "oram:<name>:<b>": a bucket authenticates only at its own place in its
	// own tree, so it can be transplanted neither between ORAMs sharing a key
	// nor within one.
	ad crypto.Place

	maxStash int
	accesses int64

	// cur is the batch in flight, between begin and end; a handle runs one
	// at a time, built by one pipeline (or one direct access). owedTo is the
	// pipeline holding the handle's last write-back until it lands, owed the
	// paths in it: only that pipeline may begin the next batch, whose fetches
	// it sends behind the write-back. failed, once set, refuses every further
	// access: a batch stopped after its paths were absorbed into the stash and
	// before its write-back reached the server leaves the two out of step for
	// good.
	cur    inflight
	owedTo *Pipeline
	owed   int
	failed error

	// idx is the round's bucket positions of the batch in flight (lay), and
	// owedIdx those of the write-back owed to a pipeline, which the next
	// batch's fetch is built beside.
	idx     []int64
	owedIdx []int64

	// Scratch reused across batches so the steady-state path read/write
	// loop allocates only what must escape: one ciphertext per bucket headed
	// for the server (a block entering the stash is copied into its slot).
	// Each ciphertext is its own allocation on purpose: the in-process server retains the
	// exact slices it is handed, and a leaf bucket outlives the root bucket
	// written beside it by about numLeaves accesses, so buckets carved from
	// one slab would pin the whole slab for as long as its longest-lived
	// member. The scratch is a constant per handle for a batch of one and grows
	// with the widest batch, outside ClientMemoryBytes, and another reason a
	// handle is not safe for concurrent use.
	openBuf []byte   // the bucket plaintext being parsed (via OpenTo)
	sealBuf []byte   // the bucket plaintext being staged for sealBucket
	outBuf  [][]byte // finish: the round's write-back, one entry per position of idx; every entry overwritten per batch

	// Telemetry handles, nil when disabled. stashGauge is shared across
	// every ORAM on the registry and updated by delta, so it reads as the
	// total stashed blocks across all live ORAMs; prevStash tracks this
	// handle's last contribution.
	pathReads  *telemetry.Counter
	pathWrites *telemetry.Counter
	accessCtr  *telemetry.Counter
	stashGauge *telemetry.Gauge
	prevStash  int
	// integrityFailures counts what the cipher cannot see fail: a bucket
	// answered twice in one round with two authentic ciphertexts.
	integrityFailures *telemetry.Counter
}

// Setup creates an empty ORAM named name on the server (Definition 4's
// Setup: client state out, encrypted memory to S): New, then SetupAll for the
// one tree.
func Setup(svc store.Service, cipher *crypto.Cipher, name string, cfg Config) (*ORAM, error) {
	o, err := New(svc, cipher, name, cfg)
	if err != nil {
		return nil, err
	}
	if err := SetupAll(svc, nil, o); err != nil {
		_ = svc.Delete(name) // best effort: the tree is ours and no handle to it will ever exist
		return nil, err
	}
	return o, nil
}

// New builds the client half of an empty ORAM named name on svc — its shape,
// empty position map and stash — and sends nothing: SetupAll puts its tree on
// the server, which must happen before the first access. Resume builds on it.
func New(svc store.Service, cipher *crypto.Cipher, name string, cfg Config) (*ORAM, error) {
	if err := checkShape(name, cfg.Capacity, cfg.KeyWidth, cfg.ValueWidth); err != nil {
		return nil, err
	}
	o := &ORAM{
		svc:        svc,
		cipher:     cipher,
		name:       name,
		capacity:   cfg.Capacity,
		keyWidth:   cfg.KeyWidth,
		valueWidth: cfg.ValueWidth,
		index:      make(map[string]int32),
		blockSize:  blockHeader + cfg.KeyWidth + cfg.ValueWidth,
		ad:         crypto.NewPlace("oram:" + name + ":"),
		pl:         newPlacer(cfg.Capacity, cfg.Seed),

		pathReads:         cfg.Metrics.Counter("oblivfd_oram_path_reads_total"),
		pathWrites:        cfg.Metrics.Counter("oblivfd_oram_path_writes_total"),
		accessCtr:         cfg.Metrics.Counter("oblivfd_oram_accesses_total"),
		stashGauge:        cfg.Metrics.Gauge("oblivfd_oram_stash_blocks"),
		integrityFailures: cfg.Metrics.Counter("oblivfd_integrity_failures_total"),
	}
	o.openBuf = make([]byte, 0, o.pl.z*o.blockSize)
	o.sealBuf = make([]byte, o.pl.z*o.blockSize)
	return o, nil
}

// value is slot i's part of the value slab.
func (o *ORAM) value(i int32) []byte {
	off := int(i) * o.valueWidth
	return o.values[off : off+o.valueWidth : off+o.valueWidth]
}

// An entry is a live key and the version stamped into its tree copy when it
// was last evicted (0 until it first is; a decrypted block whose version
// differs is a replayed or rolled-back copy, DESIGN.md §10).
type entry struct {
	key string
	ver uint32
}

// add gives a new live key a slot with its block, at version ver, assigned
// leaf and stashed or not, holding value, and returns its number.
func (o *ORAM) add(key string, leaf, ver uint32, value []byte, stashed bool) int32 {
	i := o.pl.add(leaf, stashed)
	o.entries = append(o.entries, entry{key, ver})
	o.values = append(o.values, value...)
	o.index[key] = i
	return i
}

// drop forgets the key of slot i, taking it off the stash list, and moves the
// last slot into its place.
func (o *ORAM) drop(i int32) {
	last := int32(len(o.entries) - 1)
	o.pl.drop(i)
	delete(o.index, o.entries[i].key)
	if i != last {
		o.entries[i] = o.entries[last]
		copy(o.value(i), o.value(last))
		o.index[o.entries[i].key] = i
	}
	o.entries[last] = entry{} // let the key string go
	o.entries = o.entries[:last]
	o.values = o.values[:int(last)*o.valueWidth]
}

// sealBucket seals the staged bucket plaintext for the given place in the
// tree. The ciphertext is an allocation of its own (see the scratch comment
// on ORAM).
func (o *ORAM) sealBucket(bucket int) ([]byte, error) {
	return o.cipher.Seal(o.sealBuf, o.ad.At(int64(bucket)))
}

// setupFrameBytes bounds the ciphertext bytes one set-up batch carries, so
// that its frame fits the 1 MiB encode or spill buffer a connection keeps
// between frames (transport's keepBuf) and set-up never makes one regrow. On
// the wire each ciphertext adds a length varint and an index varint: 1 byte
// each under 128 B and for the consecutive buckets of a run, so at most 2/56
// of the smallest bucket there is (Z = 4, one-byte key and value: 4·7 + 28
// bytes; a longer bucket's 2-byte length adds less). The rest of the frame —
// kind, trace context, and a flag, name and counts per op — is well under
// 1 KiB for the trees one group sets up. A frame is then at most
// 768·58/56 + 1 < 797 KiB, and the encode buffer append grows to it in steps
// of 1.25× at most 996 KiB — under keepBuf. Only a single bucket larger than
// this budget makes a bigger frame.
const setupFrameBytes = 768 << 10

// bucketBytes is the size of one of the tree's sealed buckets.
func (o *ORAM) bucketBytes() int { return o.pl.z*o.blockSize + crypto.Overhead }

// SetupAll puts the trees of handles New built on the server, as the
// textbook construction requires: each tree created, then every one of its
// buckets filled with Z sealed dummy blocks, so the initial state is
// indistinguishable from any later state and path-read sizes never depend on
// access history. lead are creates of objects the caller sets up beside the
// trees (Or-ORAM's label arrays). Nothing takes a round of its own: the
// creates — lead's, then the trees' — open the first batch, and the dummy
// buckets follow as tree-cell writes in heap order, tree after tree, as many
// to a batch as fit in setupFrameBytes of ciphertext and at least one. The
// batches' number, and which cells each carries, are a function of the
// trees' capacities, Z and widths and of lead's length, all public.
func SetupAll(svc store.Service, lead []store.BatchOp, trees ...*ORAM) error {
	ops := slices.Clone(lead)
	for _, o := range trees {
		// One stored slot per bucket: the server sees a bucket as one opaque
		// ciphertext.
		ops = append(ops, store.CreateTreeOp(o.name, o.pl.levels, 1))
	}
	bytes := 0
	send := func() error {
		if _, err := store.DoBatch(svc, ops); err != nil {
			return fmt.Errorf("oram: setting up trees: %w", err)
		}
		ops, bytes = ops[:0], 0
		return nil
	}
	for _, o := range trees {
		size, total := o.bucketBytes(), 1<<o.pl.levels-1
		clear(o.sealBuf) // Z dummies
		for start := 0; start < total; {
			if bytes > 0 && bytes+size > setupFrameBytes {
				if err := send(); err != nil {
					return err
				}
			}
			n := min(total-start, max(1, (setupFrameBytes-bytes)/size))
			op := store.BatchOp{Write: true, Name: o.name, Idx: make([]int64, n), Cts: make([][]byte, n)}
			for i := range n {
				ct, err := o.sealBucket(start + i)
				if err != nil {
					return err
				}
				op.Idx[i], op.Cts[i] = int64(start+i), ct
			}
			ops, bytes, start = append(ops, op), bytes+n*size, start+n
		}
	}
	if len(ops) == 0 {
		return nil
	}
	return send()
}

// Name returns the server-side object name.
func (o *ORAM) Name() string { return o.name }

// Accesses returns how many oblivious accesses (a path fetched and written
// back, alone or in a batch's round) have been performed. Protocol tests use it to verify fixed access counts.
func (o *ORAM) Accesses() int64 { return o.accesses }

// ClientMemoryBytes estimates the client-held state size: per live key its
// length and a 4-byte leaf, per evicted key its length and a 4-byte version,
// per stashed key its length and its value — a position map, a tag map and a
// stash keyed by the key. It estimates what the client must hold, not the
// slots and slab it does hold, and keeps the figure comparable across builds.
// This backs the client-memory curve of Fig. 5.
func (o *ORAM) ClientMemoryBytes() int {
	total := 0
	for i, e := range o.entries {
		total += len(e.key) + 4
		if e.ver != 0 {
			total += len(e.key) + verWidth // freshness tags are client state too
		}
		if o.pl.slots[i].stashed {
			total += len(e.key) + o.valueWidth
		}
	}
	return total
}

// UpdateFunc is what an access does with the value it finds. It is handed
// the value stored under the key (nil and found=false when there is none) and
// returns the value to leave there, or keep=false to leave the key absent —
// removing it if it was present. old is the store's own copy: it is valid
// until the function returns and must not be modified. value may alias old,
// must have the store's value width, and is copied before the access goes on.
type UpdateFunc func(old []byte, found bool) (value []byte, keep bool)

// Read retrieves the value stored under key, or found=false if absent
// (Definition 4 returns ⊥). The access pattern is identical for hits and
// misses.
func (o *ORAM) Read(key string) (value []byte, found bool, err error) {
	err = o.access(key, func(old []byte, ok bool) ([]byte, bool) {
		if ok {
			// Copied, so callers can never alias stash-internal storage.
			value, found = append([]byte(nil), old...), true
		}
		return old, ok
	})
	if err != nil {
		return nil, false, err
	}
	return value, found, nil
}

// Write stores (key, value), inserting or overwriting.
func (o *ORAM) Write(key string, value []byte) error {
	if len(value) != o.valueWidth {
		return fmt.Errorf("%w: got %d bytes, want %d", ErrValueWidth, len(value), o.valueWidth)
	}
	return o.access(key, func([]byte, bool) ([]byte, bool) { return value, true })
}

// Remove deletes key if present. Its access pattern is indistinguishable
// from Read and Write.
func (o *ORAM) Remove(key string) error {
	return o.access(key, func([]byte, bool) ([]byte, bool) { return nil, false })
}

// Update replaces whatever is stored under key with what fn makes of it, in
// one access: the read-modify-write that a Read followed by a Write or Remove
// of the same key would take two for.
func (o *ORAM) Update(key string, fn UpdateFunc) error { return o.access(key, fn) }

// Destroy deletes the server-side tree. The handle must not be used after.
func (o *ORAM) Destroy() error {
	if o.stashGauge != nil {
		// Withdraw this handle's contribution from the shared gauge.
		o.stashGauge.Add(-int64(o.prevStash))
		o.prevStash = 0
	}
	return o.svc.Delete(o.name)
}

// inflight is the batch of accesses to the handle between its two rounds:
// one access for Read, Write, Remove and Update, a chunk's through a
// Pipeline.
type inflight struct {
	stage stage
	by    *Pipeline // the pipeline building the batch; nil for a direct access
	ops   []batchOp // the accesses, in call order
}

// A batchOp is one access of the batch in flight; the placer holds its leaf.
type batchOp struct {
	key   string
	at    int   // the access's place in the call that asked for it, for errors
	first bool  // the batch's first access to key
	slot  int32 // key's slot if the access is first and key was live as the batch began, else -1
}

type stage uint8

const (
	idle   stage = iota
	begun        // leaves chosen; nothing fetched has been taken in
	served       // round absorbed, functions applied, write-back built but not known to have landed
)

// access is the single PathORAM access routine behind Read, Write, Remove and
// Update, so their server-visible behaviour is identical by construction. It
// is a Pipeline's batch at r = 1: begin, absorb, apply, finish, and end split
// by a Pipeline into owe and settle around the write-back's round, with the
// two server calls between them fused with other accesses'.
func (o *ORAM) access(key string, fn UpdateFunc) (err error) {
	if _, err := o.begin(key, nil, 0); err != nil {
		return err
	}
	defer func() { o.end(err) }()
	o.idx = o.pl.lay(o.idx)
	buckets, err := o.svc.ReadCells(o.name, o.idx)
	if err != nil {
		return fmt.Errorf("oram: %w", err)
	}
	if _, err := o.absorb(buckets); err != nil {
		return err
	}
	if err := o.apply(0, fn); err != nil {
		return err
	}
	if err := o.finish(); err != nil {
		return err
	}
	if err := o.svc.WriteCells(o.name, o.idx, o.outBuf); err != nil {
		return fmt.Errorf("oram: %w", err)
	}
	return nil
}

// ready says why an access to key, asked for by pipeline p (nil for a direct
// access), cannot begin, and changes nothing: the handle has lost a
// write-back, is in the middle of another batch than the one p is building,
// or owes a write-back that p does not hold, or the key does not fit.
func (o *ORAM) ready(key string, p *Pipeline) error {
	switch {
	case o.failed != nil:
		return fmt.Errorf("oram %q: unusable since an access failed midway: %w", o.name, o.failed)
	case o.cur.stage == served, o.cur.stage == begun && (p == nil || o.cur.by != p), o.owedTo != nil && o.owedTo != p:
		return fmt.Errorf("oram %q: access to %q while another is in flight", o.name, key)
	case len(key) > o.keyWidth:
		return fmt.Errorf("%w: %d bytes, max %d", ErrKeyWidth, len(key), o.keyWidth)
	}
	return nil
}

// begin adds an access to key to the batch p (nil for a direct access) is
// building, at is the access's place in the caller's call, and returns its
// place in the batch. The batch's first access
// to a live key fetches the key's position-map entry; a repeat, or a key that
// is not live, fetches a fresh uniform draw. So every leaf is fixed before
// anything is fetched, a write-back still owed has already taken its remap
// into account, and the r leaves of a batch are r independent uniform draws
// whichever keys repeat.
func (o *ORAM) begin(key string, p *Pipeline, at int) (k int, err error) {
	if err := o.ready(key, p); err != nil {
		return 0, err
	}
	o.accesses++
	o.accessCtr.Inc()
	op := batchOp{key: key, at: at, slot: -1}
	op.first = !slices.ContainsFunc(o.cur.ops, func(prev batchOp) bool { return prev.key == key })
	if i, live := o.index[key]; live && op.first {
		op.slot = i
	}
	o.pl.fetch(op.slot) // a dummy path, -1, is a uniform draw like any remapped leaf
	o.cur.stage, o.cur.by = begun, p
	o.cur.ops = append(o.cur.ops, op)
	return len(o.cur.ops) - 1, nil
}

// end closes the batch in flight. err is what stopped it, nil once its
// write-back is on the server. A batch stopped before absorb took its paths in
// has changed nothing; one stopped later has emptied the stash into a
// write-back the server may never have seen, and the handle is refused from
// then on rather than left to diverge silently.
func (o *ORAM) end(err error) {
	if o.cur.stage == served {
		o.settle(err)
	}
	o.cur = inflight{ops: o.cur.ops[:0]}
	o.pl.done()
}

// owe hands the served batch's write-back to p, which sends it: the handle is
// between batches again, but only p may begin the next one until it settles
// the write-back. The write-back's positions stay in owedIdx, so the next
// batch's fetch, built before the round that carries both, has idx to itself.
func (o *ORAM) owe(p *Pipeline) {
	o.cur, o.owedTo = inflight{ops: o.cur.ops[:0]}, p
	o.pl.done()
	o.idx, o.owedIdx = o.owedIdx[:0], o.idx
}

// settle closes the write-back the handle owes: err is nil once it is on the
// server, and otherwise what lost it, which the handle refuses every further
// access with.
func (o *ORAM) settle(err error) {
	if err != nil {
		o.failed = err
	} else {
		o.pathWrites.Add(int64(o.owed))
	}
	o.owed, o.owedTo = 0, nil
	clear(o.outBuf) // the client is done with the ciphertexts sent
}

// absorb takes the batch's fetched round — the buckets at o.idx's positions,
// in that order — into the stash, each distinct bucket once however many of
// the paths name it, and checks that every key the batch names that was live
// as it began is now there. A bucket named again must come back byte for byte
// as it did the first time: two authentic ciphertexts for one bucket in one
// round are an equivocating server. On an error, at is the place in its call
// of the access whose path did not verify (the batch's first, for a bucket of
// the top levels).
func (o *ORAM) absorb(fetched [][]byte) (at int, err error) {
	o.cur.stage = served
	o.pathReads.Add(int64(len(o.cur.ops)))
	if len(fetched) != len(o.idx) {
		return o.cur.ops[0].at, o.integrityErr(fmt.Sprintf("round of %d accesses answered with %d buckets, want %d", len(o.cur.ops), len(fetched), len(o.idx)), nil)
	}
	for j, ct := range fetched {
		src := int(o.pl.src[j])
		if src != j && bytes.Equal(fetched[src], ct) {
			continue // the bucket's first copy is the one absorbed
		}
		if err := o.absorbBucket(ct, j, src != j); err != nil {
			return o.cur.ops[o.pl.access(j)].at, err
		}
	}
	// Freshness of the paths as a whole: a key the position map assigns to
	// one of them must now be in the stash; otherwise the server suppressed
	// the real block (e.g. replayed an authentic older copy of its bucket
	// from before the block was placed there). Nothing has changed which
	// keys are live, or their slots, since the batch began.
	for k, op := range o.cur.ops {
		if op.slot >= 0 && !o.pl.slots[op.slot].stashed {
			return op.at, o.integrityErr(fmt.Sprintf("block %q missing from its assigned path (leaf %d)", op.key, o.pl.leaves[k]), nil)
		}
	}
	return 0, nil
}

// absorbBucket opens the ciphertext fetched for round place j and moves its
// real blocks into the stash. A repeat, a later copy of a bucket that differs
// from the first, is refused: forged if it does not open, and otherwise shown
// by a server that holds two authentic versions of the bucket.
func (o *ORAM) absorbBucket(ct []byte, j int, repeat bool) error {
	if len(ct) == 0 {
		// Setup leaves no empty buckets; an empty one means the server
		// dropped a ciphertext.
		return o.integrityErr(fmt.Sprintf("bucket %d is empty", o.idx[j]), nil)
	}
	pt, err := o.cipher.OpenTo(o.openBuf[:0], ct, o.ad.At(o.idx[j]))
	if err != nil {
		return o.integrityErr(fmt.Sprintf("bucket %d failed authentication", o.idx[j]), err)
	}
	if repeat {
		o.integrityFailures.Inc()
		return o.integrityErr(fmt.Sprintf("bucket %d answered twice in one round with different authentic ciphertexts", o.idx[j]), nil)
	}
	o.openBuf = pt // keep the (possibly grown) scratch for the next bucket
	if len(pt) != o.pl.z*o.blockSize {
		return o.integrityErr(fmt.Sprintf("bucket has %d bytes, want %d", len(pt), o.pl.z*o.blockSize), nil)
	}
	for ; len(pt) > 0; pt = pt[o.blockSize:] {
		k, v, ver, real, err := o.parseBlock(pt[:o.blockSize])
		if err != nil {
			return err
		}
		if !real {
			continue
		}
		// Honest invariant: each live key has exactly one copy, in the
		// stash or in one tree bucket on its assigned path. A tree block
		// violating that is a replayed, duplicated, or rolled-back copy.
		// k and v still point into the scratch: the lookup converts
		// without allocating, and only a block that passes every check
		// is copied into its slot.
		i, live := o.index[string(k)]
		switch {
		case !live:
			return o.integrityErr(fmt.Sprintf("replayed block %q (key not live)", k), nil)
		case o.pl.slots[i].stashed:
			return o.integrityErr(fmt.Sprintf("duplicate copy of block %q (already stashed)", k), nil)
		case ver != o.entries[i].ver:
			return o.integrityErr(fmt.Sprintf("stale block %q: version %d, want %d", k, ver, o.entries[i].ver), nil)
		}
		o.pl.enter(i)
		copy(o.value(i), v)
	}
	return nil
}

// apply serves access k of the batch from the stash: fn is shown the key's
// value as the batch's earlier accesses left it, and what it returns stays. A
// key is remapped once the whole batch is applied (finish), so a miss and a
// removal draw no leaf here.
func (o *ORAM) apply(k int, fn UpdateFunc) error {
	key := o.cur.ops[k].key
	i, found := o.index[key]
	var old []byte
	if found {
		old = o.value(i)
	}
	switch value, keep := fn(old, found); {
	case !keep:
		if found {
			o.drop(i)
		}
	case len(value) != o.valueWidth:
		return fmt.Errorf("%w: got %d bytes, want %d", ErrValueWidth, len(value), o.valueWidth)
	case found:
		copy(old, value)
	default:
		o.add(key, 0, 0, value, true)
	}
	return nil
}

// finish ends the batch's client work. Every key it touched that is still
// live takes a fresh uniform leaf, once, in the order first touched — the
// standard PathORAM remap on every touch; then the placer evicts the stash
// into the round's buckets, and the round is left, each distinct bucket
// stamped and sealed once, in outBuf, one ciphertext for each position of
// idx.
func (o *ORAM) finish() error {
	for _, op := range o.cur.ops {
		if i, live := o.index[op.key]; op.first && live {
			o.pl.remap(i)
		}
	}
	o.maxStash = max(o.maxStash, len(o.pl.stash))
	// Every block placed is stamped with the access count, which must fit a
	// version before anything is sealed.
	if o.accesses > math.MaxUint32 {
		return fmt.Errorf("%w: access %d", ErrVersionWrap, o.accesses)
	}
	ver := uint32(o.accesses)
	o.pl.evict()
	o.outBuf = slices.Grow(o.outBuf[:0], len(o.idx))[:len(o.idx)]
	for j, bucket := range o.idx {
		if src := int(o.pl.src[j]); src != j {
			o.outBuf[j] = o.outBuf[src] // a bucket's ciphertext sits at its first place
			continue
		}
		clear(o.sealBuf) // places left unfilled are dummies
		pt := o.sealBuf
		for _, i := range o.pl.content[j*o.pl.z:][:o.pl.z] {
			if i < 0 {
				break
			}
			// Stamp a fresh version into the outgoing copy; the client-held
			// tag is what later reads are checked against.
			e := &o.entries[i]
			e.ver = ver
			o.putBlock(pt[:o.blockSize], e.key, o.value(i), ver)
			pt = pt[o.blockSize:]
		}
		ct, err := o.sealBucket(int(bucket))
		if err != nil {
			return err
		}
		o.outBuf[j] = ct
	}
	if o.stashGauge != nil {
		o.stashGauge.Add(int64(len(o.pl.stash) - o.prevStash))
		o.prevStash = len(o.pl.stash)
	}
	if limit := stashLimit(o.capacity); len(o.pl.stash) > limit {
		return fmt.Errorf("%w: %d blocks > limit %d", ErrStashOverflow, len(o.pl.stash), limit)
	}
	o.owed = len(o.cur.ops)
	return nil
}

// integrityErr wraps a verification failure in store.ErrIntegrity so the
// retry layer classifies it fatal and discovery aborts with the location.
func (o *ORAM) integrityErr(what string, cause error) error {
	if cause != nil {
		return fmt.Errorf("oram %q: %s: %v: %w", o.name, what, cause, store.ErrIntegrity)
	}
	return fmt.Errorf("oram %q: %s: %w", o.name, what, store.ErrIntegrity)
}

// putBlock serializes a real block into its zeroed place in a staged bucket:
// version ∥ key length ∥ key ∥ value, the key's tail left zero. ready has
// refused every key wider than keyWidth. A dummy is the place left zero.
func (o *ORAM) putBlock(pt []byte, key string, value []byte, ver uint32) {
	binary.BigEndian.PutUint32(pt, ver)
	pt[verWidth] = byte(len(key))
	copy(pt[blockHeader:], key)
	copy(pt[blockHeader+o.keyWidth:], value)
}

// parseBlock reads one block of an opened bucket. real is false for a dummy,
// whose version is 0; key and value alias pt.
func (o *ORAM) parseBlock(pt []byte) (key, value []byte, ver uint32, real bool, err error) {
	ver = binary.BigEndian.Uint32(pt)
	if ver == 0 {
		return nil, nil, 0, false, nil
	}
	n := int(pt[verWidth])
	if n > o.keyWidth {
		return nil, nil, 0, false, o.integrityErr(fmt.Sprintf("block key of %d bytes, max %d", n, o.keyWidth), nil)
	}
	return pt[blockHeader : blockHeader+n], pt[blockHeader+o.keyWidth:], ver, true, nil
}
