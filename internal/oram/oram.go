// Package oram implements the non-recursive PathORAM of Stefanov et al.
// (JACM 2018) with the key-value interface of the paper's Definition 4:
// Setup / Read / Write (plus Remove, needed by the dynamic protocol's
// Algorithm 5). The client keeps the position map and stash; the server
// stores an encrypted bucket tree via store.Service.
//
// Parameters follow the paper's evaluation (§VII-A): Z = 4 blocks per
// bucket and a stash capped at 7·log₂(n) blocks.
//
// There is one access, Stefanov et al.'s Access(op, a, data*): fetch the
// key's path, hand the value found there (or its absence) to the caller's
// UpdateFunc, keep what that returns, write the path back. Read, Write and
// Remove are its three trivial functions, and Update gives a caller the
// general one — a read-modify-write for the price of a single access.
//
// Obliviousness: every access — whatever its function, hit or miss —
// performs exactly one ReadPath and one WritePath on a uniformly random
// leaf, re-encrypting every bucket it writes. The server cannot distinguish
// the operations (Definition 4 requires Read and Write to be mutually
// indistinguishable).
//
// A Pipeline runs accesses in batches: r accesses to one tree fetch r paths in
// one round — a key's path on its first access in the batch, a fresh uniform
// leaf for a repeat or a miss, so r independent uniform leaves whatever the
// keys — and the client takes the union of the paths in once, serves the r
// functions in order, remaps each key it touched once, evicts along the union
// and writes the r paths back, a shared bucket sealed once (Stefanov et al.,
// CCS 2013; Sahin et al., "TaoStore", S&P 2016). A direct access is a
// batch of one, draw for draw the textbook access.
//
// The bucket is the unit of encryption, as in Stefanov et al.: a bucket's Z
// blocks — real and dummy side by side, each flag ∥ version ∥ padded key ∥
// value — are sealed as one ciphertext bound to the bucket's place in the
// tree, and the server stores one such ciphertext per bucket. Its length is
// Z·blockSize plus the AEAD's 28 bytes, a function of Config alone: how many
// of a bucket's blocks are real changes the plaintext's content, never its
// size. Setup fills the entire tree with sealed all-dummy buckets, exactly as
// the textbook construction requires, so everything the server ever holds is
// a same-sized semantically secure ciphertext and path-read sizes are constant
// and carry nothing. It writes them in heap order, as many to a WriteBuckets
// call as fit in a fixed byte budget: one call for every tree the engines
// build at the benchmark's sizes.
//
// The tree has half the next power of two ≥ capacity leaves (at least two):
// at full load at most a quarter of its Z·(2·leaves − 1) slots are live, half
// the 50 % utilisation at which Ren et al. (ISCA 2013) run Z = 4, and the
// stash stays within the paper's bound.
package oram

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	mrand "math/rand"
	"slices"
	"strconv"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/telemetry"
)

// DefaultZ is the paper's bucket capacity.
const DefaultZ = 4

// DefaultStashFactor is the paper's stash bound multiplier: the stash may
// hold at most DefaultStashFactor·log₂(capacity) blocks.
const DefaultStashFactor = 7

// ErrStashOverflow is returned when the stash exceeds its bound. With Z = 4
// this happens with negligible probability; seeing it indicates a bug or an
// adversarial workload outside the model.
var ErrStashOverflow = errors.New("oram: stash overflow")

// ErrValueWidth is returned when a written value does not match the ORAM's
// fixed value width.
var ErrValueWidth = errors.New("oram: value width mismatch")

// ErrKeyWidth is returned when a key exceeds the ORAM's fixed key width.
var ErrKeyWidth = errors.New("oram: key too long")

// verWidth is the size of the freshness version embedded in every block
// plaintext, between the real/dummy flag and the padded key. Dummies carry a
// zero version, so real and dummy plaintexts stay the same length.
const verWidth = 8

// treeAD returns the associated-data prefix shared by every bucket of a tree,
// "oram:<name>:", with room behind it for a bucket index. bucketAD completes
// it; a handle builds it once.
func treeAD(name string) []byte {
	ad := make([]byte, 0, len("oram:")+len(name)+len(":")+10)
	return append(append(append(ad, "oram:"...), name...), ':')
}

// Config parameterizes Setup.
type Config struct {
	// Capacity is the maximum number of live key-value pairs (the paper's
	// n). The tree has half the next power of two ≥ Capacity leaves, at
	// least two.
	Capacity int
	// KeyWidth is the maximum key length in bytes. All blocks are padded
	// to a common size derived from KeyWidth and ValueWidth.
	KeyWidth int
	// ValueWidth is the exact value length in bytes; every stored value
	// must have this length so ciphertext sizes are data-independent.
	ValueWidth int
	// Z is the bucket capacity; 0 means DefaultZ.
	Z int
	// StashFactor bounds the stash to StashFactor·log₂(capacity); 0 means
	// DefaultStashFactor.
	StashFactor int
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
	z          int
	levels     int // tree levels including root and leaf level
	numLeaves  int
	keyWidth   int
	valueWidth int
	blockSize  int

	// Client-held state: position map, stash, and freshness tags (§VII-C
	// discusses their O(n) memory cost), kept per live key in one slot.
	// index maps a live key to its slot; values holds valueWidth bytes per
	// slot, meaningful while the slot is stashed; stash lists the stashed
	// slots. Slots are dense: removing a key moves the last slot into its
	// place. State copies slots and slab as they are.
	index  map[string]int32
	slots  []Slot
	values []byte
	stash  []int32

	// ad is "oram:<name>:" followed by the heap index of the bucket being
	// sealed or opened (bucketAD rewrites the tail in place): a bucket
	// authenticates only at its own place in its own tree, so it can be
	// transplanted neither between ORAMs sharing a key nor within one.
	ad       []byte
	adPrefix int

	stashLimit int
	maxStash   int
	accesses   int64
	rng        *mrand.Rand

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
	nodes   []node   // the distinct buckets of the batch's paths (layNodes)
	levelAt []int    // level l's nodes are nodes[levelAt[l]:levelAt[l+1]]
	leaves  []uint32 // layNodes: the batch's distinct leaves, in order
	pathBuf []int32  // absorb: a path's nodes, root first
	next    []int32  // evict: the links of the lists of stash positions
	spare   []int32  // evict: the stash list's other array, the next call's new list
	outBuf  [][]byte // evict, finish: the batch's outgoing paths, levels entries each; every entry overwritten per batch

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

// SetTelemetry attaches (or, with nil, detaches) a telemetry registry.
// core.Resume uses it to re-instrument handles rebuilt from checkpoints.
func (o *ORAM) SetTelemetry(reg *telemetry.Registry) {
	o.pathReads = reg.Counter("oblivfd_oram_path_reads_total")
	o.pathWrites = reg.Counter("oblivfd_oram_path_writes_total")
	o.accessCtr = reg.Counter("oblivfd_oram_accesses_total")
	o.stashGauge = reg.Gauge("oblivfd_oram_stash_blocks")
	o.prevStash = 0
	o.integrityFailures = reg.Counter("oblivfd_integrity_failures_total")
}

// Setup creates an empty ORAM named name on the server (Definition 4's
// Setup: client state out, encrypted memory to S).
func Setup(svc store.Service, cipher *crypto.Cipher, name string, cfg Config) (*ORAM, error) {
	if cfg.Capacity < 1 {
		return nil, fmt.Errorf("oram: capacity %d < 1", cfg.Capacity)
	}
	if cfg.KeyWidth < 1 || cfg.ValueWidth < 1 {
		return nil, fmt.Errorf("oram: key/value widths must be positive (got %d, %d)", cfg.KeyWidth, cfg.ValueWidth)
	}
	z := cfg.Z
	if z == 0 {
		z = DefaultZ
	}
	sf := cfg.StashFactor
	if sf == 0 {
		sf = DefaultStashFactor
	}
	o := &ORAM{
		svc:        svc,
		cipher:     cipher,
		name:       name,
		capacity:   cfg.Capacity,
		z:          z,
		keyWidth:   cfg.KeyWidth,
		valueWidth: cfg.ValueWidth,
		index:      make(map[string]int32),
		stashLimit: sf * ceilLog2(cfg.Capacity),
		rng:        newRNG(cfg.Seed),
	}
	o.initScratch()
	if cfg.Metrics != nil {
		o.SetTelemetry(cfg.Metrics)
	}
	// One stored slot per bucket: the server sees a bucket as one opaque
	// ciphertext.
	if err := svc.CreateTree(name, o.levels, 1); err != nil {
		return nil, fmt.Errorf("oram: creating tree: %w", err)
	}
	if err := o.initTree(); err != nil {
		_ = svc.Delete(name) // best effort: the tree is ours and no handle to it will ever exist
		return nil, err
	}
	return o, nil
}

// initScratch derives the tree shape and block layout from the handle's
// capacity and widths and sizes the per-handle scratch; Setup and Resume both
// finish construction with it.
func (o *ORAM) initScratch() {
	o.levels, o.numLeaves = shape(o.capacity)
	o.blockSize = 1 + verWidth + crypto.PadWidth(o.keyWidth) + o.valueWidth
	o.ad = treeAD(o.name)
	o.adPrefix = len(o.ad)
	o.openBuf = make([]byte, 0, o.z*o.blockSize)
	o.sealBuf = make([]byte, o.z*o.blockSize)
	o.levelAt = make([]int, o.levels+1)
	o.pathBuf = make([]int32, o.levels)
}

// shape is the tree for a capacity: half the next power of two ≥ capacity
// leaves, at least two, and the levels from root to leaf. The stash limit
// stays the paper's 7·lg n; EXPERIMENTS.md ("Tree shape") has the stash this
// shape, the full one and a quarter one were measured at.
func shape(capacity int) (levels, numLeaves int) {
	d := max(ceilLog2(capacity)-1, 1)
	return d + 1, 1 << d
}

// A Slot is one live key's client state: the leaf its block is assigned to,
// the version stamped into its tree copy when it was last evicted (Tagged is
// false until it first is; a decrypted block whose version differs is a
// replayed or rolled-back copy, DESIGN.md §10), and whether the block is in
// the stash, its value then in the slot's part of the value slab.
type Slot struct {
	Key     string
	Leaf    uint32
	Ver     uint64
	Tagged  bool
	Stashed bool
}

// value is slot i's part of the value slab.
func (o *ORAM) value(i int32) []byte {
	off := int(i) * o.valueWidth
	return o.values[off : off+o.valueWidth : off+o.valueWidth]
}

// add gives a new live key a slot holding value (stashed or not) and
// returns its number.
func (o *ORAM) add(key string, leaf uint32, value []byte, stashed bool) int32 {
	i := int32(len(o.slots))
	o.slots = append(o.slots, Slot{Key: key, Leaf: leaf, Stashed: stashed})
	o.values = append(o.values, value...)
	o.index[key] = i
	if stashed {
		o.stash = append(o.stash, i)
	}
	return i
}

// drop forgets the key of slot i, taking it off the stash list, and moves the
// last slot into its place.
func (o *ORAM) drop(i int32) {
	last := int32(len(o.slots) - 1)
	delete(o.index, o.slots[i].Key)
	if j := slices.Index(o.stash, i); j >= 0 {
		o.stash[j] = o.stash[len(o.stash)-1]
		o.stash = o.stash[:len(o.stash)-1]
	}
	if i != last {
		o.slots[i] = o.slots[last]
		copy(o.value(i), o.value(last))
		o.index[o.slots[i].Key] = i
		if j := slices.Index(o.stash, last); j >= 0 {
			o.stash[j] = i
		}
	}
	o.slots[last] = Slot{} // let the key string go
	o.slots = o.slots[:last]
	o.values = o.values[:int(last)*o.valueWidth]
}

// bucketAD binds a ciphertext to one bucket of this tree, named by its index
// in the server's heap layout (root = 0). The result is valid until the next
// call.
func (o *ORAM) bucketAD(bucket int) []byte {
	o.ad = strconv.AppendInt(o.ad[:o.adPrefix], int64(bucket), 10)
	return o.ad
}

// pathBucket returns the heap index of the level-l bucket on the path to
// leaf.
func (o *ORAM) pathBucket(leaf uint32, l int) int {
	return 1<<l - 1 + int(leaf>>(o.levels-1-l))
}

// sealBucket seals the staged bucket plaintext for the given place in the
// tree. The ciphertext is an allocation of its own (see the scratch comment
// on ORAM).
func (o *ORAM) sealBucket(bucket int) ([]byte, error) {
	return o.cipher.Seal(o.sealBuf, o.bucketAD(bucket))
}

// setupFrameBytes bounds the ciphertext bytes one Setup call carries, so that
// its frame fits the 1 MiB encode or spill buffer a connection keeps between
// frames (transport's keepBuf) and Setup never makes one regrow. On the wire
// each ciphertext adds a length varint: 1 byte under 128 B, 2 under 16 KiB, so
// at most 1/43 of the smallest bucket there is (Z = 1, one-byte key and value:
// 15 + 28 bytes). The frame's header is the kind, trace context, tree name,
// start and count, well under 1 KiB. A frame is then at most 768·44/43 + 1 <
// 787 KiB, and the encode buffer append grows to it in steps of 1.25× at most
// 984 KiB (plus a page of rounding) — under keepBuf. Only a single bucket
// larger than this budget makes a bigger frame, one bucket to a call.
const setupFrameBytes = 768 << 10

// setupBuckets is how many sealed dummy buckets one Setup call carries: as
// many as fit in setupFrameBytes, at least one.
func (o *ORAM) setupBuckets() int {
	return max(1, setupFrameBytes/(o.z*o.blockSize+crypto.Overhead))
}

// initTree fills every bucket with sealed dummy blocks, as in the textbook
// construction, so the initial state is indistinguishable from any later
// state and path-read sizes never depend on access history. It writes them
// in setupBuckets-sized calls, the tree's heap order; the calls' number, starts
// and sizes are a function of the capacity, Z and the widths, all public.
func (o *ORAM) initTree() error {
	perCall := o.setupBuckets()
	totalBuckets := (1 << o.levels) - 1
	clear(o.sealBuf) // Z dummies
	for start := 0; start < totalBuckets; start += perCall {
		buckets := make([][]byte, min(perCall, totalBuckets-start))
		for i := range buckets {
			ct, err := o.sealBucket(start + i)
			if err != nil {
				return err
			}
			buckets[i] = ct
		}
		if err := o.svc.WriteBuckets(o.name, start, buckets); err != nil {
			return fmt.Errorf("oram: initializing tree: %w", err)
		}
	}
	return nil
}

func newRNG(seed int64) *mrand.Rand {
	if seed == 0 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			panic(fmt.Sprintf("oram: seeding rng: %v", err))
		}
		seed = int64(binary.BigEndian.Uint64(b[:]) >> 1)
		if seed == 0 {
			seed = 1
		}
	}
	return mrand.New(mrand.NewSource(seed))
}

func ceilLog2(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// Name returns the server-side object name.
func (o *ORAM) Name() string { return o.name }

// Len returns the number of live keys.
func (o *ORAM) Len() int { return len(o.slots) }

// Capacity returns the configured capacity.
func (o *ORAM) Capacity() int { return o.capacity }

// ValueWidth returns the fixed value width.
func (o *ORAM) ValueWidth() int { return o.valueWidth }

// StashLimit returns the configured stash bound.
func (o *ORAM) StashLimit() int { return o.stashLimit }

// Accesses returns how many oblivious accesses (path read + write pairs)
// have been performed. Protocol tests use it to verify fixed access counts.
func (o *ORAM) Accesses() int64 { return o.accesses }

// ClientMemoryBytes estimates the client-held state size: per live key its
// length and a 4-byte leaf, per tagged key its length and an 8-byte version,
// per stashed key its length and its value — a position map, a tag map and a
// stash keyed by the key. It estimates what the client must hold, not the
// slots and slab it does hold, and keeps the figure comparable across builds.
// This backs the client-memory curve of Fig. 5.
func (o *ORAM) ClientMemoryBytes() int {
	total := 0
	for _, s := range o.slots {
		total += len(s.Key) + 4
		if s.Tagged {
			total += len(s.Key) + verWidth // freshness tags are client state too
		}
		if s.Stashed {
			total += len(s.Key) + o.valueWidth
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

// A batchOp is one access of the batch in flight.
type batchOp struct {
	key   string
	leaf  uint32   // the leaf whose path the access fetches
	at    int      // where that path sits in the round's answer
	first bool     // the batch's first access to key
	slot  int32    // key's slot if the access is first and key was live as the batch began, else -1
	node  int32    // the path's leaf bucket among the batch's nodes, once absorbed
	out   [][]byte // the path's write-back, root first, once finished
}

// A node is one distinct bucket on the union of a batch's paths.
type node struct {
	prefix uint32 // the bucket's place in its level: the top bits of every leaf below it
	level  int32
	parent int32 // the node one level up; -1 at the root
	// opener is the batch's first access whose path runs through the
	// bucket: the copy its path fetched is the one absorbed, and the
	// bucket's write-back is sealed into that path's place in outBuf.
	opener int32
	// evict: the stashed blocks whose deepest eligible bucket this is, and
	// those its children could not place.
	enter, carry list
}

// A list is a chain of positions in the stash list, linked through
// ORAM.next, kept last first so that evict takes from its head.
type list struct{ head, tail int32 } // -1 when empty

var empty = list{-1, -1}

// then is a followed by b.
func (a list) then(b list, next []int32) list {
	if a.head < 0 {
		return b
	}
	if b.head >= 0 {
		next[a.tail], a.tail = b.head, b.tail
	}
	return a
}

type stage uint8

const (
	idle   stage = iota
	begun        // leaves chosen; nothing fetched has been taken in
	served       // paths absorbed, functions applied, write-back built but not known to have landed
)

// access is the single PathORAM access routine behind Read, Write, Remove and
// Update, so their server-visible behaviour is identical by construction. It
// is a Pipeline's batch at r = 1: begin, absorb, apply, finish, and end split
// by a Pipeline into owe and settle around the write-back's round, with the
// two server calls between them fused with other accesses'.
func (o *ORAM) access(key string, fn UpdateFunc) (err error) {
	leaf, _, err := o.begin(key, nil, 0)
	if err != nil {
		return err
	}
	defer func() { o.end(err) }()
	buckets, err := o.svc.ReadPath(o.name, leaf)
	if err != nil {
		return fmt.Errorf("oram: %w", err)
	}
	if _, err := o.absorb([][][]byte{buckets}); err != nil {
		return err
	}
	if err := o.apply(0, fn); err != nil {
		return err
	}
	if err := o.finish(); err != nil {
		return err
	}
	if err := o.svc.WritePath(o.name, leaf, o.cur.ops[0].out); err != nil {
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
// building, and returns the leaf whose path it fetches, to be answered at
// place at of the round, and its place in the batch. The batch's first access
// to a live key fetches the key's position-map entry; a repeat, or a key that
// is not live, fetches a fresh uniform draw. So every leaf is fixed before
// anything is fetched, a write-back still owed has already taken its remap
// into account, and the r leaves of a batch are r independent uniform draws
// whichever keys repeat.
func (o *ORAM) begin(key string, p *Pipeline, at int) (leaf uint32, k int, err error) {
	if err := o.ready(key, p); err != nil {
		return 0, 0, err
	}
	o.accesses++
	o.accessCtr.Inc()
	op := batchOp{key: key, at: at, first: true, slot: -1}
	for _, prev := range o.cur.ops {
		if prev.key == key {
			op.first = false
			break
		}
	}
	if i, live := o.index[key]; live && op.first {
		op.leaf, op.slot = o.slots[i].Leaf, i
	} else {
		// Dummy path: uniformly random, like any remapped leaf.
		op.leaf = uint32(o.rng.Intn(o.numLeaves))
	}
	o.cur.stage, o.cur.by = begun, p
	o.cur.ops = append(o.cur.ops, op)
	return op.leaf, len(o.cur.ops) - 1, nil
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
}

// owe hands the served batch's write-back to p, which sends it: the handle is
// between batches again, but only p may begin the next one until it settles
// the write-back.
func (o *ORAM) owe(p *Pipeline) { o.cur, o.owedTo = inflight{ops: o.cur.ops[:0]}, p }

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

// absorb takes the batch's fetched paths — fetched[op.at] for each access —
// into the stash, each distinct bucket once however many of the paths name
// it, and checks that every key the batch names that was live as it began is
// now there. A bucket named again must come back byte for byte as it did the
// first time: two authentic ciphertexts for one bucket in one round are an
// equivocating server. On an error, at is the place in the round of the
// access whose path did not verify.
func (o *ORAM) absorb(fetched [][][]byte) (at int, err error) {
	o.cur.stage = served
	o.pathReads.Add(int64(len(o.cur.ops)))
	o.layNodes()
	path := o.pathBuf
	for k, op := range o.cur.ops {
		buckets := fetched[op.at]
		if len(buckets) != o.levels {
			return op.at, o.integrityErr(fmt.Sprintf("path to leaf %d has %d buckets, want %d", op.leaf, len(buckets), o.levels), nil)
		}
		for l, nd := o.levels-1, op.node; l >= 0; l, nd = l-1, o.nodes[nd].parent {
			path[l] = nd
		}
		for l, ct := range buckets {
			nd, bucket := &o.nodes[path[l]], o.pathBucket(op.leaf, l)
			switch {
			case len(ct) == 0:
				// Setup leaves no empty buckets; an empty one means the
				// server dropped a ciphertext.
				return op.at, o.integrityErr(fmt.Sprintf("empty bucket at level %d on path to leaf %d", l, op.leaf), nil)
			case int(nd.opener) != k && !bytes.Equal(fetched[o.cur.ops[nd.opener].at][l], ct):
				return op.at, o.equivocation(ct, bucket, l, op.leaf)
			case int(nd.opener) != k:
				continue
			}
			if err := o.absorbBucket(ct, bucket, l, op.leaf); err != nil {
				return op.at, err
			}
		}
	}
	// Freshness of the paths as a whole: a key the position map assigns to
	// one of them must now be in the stash; otherwise the server suppressed
	// the real block (e.g. replayed an authentic older copy of its bucket
	// from before the block was placed there). Nothing has changed which
	// keys are live, or their slots, since the batch began.
	for _, op := range o.cur.ops {
		if op.slot >= 0 && !o.slots[op.slot].Stashed {
			return op.at, o.integrityErr(fmt.Sprintf("block %q missing from its assigned path (leaf %d)", op.key, op.leaf), nil)
		}
	}
	return 0, nil
}

// equivocation is the error for a bucket a round answered twice with
// different ciphertexts, ct the second: an authentication failure if ct does
// not open at the bucket's place, and otherwise a server that holds two
// authentic versions of one bucket and showed both. Either way it counts as an
// integrity failure.
func (o *ORAM) equivocation(ct []byte, bucket, l int, leaf uint32) error {
	if _, err := o.cipher.OpenTo(o.openBuf[:0], ct, o.bucketAD(bucket)); err != nil {
		return o.integrityErr(fmt.Sprintf("bucket authentication failed at level %d on path to leaf %d", l, leaf), err)
	}
	o.integrityFailures.Inc()
	return o.integrityErr(fmt.Sprintf("bucket %d answered twice in one round with different authentic ciphertexts", bucket), nil)
}

// absorbBucket opens the ciphertext fetched for a bucket — at level l on the
// path to leaf, for errors — and moves its real blocks into the stash.
func (o *ORAM) absorbBucket(ct []byte, bucket, l int, leaf uint32) error {
	pt, err := o.cipher.OpenTo(o.openBuf[:0], ct, o.bucketAD(bucket))
	if err != nil {
		return o.integrityErr(fmt.Sprintf("bucket authentication failed at level %d on path to leaf %d", l, leaf), err)
	}
	o.openBuf = pt // keep the (possibly grown) scratch for the next bucket
	if len(pt) != o.z*o.blockSize {
		return o.integrityErr(fmt.Sprintf("bucket has %d bytes, want %d", len(pt), o.z*o.blockSize), nil)
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
		if !live {
			return o.integrityErr(fmt.Sprintf("replayed block %q (key not live)", k), nil)
		}
		s := &o.slots[i]
		if s.Stashed {
			return o.integrityErr(fmt.Sprintf("duplicate copy of block %q (already stashed)", k), nil)
		}
		if ver != s.Ver {
			return o.integrityErr(fmt.Sprintf("stale block %q: version %d, want %d", k, ver, s.Ver), nil)
		}
		s.Stashed = true
		copy(o.value(i), v)
		o.stash = append(o.stash, i)
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
		o.add(key, 0, value, true)
	}
	return nil
}

// finish ends the batch's client work. Every key it touched that is still
// live takes a fresh uniform leaf, once, in the order first touched — the
// standard PathORAM remap on every touch; then the stash is evicted along the
// union of the batch's paths and each access's path is left, re-sealed, in
// its out.
func (o *ORAM) finish() error {
	for _, op := range o.cur.ops {
		if i, live := o.index[op.key]; op.first && live {
			o.slots[i].Leaf = uint32(o.rng.Intn(o.numLeaves))
		}
	}
	o.maxStash = max(o.maxStash, len(o.stash))
	if err := o.evict(); err != nil {
		return err
	}
	if o.stashGauge != nil {
		o.stashGauge.Add(int64(len(o.stash) - o.prevStash))
		o.prevStash = len(o.stash)
	}
	if len(o.stash) > o.stashLimit {
		return fmt.Errorf("%w: %d blocks > limit %d", ErrStashOverflow, len(o.stash), o.stashLimit)
	}
	for k := range o.cur.ops {
		op := &o.cur.ops[k]
		op.out = o.outBuf[k*o.levels : (k+1)*o.levels : (k+1)*o.levels]
		// A bucket's ciphertext sits in its first path's place, which no
		// other node's is; the first path's are all in place.
		for l, nd := o.levels-1, op.node; k > 0 && l >= 0; l, nd = l-1, o.nodes[nd].parent {
			op.out[l] = o.outBuf[int(o.nodes[nd].opener)*o.levels+l]
		}
	}
	o.owed = len(o.cur.ops)
	return nil
}

// layNodes lays out the union of the batch's paths as nodes, a level at a
// time from the root, each level's in the order of their place in it — so a
// node's children come after it and a level's leaves below it are a run —
// and notes each access's leaf node and each node's first access. A batch of
// one, every direct access, is one path: a node a level, each the parent of
// the next, laid out without sorting or searching.
func (o *ORAM) layNodes() {
	leafLevel := o.levels - 1
	o.nodes = o.nodes[:0]
	if len(o.cur.ops) == 1 {
		leaf := o.cur.ops[0].leaf
		o.nodes = slices.Grow(o.nodes, o.levels)[:o.levels]
		for l := range o.nodes {
			o.levelAt[l] = l
			o.nodes[l] = node{prefix: leaf >> (leafLevel - l), level: int32(l), parent: int32(l - 1), enter: empty, carry: empty}
		}
		o.levelAt[o.levels] = o.levels
		o.cur.ops[0].node = int32(leafLevel)
		return
	}
	o.leaves = o.leaves[:0]
	for _, op := range o.cur.ops {
		o.leaves = append(o.leaves, op.leaf)
	}
	slices.Sort(o.leaves)
	o.leaves = slices.Compact(o.leaves)
	for l := 0; l < o.levels; l++ {
		o.levelAt[l] = len(o.nodes)
		parent := int32(-1)
		if l > 0 {
			parent = int32(o.levelAt[l-1])
		}
		for _, leaf := range o.leaves {
			prefix := leaf >> (leafLevel - l)
			if len(o.nodes) > o.levelAt[l] && o.nodes[len(o.nodes)-1].prefix == prefix {
				continue
			}
			for l > 0 && o.nodes[parent].prefix != prefix>>1 {
				parent++
			}
			o.nodes = append(o.nodes, node{prefix: prefix, level: int32(l), parent: parent, opener: -1, enter: empty, carry: empty})
		}
	}
	o.levelAt[o.levels] = len(o.nodes)
	for k := range o.cur.ops {
		op := &o.cur.ops[k]
		op.node = o.nodeAt(leafLevel, op.leaf)
		// An earlier access that reached a node reached its ancestors too.
		for nd := op.node; nd >= 0 && o.nodes[nd].opener < 0; nd = o.nodes[nd].parent {
			o.nodes[nd].opener = int32(k)
		}
	}
}

// nodeAt returns the node of the level-l bucket whose place is prefix, the
// first after it when the batch's paths do not pass there.
func (o *ORAM) nodeAt(l int, prefix uint32) int32 {
	lo, hi := o.levelAt[l], o.levelAt[l+1]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if o.nodes[mid].prefix < prefix {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo)
}

// evict builds fresh contents for every bucket of the batch's nodes, seals
// each once, and leaves the ciphertext in outBuf at its first path's place. A
// stashed block may enter the buckets its assigned path shares with the
// union; the deepest is on the path of the fetched leaf nearest its own in
// order, leafLevel − bits.Len32(assigned ^ leaf) deep. One pass over the stash
// list sorts the blocks by that bucket; filling then walks the nodes from the
// leaves up, each bucket taking up to Z of the blocks that became eligible at
// it or that its children could not place, the last of them first — the
// greedy placement of the textbook construction, deepest first, in
// O(stash·log r + nodes·Z). What is left over at the root is the new stash
// list. At r = 1 the nodes are one path and this is the single-path eviction,
// block for block.
func (o *ORAM) evict() error {
	leafLevel := o.levels - 1
	lo, hi := o.levelAt[leafLevel], o.levelAt[o.levels] // the leaf buckets
	o.next = slices.Grow(o.next[:0], len(o.stash))[:len(o.stash)]
	for p, i := range o.stash {
		a, nd := o.slots[i].Leaf, int32(lo)
		if hi-lo > 1 {
			nd = min(o.nodeAt(leafLevel, a), int32(hi-1))
		}
		depth := bits.Len32(a ^ o.nodes[nd].prefix)
		if int(nd) > lo {
			depth = min(depth, bits.Len32(a^o.nodes[nd-1].prefix))
		}
		at := int32(o.levelAt[leafLevel-depth]) // a path's only node at that level
		if hi-lo > 1 {
			at = o.nodeAt(leafLevel-depth, a>>depth)
		}
		e := &o.nodes[at].enter
		e.head, o.next[p] = int32(p), e.head
		if e.tail < 0 {
			e.tail = e.head
		}
	}
	n := len(o.cur.ops) * o.levels
	o.outBuf = slices.Grow(o.outBuf[:0], n)[:n]
	left := o.spare[:0]
	for j := len(o.nodes) - 1; j >= 0; j-- {
		nd := &o.nodes[j]
		pending := nd.enter.then(nd.carry, o.next) // the carried blocks, then the entering ones, last first
		clear(o.sealBuf)                           // places left unfilled are dummies
		for pt := o.sealBuf; len(pt) > 0 && pending.head >= 0; pt = pt[o.blockSize:] {
			i := o.stash[pending.head]
			pending.head = o.next[pending.head]
			// Stamp a fresh version into the outgoing copy; the client-held
			// tag is what later reads are checked against.
			s := &o.slots[i]
			if err := o.putBlock(pt[:o.blockSize], s.Key, o.value(i), s.Ver+1); err != nil {
				return err
			}
			s.Ver, s.Tagged, s.Stashed = s.Ver+1, true, false
		}
		ct, err := o.sealBucket(1<<nd.level - 1 + int(nd.prefix))
		if err != nil {
			return err
		}
		o.outBuf[int(nd.opener)*o.levels+int(nd.level)] = ct
		if nd.parent >= 0 {
			up := &o.nodes[nd.parent]
			up.carry = pending.then(up.carry, o.next)
			continue
		}
		for p := pending.head; p >= 0; p = o.next[p] {
			left = append(left, o.stash[p])
		}
	}
	slices.Reverse(left)
	o.stash, o.spare = left, o.stash[:0]
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
// flag(1) ∥ version(8) ∥ padded key ∥ value. A dummy is the place left zero.
func (o *ORAM) putBlock(pt []byte, key string, value []byte, ver uint64) error {
	pt[0] = 1
	binary.BigEndian.PutUint64(pt[1:1+verWidth], ver)
	keyEnd := 1 + verWidth + crypto.PadWidth(o.keyWidth)
	if err := crypto.PadInto(pt[1+verWidth:keyEnd], key, o.keyWidth); err != nil {
		return fmt.Errorf("oram: padding key: %w", err)
	}
	copy(pt[keyEnd:], value)
	return nil
}

// parseBlock reads one block of an opened bucket. real is false for a dummy;
// key and value alias pt.
func (o *ORAM) parseBlock(pt []byte) (key, value []byte, ver uint64, real bool, err error) {
	if pt[0] == 0 {
		return nil, nil, 0, false, nil
	}
	keyEnd := 1 + verWidth + crypto.PadWidth(o.keyWidth)
	key, err = crypto.Unpad(pt[1+verWidth : keyEnd])
	if err != nil {
		return nil, nil, 0, false, o.integrityErr("unpadding key", err)
	}
	return key, pt[keyEnd:], binary.BigEndian.Uint64(pt[1 : 1+verWidth]), true, nil
}
