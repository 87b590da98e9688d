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
// The bucket is the unit of encryption, as in Stefanov et al.: a bucket's Z
// blocks — real and dummy side by side, each flag ∥ version ∥ padded key ∥
// value — are sealed as one ciphertext bound to the bucket's place in the
// tree, and the server stores one such ciphertext per bucket. Its length is
// Z·blockSize plus the AEAD's 28 bytes, a function of Config alone: how many
// of a bucket's blocks are real changes the plaintext's content, never its
// size. Setup fills the entire tree with sealed all-dummy buckets (one linear
// WriteBuckets pass), exactly as the textbook construction requires, so
// everything the server ever holds is a same-sized semantically secure
// ciphertext and path-read sizes are constant and carry nothing.
package oram

import (
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
	// n). The tree is sized to the next power of two.
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

	// cur is the access in flight, between begin and end; a handle runs one
	// at a time. owedTo is the pipeline holding the handle's last write-back
	// until it lands: only that pipeline may begin the next access, whose
	// fetch it sends behind the write-back. failed, once set, refuses every
	// further access: an access stopped after its path was absorbed into the
	// stash and before its write-back reached the server leaves the two out of
	// step for good.
	cur    inflight
	owedTo *Pipeline
	failed error

	// Scratch reused across accesses so the steady-state path read/write
	// loop allocates only what must escape: one ciphertext per bucket headed
	// for the server (a block entering the stash is copied into its slot).
	// Each ciphertext is its own allocation on purpose: the in-process server retains the
	// exact slices it is handed, and a leaf bucket outlives the root bucket
	// written beside it by about numLeaves accesses, so buckets carved from
	// one slab would pin the whole slab for as long as its longest-lived
	// member. The scratch is a constant per handle, outside
	// ClientMemoryBytes, and another reason a handle is not safe for
	// concurrent use.
	openBuf  []byte    // the bucket plaintext being parsed (via OpenTo)
	sealBuf  []byte    // the bucket plaintext being staged for sealBucket
	evictBuf [][]byte  // evict's outgoing buckets; every entry overwritten per call
	byLevel  [][]int32 // evict: stashed slots by deepest bucket they may enter
	pending  []int32   // evict: slots eligible at the level being filled, not yet placed

	// Telemetry handles, nil when disabled. stashGauge is shared across
	// every ORAM on the registry and updated by delta, so it reads as the
	// total stashed blocks across all live ORAMs; prevStash tracks this
	// handle's last contribution.
	pathReads  *telemetry.Counter
	pathWrites *telemetry.Counter
	accessCtr  *telemetry.Counter
	stashGauge *telemetry.Gauge
	prevStash  int
}

// SetTelemetry attaches (or, with nil, detaches) a telemetry registry.
// core.Resume uses it to re-instrument handles rebuilt from checkpoints.
func (o *ORAM) SetTelemetry(reg *telemetry.Registry) {
	o.pathReads = reg.Counter("oblivfd_oram_path_reads_total")
	o.pathWrites = reg.Counter("oblivfd_oram_path_writes_total")
	o.accessCtr = reg.Counter("oblivfd_oram_accesses_total")
	o.stashGauge = reg.Gauge("oblivfd_oram_stash_blocks")
	o.prevStash = 0
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
	o.evictBuf = make([][]byte, o.levels)
	o.byLevel = make([][]int32, o.levels)
}

// shape is the tree for a capacity: the next power of two ≥ capacity leaves,
// at least two, and the levels from root to leaf.
func shape(capacity int) (levels, numLeaves int) {
	d := ceilLog2(capacity)
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

// initTree fills every bucket with sealed dummy blocks, as in the textbook
// construction, so the initial state is indistinguishable from any later
// state and path-read sizes never depend on access history.
func (o *ORAM) initTree() error {
	const bucketsPerBatch = 256
	totalBuckets := (1 << o.levels) - 1
	clear(o.sealBuf) // Z dummies
	for start := 0; start < totalBuckets; start += bucketsPerBatch {
		count := bucketsPerBatch
		if start+count > totalBuckets {
			count = totalBuckets - start
		}
		buckets := make([][]byte, count)
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

// StashSize returns the current number of stashed blocks.
func (o *ORAM) StashSize() int { return len(o.stash) }

// MaxStashSize returns the stash high-water mark since Setup.
func (o *ORAM) MaxStashSize() int { return o.maxStash }

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

// inflight is one access between its two server calls.
type inflight struct {
	stage stage
	key   string
	leaf  uint32
	slot  int32 // the key's slot, or -1 when it was not live as the access began
}

type stage uint8

const (
	idle   stage = iota
	begun        // leaf chosen; nothing fetched has been taken in
	served       // path absorbed, function applied, write-back built but not known to have landed
)

// access is the single PathORAM access routine behind Read, Write, Remove and
// Update, so their server-visible behaviour is identical by construction. Its
// three steps — begin, serve, end — are also what a Pipeline runs, with the
// two server calls between them fused with other handles' and end split into
// owe and settle around the write-back's round.
func (o *ORAM) access(key string, fn UpdateFunc) (err error) {
	leaf, err := o.begin(key, nil)
	if err != nil {
		return err
	}
	defer func() { o.end(err) }()
	buckets, err := o.svc.ReadPath(o.name, leaf)
	if err != nil {
		return fmt.Errorf("oram: %w", err)
	}
	out, err := o.serve(buckets, fn)
	if err != nil {
		return err
	}
	if err := o.svc.WritePath(o.name, leaf, out); err != nil {
		return fmt.Errorf("oram: %w", err)
	}
	return nil
}

// ready says why an access to key, asked for by pipeline p (nil for a direct
// access), cannot begin, and changes nothing: the handle has lost a
// write-back, is in the middle of another access or owes a write-back that p
// does not hold, or the key does not fit.
func (o *ORAM) ready(key string, p *Pipeline) error {
	switch {
	case o.failed != nil:
		return fmt.Errorf("oram %q: unusable since an access failed midway: %w", o.name, o.failed)
	case o.cur.stage != idle, o.owedTo != nil && o.owedTo != p:
		return fmt.Errorf("oram %q: access to %q while another is in flight", o.name, key)
	case len(key) > o.keyWidth:
		return fmt.Errorf("%w: %d bytes, max %d", ErrKeyWidth, len(key), o.keyWidth)
	}
	return nil
}

// begin opens an access to key for p and returns the leaf whose path it
// needs. The leaf is the key's position-map entry or, for a key that has none,
// a fresh uniform draw: it is fixed before anything about the key is fetched,
// and a write-back still owed has already taken its remap into account.
func (o *ORAM) begin(key string, p *Pipeline) (uint32, error) {
	if err := o.ready(key, p); err != nil {
		return 0, err
	}
	o.accesses++
	o.accessCtr.Inc()
	var leaf uint32
	i, known := o.index[key]
	if known {
		leaf = o.slots[i].Leaf
	} else {
		// Dummy path: uniformly random, like any remapped leaf.
		i, leaf = -1, uint32(o.rng.Intn(o.numLeaves))
	}
	o.cur = inflight{stage: begun, key: key, leaf: leaf, slot: i}
	return leaf, nil
}

// end closes the access in flight. err is what stopped it, nil once its
// write-back is on the server. An access stopped before serve took the path
// in has changed nothing; one stopped later has emptied the stash into a
// write-back the server may never have seen, and the handle is refused from
// then on rather than left to diverge silently.
func (o *ORAM) end(err error) {
	if o.cur.stage == served {
		o.settle(err)
	}
	o.cur = inflight{}
}

// owe hands the served access's write-back to p, which sends it: the handle
// is between accesses again, but only p may begin the next one until it
// settles the write-back.
func (o *ORAM) owe(p *Pipeline) { o.cur, o.owedTo = inflight{}, p }

// settle closes the write-back the handle owes: err is nil once it is on the
// server, and otherwise what lost it, which the handle refuses every further
// access with.
func (o *ORAM) settle(err error) {
	if err != nil {
		o.failed = err
	} else {
		o.pathWrites.Inc()
	}
	o.owedTo = nil
}

// serve takes the fetched path of the access in flight into the stash,
// applies fn to the key's value, and returns the re-encrypted path to write
// back. The slice is the handle's own and is valid until its next access.
func (o *ORAM) serve(buckets [][]byte, fn UpdateFunc) ([][]byte, error) {
	key, leaf := o.cur.key, o.cur.leaf
	o.cur.stage = served
	o.pathReads.Inc()

	// 1. Move the path's real blocks into the stash.
	if len(buckets) != o.levels {
		return nil, o.integrityErr(fmt.Sprintf("path to leaf %d has %d buckets, want %d", leaf, len(buckets), o.levels), nil)
	}
	for l, ct := range buckets {
		if len(ct) == 0 {
			// Setup leaves no empty buckets; an empty one means the server
			// dropped a ciphertext.
			return nil, o.integrityErr(fmt.Sprintf("empty bucket at level %d on path to leaf %d", l, leaf), nil)
		}
		pt, err := o.cipher.OpenTo(o.openBuf[:0], ct, o.bucketAD(o.pathBucket(leaf, l)))
		if err != nil {
			return nil, o.integrityErr(fmt.Sprintf("bucket authentication failed at level %d on path to leaf %d", l, leaf), err)
		}
		o.openBuf = pt // keep the (possibly grown) scratch for the next bucket
		if len(pt) != o.z*o.blockSize {
			return nil, o.integrityErr(fmt.Sprintf("bucket has %d bytes, want %d", len(pt), o.z*o.blockSize), nil)
		}
		for ; len(pt) > 0; pt = pt[o.blockSize:] {
			k, v, ver, real, err := o.parseBlock(pt[:o.blockSize])
			if err != nil {
				return nil, err
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
				return nil, o.integrityErr(fmt.Sprintf("replayed block %q (key not live)", k), nil)
			}
			s := &o.slots[i]
			if s.Stashed {
				return nil, o.integrityErr(fmt.Sprintf("duplicate copy of block %q (already stashed)", k), nil)
			}
			if ver != s.Ver {
				return nil, o.integrityErr(fmt.Sprintf("stale block %q: version %d, want %d", k, ver, s.Ver), nil)
			}
			s.Stashed = true
			copy(o.value(i), v)
			o.stash = append(o.stash, i)
		}
	}
	// Freshness of the path as a whole: a key the position map assigns to
	// this path must now be in the stash; otherwise the server suppressed
	// the real block (e.g. replayed an authentic older copy of its bucket
	// from before the block was placed there).
	i := o.cur.slot
	var old []byte
	found := i >= 0
	if found {
		if !o.slots[i].Stashed {
			return nil, o.integrityErr(fmt.Sprintf("block %q missing from its assigned path (leaf %d)", key, leaf), nil)
		}
		old = o.value(i)
	}

	// 2. Serve the operation from the stash. A key left present is remapped,
	// the standard PathORAM remap on every touch; one left absent has nothing
	// to remap, so a miss and a removal draw no leaf.
	switch value, keep := fn(old, found); {
	case !keep:
		if found {
			o.drop(i)
		}
	case len(value) != o.valueWidth:
		return nil, fmt.Errorf("%w: got %d bytes, want %d", ErrValueWidth, len(value), o.valueWidth)
	default:
		if found {
			copy(old, value)
		} else {
			i = o.add(key, 0, value, true)
		}
		o.slots[i].Leaf = uint32(o.rng.Intn(o.numLeaves))
	}

	o.maxStash = max(o.maxStash, len(o.stash))

	// 3. Evict: greedily push stash blocks as deep as possible along the
	// path just read, every bucket re-encrypted.
	out, err := o.evict(leaf)
	if err != nil {
		return nil, err
	}
	if o.stashGauge != nil {
		o.stashGauge.Add(int64(len(o.stash) - o.prevStash))
		o.prevStash = len(o.stash)
	}
	if len(o.stash) > o.stashLimit {
		return nil, fmt.Errorf("%w: %d blocks > limit %d", ErrStashOverflow, len(o.stash), o.stashLimit)
	}
	return out, nil
}

// evict builds fresh bucket contents for the path to leaf and returns them
// sealed, root first. Buckets are filled leaf-to-root with eligible stash blocks: a block
// may enter the buckets its assigned path shares with this one, the deepest
// being at level leafLevel − bits.Len32(assigned ^ leaf). One pass over the
// stash list sorts the slots by that level; filling then walks up from the
// leaf, each bucket taking up to Z of the slots that became eligible at its
// level or overflowed from below — the greedy placement of the textbook
// construction in O(stash + levels·Z). What is left over is the new stash
// list.
func (o *ORAM) evict(leaf uint32) ([][]byte, error) {
	leafLevel := o.levels - 1
	for l := range o.byLevel {
		o.byLevel[l] = o.byLevel[l][:0]
	}
	for _, i := range o.stash {
		l := leafLevel - bits.Len32(o.slots[i].Leaf^leaf)
		o.byLevel[l] = append(o.byLevel[l], i)
	}
	// Safe to reuse: every entry is overwritten below, and the server keeps
	// only the fresh per-bucket ciphertexts, never the outer slice.
	out := o.evictBuf
	pending := o.pending[:0]
	for l := leafLevel; l >= 0; l-- {
		pending = append(pending, o.byLevel[l]...)
		clear(o.sealBuf) // places left unfilled are dummies
		for pt := o.sealBuf; len(pt) > 0 && len(pending) > 0; pt = pt[o.blockSize:] {
			i := pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			// Stamp a fresh version into the outgoing copy; the client-held
			// tag is what later reads are checked against.
			s := &o.slots[i]
			if err := o.putBlock(pt[:o.blockSize], s.Key, o.value(i), s.Ver+1); err != nil {
				return nil, err
			}
			s.Ver, s.Tagged, s.Stashed = s.Ver+1, true, false
		}
		ct, err := o.sealBucket(o.pathBucket(leaf, l))
		if err != nil {
			return nil, err
		}
		out[l] = ct
	}
	// The stash list was copied out into byLevel: its array takes the next
	// call's pending.
	o.stash, o.pending = pending, o.stash[:0]
	return out, nil
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
