package oram

import (
	"encoding/binary"
	"fmt"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/telemetry"
)

// Store is the oblivious key-value interface the protocols consume
// (Definition 4's Read/Write, the Remove needed by Algorithm 5, and the
// read-modify-write Update all three are instances of). Two implementations
// exist:
//
//   - ORAM — non-recursive PathORAM: O(log n) per access, O(n) client
//     memory (position map + stash). The paper's choice.
//   - Linear — the trivial scan ORAM: O(n) per access, O(1) client
//     memory. Perfectly oblivious by construction, and faster than
//     PathORAM below a small crossover n because it has no per-access
//     tree bookkeeping (the ORAM-choice ablation quantifies it). Related
//     work's point that "any [ORAM] optimization can be applied easily"
//     (§VIII) holds because everything consumes this interface.
type Store interface {
	// Read retrieves the value under key (found=false for absent keys;
	// the access pattern must not depend on which).
	Read(key string) (value []byte, found bool, err error)
	// Write inserts or overwrites key.
	Write(key string, value []byte) error
	// Remove deletes key if present, indistinguishably from Read/Write.
	Remove(key string) error
	// Update hands fn the value under key (or its absence) and keeps what
	// fn returns, in one access that is indistinguishable from the others.
	Update(key string, fn UpdateFunc) error
	// Len returns the number of live keys.
	Len() int
	// Accesses counts oblivious accesses performed.
	Accesses() int64
	// ClientMemoryBytes estimates client-held state.
	ClientMemoryBytes() int
	// CheckpointState captures the client-held state for a client-local
	// checkpoint file; oram.ResumeStore rebuilds the handle from it.
	CheckpointState() *StoreState
	// SetTelemetry attaches (or, with nil, detaches) a metrics registry;
	// used to re-instrument handles rebuilt from checkpoints.
	SetTelemetry(reg *telemetry.Registry)
	// Destroy frees the server-side object.
	Destroy() error
}

var (
	_ Store = (*ORAM)(nil)
	_ Store = (*Linear)(nil)
)

// Factory builds a Store; engines take one so the ORAM construction is
// pluggable.
type Factory func(svc store.Service, cipher *crypto.Cipher, name string, cfg Config) (Store, error)

// PathFactory builds the paper's PathORAM.
func PathFactory(svc store.Service, cipher *crypto.Cipher, name string, cfg Config) (Store, error) {
	return Setup(svc, cipher, name, cfg)
}

// LinearFactory builds the trivial scan ORAM.
func LinearFactory(svc store.Service, cipher *crypto.Cipher, name string, cfg Config) (Store, error) {
	return SetupLinear(svc, cipher, name, cfg)
}

// Linear is the trivial ORAM: one server array of capacity slots; every
// access reads every slot, serves the operation, and rewrites every slot
// under fresh encryption. The access pattern is the full scan regardless of
// data — obliviousness by brute force. The client holds only the slot
// cursor: no position map, no stash.
//
// Freshness needs only O(1) client state here: because every access rewrites
// every slot, all slots always carry the same version, so one global counter
// (ver) detects any replayed or rolled-back slot. The associated data binds
// each ciphertext to its slot index, so swapped slots are caught too.
type Linear struct {
	svc        store.Service
	cipher     *crypto.Cipher
	name       string
	capacity   int
	keyWidth   int
	valueWidth int
	blockSize  int
	live       int
	accesses   int64
	ver        uint64 // version stamped into every slot by the last write pass

	reg       *telemetry.Registry
	accessCtr *telemetry.Counter
}

// slotAD is the associated-data slot binding a ciphertext to (array, index).
func (l *Linear) slotAD(i int) []byte {
	return []byte(fmt.Sprintf("lor:%s:%d", l.name, i))
}

// integrityErr wraps a verification failure in store.ErrIntegrity.
func (l *Linear) integrityErr(what string, cause error) error {
	if cause != nil {
		return fmt.Errorf("oram %q: %s: %v: %w", l.name, what, cause, store.ErrIntegrity)
	}
	return fmt.Errorf("oram %q: %s: %w", l.name, what, store.ErrIntegrity)
}

// SetTelemetry implements Store.
func (l *Linear) SetTelemetry(reg *telemetry.Registry) {
	l.reg = reg
	l.accessCtr = reg.Counter("oblivfd_oram_accesses_total")
}

// SetupLinear creates an empty linear ORAM with every slot holding an
// encrypted dummy (Z and StashFactor are ignored; the construction has no
// buckets or stash).
func SetupLinear(svc store.Service, cipher *crypto.Cipher, name string, cfg Config) (*Linear, error) {
	if cfg.Capacity < 1 {
		return nil, fmt.Errorf("oram: capacity %d < 1", cfg.Capacity)
	}
	if cfg.KeyWidth < 1 || cfg.ValueWidth < 1 {
		return nil, fmt.Errorf("oram: key/value widths must be positive (got %d, %d)", cfg.KeyWidth, cfg.ValueWidth)
	}
	l := &Linear{
		svc:        svc,
		cipher:     cipher,
		name:       name,
		capacity:   cfg.Capacity,
		keyWidth:   cfg.KeyWidth,
		valueWidth: cfg.ValueWidth,
		blockSize:  1 + verWidth + crypto.PadWidth(cfg.KeyWidth) + cfg.ValueWidth,
	}
	if cfg.Metrics != nil {
		l.SetTelemetry(cfg.Metrics)
	}
	if err := svc.CreateArray(name, cfg.Capacity); err != nil {
		return nil, fmt.Errorf("oram: creating linear array: %w", err)
	}
	// From here on the array is ours, and on failure no handle to it will
	// ever exist: delete it, best effort, and report the failure itself.
	fail := func(err error) (*Linear, error) {
		_ = svc.Delete(name)
		return nil, err
	}
	for i := 0; i < cfg.Capacity; i++ {
		ct, err := l.encrypt("", nil, false, 0, i)
		if err != nil {
			return fail(err)
		}
		if err := svc.WriteCells(name, []int64{int64(i)}, [][]byte{ct}); err != nil {
			return fail(fmt.Errorf("oram: initializing linear array: %w", err))
		}
	}
	return l, nil
}

// encrypt seals a slot as flag(1) ∥ version(8) ∥ padded key ∥ value, bound
// to its slot index. Dummies carry the version too, so a replayed dummy is
// as detectable as a replayed real block.
func (l *Linear) encrypt(key string, value []byte, real bool, ver uint64, idx int) ([]byte, error) {
	pt := make([]byte, l.blockSize)
	binary.BigEndian.PutUint64(pt[1:1+verWidth], ver)
	if real {
		pt[0] = 1
		padded, err := crypto.Pad([]byte(key), l.keyWidth)
		if err != nil {
			return nil, fmt.Errorf("oram: padding key: %w", err)
		}
		copy(pt[1+verWidth:], padded)
		copy(pt[1+verWidth+len(padded):], value)
	}
	return l.cipher.Seal(pt, l.slotAD(idx))
}

// decrypt authenticates a slot against its index and expected version.
func (l *Linear) decrypt(ct []byte, idx int, wantVer uint64) (key string, value []byte, real bool, err error) {
	pt, err := l.cipher.Open(ct, l.slotAD(idx))
	if err != nil {
		return "", nil, false, l.integrityErr(fmt.Sprintf("slot %d authentication failed", idx), err)
	}
	if len(pt) != l.blockSize {
		return "", nil, false, l.integrityErr(fmt.Sprintf("slot %d has %d bytes, want %d", idx, len(pt), l.blockSize), nil)
	}
	if ver := binary.BigEndian.Uint64(pt[1 : 1+verWidth]); ver != wantVer {
		return "", nil, false, l.integrityErr(fmt.Sprintf("stale slot %d: version %d, want %d", idx, ver, wantVer), nil)
	}
	if pt[0] == 0 {
		return "", nil, false, nil
	}
	keyEnd := 1 + verWidth + crypto.PadWidth(l.keyWidth)
	rawKey, err := crypto.Unpad(pt[1+verWidth : keyEnd])
	if err != nil {
		return "", nil, false, l.integrityErr(fmt.Sprintf("unpadding key of slot %d", idx), err)
	}
	v := make([]byte, l.valueWidth)
	copy(v, pt[keyEnd:])
	return string(rawKey), v, true, nil
}

// access performs two full scans: a read pass that locates the key (and
// the first free slot), then a write pass that rewrites every slot under
// fresh encryption, applying what fn decided at no more than one position.
// The trace is always capacity reads followed by capacity writes, in order —
// independent of the operation, its outcome, and the data.
func (l *Linear) access(key string, fn UpdateFunc) error {
	if len(key) > l.keyWidth {
		return fmt.Errorf("%w: %d bytes, max %d", ErrKeyWidth, len(key), l.keyWidth)
	}
	l.accesses++
	l.accessCtr.Inc()
	sp := l.reg.StartSpan("oram/access")
	defer sp.End()

	// Read pass: one block of client memory at a time.
	matchIdx, firstFree := -1, -1
	var old []byte
	for i := 0; i < l.capacity; i++ {
		cts, err := l.svc.ReadCells(l.name, []int64{int64(i)})
		if err != nil {
			return fmt.Errorf("oram: %w", err)
		}
		k, v, real, err := l.decrypt(cts[0], i, l.ver)
		if err != nil {
			return err
		}
		switch {
		case real && k == key && matchIdx == -1:
			matchIdx = i
			old = v
		case !real && firstFree == -1:
			firstFree = i
		}
	}
	found := matchIdx != -1
	value, keep := fn(old, found)
	insertAt := -1
	switch {
	case keep && len(value) != l.valueWidth:
		return fmt.Errorf("%w: got %d bytes, want %d", ErrValueWidth, len(value), l.valueWidth)
	case keep && !found:
		if firstFree == -1 {
			return fmt.Errorf("oram: linear ORAM full (%d keys)", l.capacity)
		}
		insertAt = firstFree
	}

	// Write pass: every slot rewritten; at most one slot's contents change.
	// Slot i is always re-read before it is overwritten, so the read side
	// still expects the old version while the written copy carries the new
	// one; bumping l.ver after the loop commits the whole pass at once.
	for i := 0; i < l.capacity; i++ {
		cts, err := l.svc.ReadCells(l.name, []int64{int64(i)})
		if err != nil {
			return fmt.Errorf("oram: %w", err)
		}
		k, v, real, err := l.decrypt(cts[0], i, l.ver)
		if err != nil {
			return err
		}
		switch {
		case i == matchIdx && keep:
			v = value
		case i == matchIdx:
			k, v, real = "", nil, false
		case i == insertAt:
			k, v, real = key, value, true
		}
		ct, err := l.encrypt(k, v, real, l.ver+1, i)
		if err != nil {
			return err
		}
		if err := l.svc.WriteCells(l.name, []int64{int64(i)}, [][]byte{ct}); err != nil {
			return fmt.Errorf("oram: %w", err)
		}
	}
	l.ver++
	switch {
	case keep && !found:
		l.live++
	case !keep && found:
		l.live--
	}
	return nil
}

// Read implements Store.
func (l *Linear) Read(key string) (value []byte, found bool, err error) {
	err = l.access(key, func(old []byte, ok bool) ([]byte, bool) {
		value, found = old, ok // old is this access's own copy
		return old, ok
	})
	if err != nil {
		return nil, false, err
	}
	return value, found, nil
}

// Write implements Store.
func (l *Linear) Write(key string, value []byte) error {
	if len(value) != l.valueWidth {
		return fmt.Errorf("%w: got %d bytes, want %d", ErrValueWidth, len(value), l.valueWidth)
	}
	return l.access(key, func([]byte, bool) ([]byte, bool) { return value, true })
}

// Remove implements Store.
func (l *Linear) Remove(key string) error {
	return l.access(key, func([]byte, bool) ([]byte, bool) { return nil, false })
}

// Update implements Store.
func (l *Linear) Update(key string, fn UpdateFunc) error { return l.access(key, fn) }

// Len implements Store.
func (l *Linear) Len() int { return l.live }

// Accesses implements Store.
func (l *Linear) Accesses() int64 { return l.accesses }

// ClientMemoryBytes implements Store: one block in flight plus counters and
// the global freshness version.
func (l *Linear) ClientMemoryBytes() int { return l.blockSize + 16 + verWidth }

// Destroy implements Store.
func (l *Linear) Destroy() error { return l.svc.Delete(l.name) }
