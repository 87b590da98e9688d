package oram

import (
	"fmt"
	"slices"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/store"
)

// State is the serializable client state of a PathORAM handle — its position
// map and stash, exactly the data that must never reach the server: one Slot
// per live key, in slot order, and the value slab beside them. It goes into a
// client-local checkpoint file and reattaches to the server-side tree on
// resume; the tree is not part of it (the durable server persists it, and the
// engines' recovery epochs make sure it is the tree the state was taken
// against). The shape follows from Capacity as it does in Setup; Z and
// StashLimit are always the paper's, DefaultZ and 7·⌈lg Capacity⌉, and Resume
// refuses a state that records others.
type State struct {
	Name       string
	Capacity   int
	Z          int
	KeyWidth   int
	ValueWidth int
	StashLimit int
	MaxStash   int
	Accesses   int64
	Seed       int64 // seeds the resumed handle's leaf-choice RNG
	Slots      []Slot
	// Values holds ValueWidth bytes per slot, meaningful while the slot is
	// stashed.
	Values []byte
}

// A Slot is one live key's client state as State records it: the key, the
// leaf its block is assigned to, its version (see entry), and whether the
// block is in the stash, its value then in the slot's part of the value slab.
type Slot struct {
	Key     string
	Leaf    uint32
	Ver     uint32
	Stashed bool
}

// State captures the client state, copied, so later accesses on the live
// handle cannot mutate the checkpoint. The resumed handle gets a fresh RNG
// seed drawn from the live one; leaf choices after resume differ from the
// uninterrupted run's, which is invisible to the adversary (both are uniform)
// and irrelevant to correctness.
func (o *ORAM) State() *State {
	seed := o.pl.rng.Int63()
	if seed == 0 {
		seed = 1
	}
	slots := make([]Slot, len(o.entries))
	for i, e := range o.entries {
		slots[i] = Slot{Key: e.key, Leaf: o.pl.slots[i].leaf, Ver: e.ver, Stashed: o.pl.slots[i].stashed}
	}
	return &State{
		Name:       o.name,
		Capacity:   o.capacity,
		Z:          o.pl.z,
		KeyWidth:   o.keyWidth,
		ValueWidth: o.valueWidth,
		StashLimit: stashLimit(o.capacity),
		MaxStash:   o.maxStash,
		Accesses:   o.accesses,
		Seed:       seed,
		Slots:      slots,
		Values:     slices.Clone(o.values),
	}
}

// Resume rebuilds a PathORAM handle from captured state, attaching to the
// existing server-side tree (no creation, no re-initialization). The
// server's tree must be in exactly the state it had when State was captured;
// the caller is responsible for that invariant (see core.Resume).
func Resume(svc store.Service, cipher *crypto.Cipher, st *State) (*ORAM, error) {
	if err := st.validate(); err != nil {
		return nil, err
	}
	o, err := New(svc, cipher, st.Name, Config{Capacity: st.Capacity, KeyWidth: st.KeyWidth, ValueWidth: st.ValueWidth, Seed: st.Seed})
	if err != nil {
		return nil, err
	}
	o.maxStash, o.accesses = st.MaxStash, st.Accesses
	for i, s := range st.Slots {
		_, dup := o.index[s.Key]
		switch {
		case int(s.Leaf) >= o.pl.numLeaves:
			return nil, fmt.Errorf("oram: resume %q: key %q maps to leaf %d of %d", st.Name, s.Key, s.Leaf, o.pl.numLeaves)
		case len(s.Key) > st.KeyWidth:
			return nil, fmt.Errorf("oram: resume %q: key %q has %d bytes, max %d", st.Name, s.Key, len(s.Key), st.KeyWidth)
		case dup:
			return nil, fmt.Errorf("oram: resume %q: key %q has two slots", st.Name, s.Key)
		}
		o.add(s.Key, s.Leaf, s.Ver, st.Values[i*st.ValueWidth:(i+1)*st.ValueWidth], s.Stashed)
	}
	return o, nil
}

// validate refuses a state whose shape or parameters no handle has; Resume
// refuses, naming the key, a slot no access ever left behind.
func (st *State) validate() error {
	switch {
	case st == nil:
		return fmt.Errorf("oram: resume: no state")
	case st.Name == "":
		return fmt.Errorf("oram: resume: empty object name")
	case len(st.Values) != len(st.Slots)*st.ValueWidth:
		return fmt.Errorf("oram: resume %q: %d value bytes for %d slots of %d", st.Name, len(st.Values), len(st.Slots), st.ValueWidth)
	}
	if err := checkShape(st.Name, st.Capacity, st.KeyWidth, st.ValueWidth); err != nil {
		return fmt.Errorf("oram: resume: %w", err)
	}
	if limit := stashLimit(st.Capacity); st.Z != DefaultZ || st.StashLimit != limit {
		return fmt.Errorf("oram: resume %q: bucket size %d, stash limit %d: a handle of capacity %d has %d and %d",
			st.Name, st.Z, st.StashLimit, st.Capacity, DefaultZ, limit)
	}
	return nil
}
