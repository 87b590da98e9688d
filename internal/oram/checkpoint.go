package oram

import (
	"fmt"
	"slices"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/store"
)

// Client-side checkpointing: an ORAM's secret client state (position map and
// stash — exactly the data that must never reach the server) is small, so it
// serializes into a client-local checkpoint file and reattaches to the
// server-side tree on resume. The tree itself is NOT part of the state: the
// durable server persists it independently, and resume only works against a
// server whose storage matches the moment the state was captured (the
// engines enforce that with recovery epochs).

// State is the serializable client state of a PathORAM handle, laid out as the
// handle holds it: one Slot per live key and the value slab beside them. The
// tree's shape is not stored; it follows from Capacity as it does in Setup.
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

// State captures the client state, copied, so later accesses on the live
// handle cannot mutate the checkpoint. The resumed handle gets a fresh RNG
// seed drawn from the live one; leaf choices after resume differ from the
// uninterrupted run's, which is invisible to the adversary (both are uniform)
// and irrelevant to correctness.
func (o *ORAM) State() *State {
	seed := o.rng.Int63()
	if seed == 0 {
		seed = 1
	}
	return &State{
		Name:       o.name,
		Capacity:   o.capacity,
		Z:          o.z,
		KeyWidth:   o.keyWidth,
		ValueWidth: o.valueWidth,
		StashLimit: o.stashLimit,
		MaxStash:   o.maxStash,
		Accesses:   o.accesses,
		Seed:       seed,
		Slots:      slices.Clone(o.slots),
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
	o := &ORAM{
		svc:        svc,
		cipher:     cipher,
		name:       st.Name,
		capacity:   st.Capacity,
		z:          st.Z,
		keyWidth:   st.KeyWidth,
		valueWidth: st.ValueWidth,
		index:      make(map[string]int32, len(st.Slots)),
		slots:      slices.Clone(st.Slots),
		values:     slices.Clone(st.Values),
		stashLimit: st.StashLimit,
		maxStash:   st.MaxStash,
		accesses:   st.Accesses,
		rng:        newRNG(st.Seed),
	}
	o.initScratch()
	for i, s := range st.Slots {
		o.index[s.Key] = int32(i)
		if s.Stashed {
			o.stash = append(o.stash, int32(i))
		}
	}
	return o, nil
}

// validate refuses a state that describes no handle an access ever left
// behind, naming the key at fault where there is one.
func (st *State) validate() error {
	switch {
	case st == nil:
		return fmt.Errorf("oram: resume: no state")
	case st.Name == "":
		return fmt.Errorf("oram: resume: empty object name")
	case st.Z < 1 || st.StashLimit < 1:
		return fmt.Errorf("oram: resume %q: bucket size %d, stash limit %d: both must be ≥ 1", st.Name, st.Z, st.StashLimit)
	case len(st.Values) != len(st.Slots)*st.ValueWidth:
		return fmt.Errorf("oram: resume %q: %d value bytes for %d slots of %d", st.Name, len(st.Values), len(st.Slots), st.ValueWidth)
	}
	if err := checkShape(st.Name, st.Capacity, st.KeyWidth, st.ValueWidth); err != nil {
		return fmt.Errorf("oram: resume: %w", err)
	}
	_, numLeaves := shape(st.Capacity)
	seen := make(map[string]bool, len(st.Slots))
	for _, s := range st.Slots {
		switch {
		case int(s.Leaf) >= numLeaves:
			return fmt.Errorf("oram: resume %q: key %q maps to leaf %d of %d", st.Name, s.Key, s.Leaf, numLeaves)
		case len(s.Key) > st.KeyWidth:
			return fmt.Errorf("oram: resume %q: key %q has %d bytes, max %d", st.Name, s.Key, len(s.Key), st.KeyWidth)
		case seen[s.Key]:
			return fmt.Errorf("oram: resume %q: key %q has two slots", st.Name, s.Key)
		}
		seen[s.Key] = true
	}
	return nil
}
