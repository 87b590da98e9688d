package oram

import (
	"fmt"

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

// State is the serializable client state of a PathORAM handle.
type State struct {
	Name       string
	Capacity   int
	Z          int
	Levels     int
	NumLeaves  int
	KeyWidth   int
	ValueWidth int
	StashLimit int
	MaxStash   int
	Accesses   int64
	Seed       int64 // seeds the resumed handle's leaf-choice RNG
	PosMap     map[string]uint32
	Stash      map[string][]byte
	// Vers holds the freshness tags (block versions) — without them a
	// resumed handle could not detect rollback of the server-side tree.
	Vers map[string]uint64
}

// State captures the client state as three maps built from the handle's
// slots, stashed values copied, so later accesses on the live handle cannot
// mutate the checkpoint. The resumed handle gets a
// fresh RNG seed drawn from the live one; leaf choices after resume differ
// from the uninterrupted run's, which is invisible to the adversary (both
// are uniform) and irrelevant to correctness.
func (o *ORAM) State() *State {
	seed := o.rng.Int63()
	if seed == 0 {
		seed = 1
	}
	st := &State{
		Name:       o.name,
		Capacity:   o.capacity,
		Z:          o.z,
		Levels:     o.levels,
		NumLeaves:  o.numLeaves,
		KeyWidth:   o.keyWidth,
		ValueWidth: o.valueWidth,
		StashLimit: o.stashLimit,
		MaxStash:   o.maxStash,
		Accesses:   o.accesses,
		Seed:       seed,
		PosMap:     make(map[string]uint32, len(o.slots)),
		Stash:      make(map[string][]byte, len(o.stash)),
		Vers:       make(map[string]uint64, len(o.slots)),
	}
	for i, s := range o.slots {
		st.PosMap[s.key] = s.leaf
		if s.tagged {
			st.Vers[s.key] = s.ver
		}
		if s.stashed {
			st.Stash[s.key] = append([]byte(nil), o.value(int32(i))...)
		}
	}
	return st
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
		levels:     st.Levels,
		numLeaves:  st.NumLeaves,
		keyWidth:   st.KeyWidth,
		valueWidth: st.ValueWidth,
		index:      make(map[string]int32, len(st.PosMap)),
		stashLimit: st.StashLimit,
		maxStash:   st.MaxStash,
		accesses:   st.Accesses,
		rng:        newRNG(st.Seed),
	}
	o.initScratch()
	blank := make([]byte, o.valueWidth)
	for k, leaf := range st.PosMap {
		v, stashed := st.Stash[k]
		if !stashed {
			v = blank
		}
		i := o.add(k, leaf, v, stashed)
		o.slots[i].ver, o.slots[i].tagged = st.Vers[k]
	}
	return o, nil
}

func (st *State) validate() error {
	if st.Name == "" {
		return fmt.Errorf("oram: resume: empty object name")
	}
	if st.Capacity < 1 || st.KeyWidth < 1 || st.ValueWidth < 1 {
		return fmt.Errorf("oram: resume %q: invalid shape (capacity %d, widths %d/%d)",
			st.Name, st.Capacity, st.KeyWidth, st.ValueWidth)
	}
	if st.Z < 1 || st.Levels < 1 || st.NumLeaves != 1<<(st.Levels-1) {
		return fmt.Errorf("oram: resume %q: inconsistent tree shape (Z %d, %d levels, %d leaves)",
			st.Name, st.Z, st.Levels, st.NumLeaves)
	}
	if st.StashLimit < 1 {
		return fmt.Errorf("oram: resume %q: stash limit %d < 1", st.Name, st.StashLimit)
	}
	for k, leaf := range st.PosMap {
		if int(leaf) >= st.NumLeaves {
			return fmt.Errorf("oram: resume %q: key %q maps to leaf %d of %d", st.Name, k, leaf, st.NumLeaves)
		}
		if len(k) > st.KeyWidth {
			return fmt.Errorf("oram: resume %q: key %q has %d bytes, max %d", st.Name, k, len(k), st.KeyWidth)
		}
	}
	// A stashed block or a freshness tag belongs to a live key: the live
	// keys are the position map's.
	for k, v := range st.Stash {
		if _, live := st.PosMap[k]; !live {
			return fmt.Errorf("oram: resume %q: stashed key %q has no position", st.Name, k)
		}
		if len(v) != st.ValueWidth {
			return fmt.Errorf("oram: resume %q: stashed key %q has a %d-byte value, want %d", st.Name, k, len(v), st.ValueWidth)
		}
	}
	for k := range st.Vers {
		if _, live := st.PosMap[k]; !live {
			return fmt.Errorf("oram: resume %q: tagged key %q has no position", st.Name, k)
		}
	}
	return nil
}

// StoreState is the checkpoint form of a handle as the checkpoint file lays it
// out: the PathORAM state under Path.
type StoreState struct {
	Path *State
	// Linear is set only in files written for the scan ORAM, which commit
	// 56f5a87 was the last to resume. gob drops what the receiver has no
	// field for, so without this one such a file would decode to an empty
	// state; with it the reader can refuse the file by name.
	Linear *struct{ Name string }
}

// CheckpointState captures the client-held state for a client-local
// checkpoint file; ResumeStore rebuilds the handle from it.
func (o *ORAM) CheckpointState() *StoreState { return &StoreState{Path: o.State()} }

// ResumeStore rebuilds the handle the state describes.
func ResumeStore(svc store.Service, cipher *crypto.Cipher, st *StoreState) (*ORAM, error) {
	if st == nil || st.Path == nil {
		return nil, fmt.Errorf("oram: resume: no PathORAM state")
	}
	return Resume(svc, cipher, st.Path)
}
