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

// State captures the client state. Maps are deep-copied so later accesses on
// the live handle cannot mutate the checkpoint. The resumed handle gets a
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
		PosMap:     make(map[string]uint32, len(o.posMap)),
		Stash:      make(map[string][]byte, len(o.stash)),
		Vers:       make(map[string]uint64, len(o.vers)),
	}
	for k, v := range o.posMap {
		st.PosMap[k] = v
	}
	for k, v := range o.stash {
		st.Stash[k] = append([]byte(nil), v...)
	}
	for k, v := range o.vers {
		st.Vers[k] = v
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
		posMap:     make(map[string]uint32, len(st.PosMap)),
		stash:      make(map[string][]byte, len(st.Stash)),
		vers:       make(map[string]uint64, len(st.Vers)),
		stashLimit: st.StashLimit,
		maxStash:   st.MaxStash,
		accesses:   st.Accesses,
		rng:        newRNG(st.Seed),
	}
	o.initScratch()
	for k, v := range st.PosMap {
		o.posMap[k] = v
	}
	for k, v := range st.Stash {
		o.stash[k] = append([]byte(nil), v...)
	}
	for k, v := range st.Vers {
		o.vers[k] = v
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
	}
	return nil
}

// LinearState is the serializable client state of a Linear handle — just
// parameters and counters; the construction keeps no per-key client state.
type LinearState struct {
	Name       string
	Capacity   int
	KeyWidth   int
	ValueWidth int
	Live       int
	Accesses   int64
	// Ver is the global freshness version all slots currently carry; a
	// resumed handle rejects any slot at a different version (rollback).
	Ver uint64
}

// State captures the client state of a linear ORAM.
func (l *Linear) State() *LinearState {
	return &LinearState{
		Name:       l.name,
		Capacity:   l.capacity,
		KeyWidth:   l.keyWidth,
		ValueWidth: l.valueWidth,
		Live:       l.live,
		Accesses:   l.accesses,
		Ver:        l.ver,
	}
}

// ResumeLinear rebuilds a Linear handle attached to the existing server
// array.
func ResumeLinear(svc store.Service, cipher *crypto.Cipher, st *LinearState) (*Linear, error) {
	if st.Name == "" {
		return nil, fmt.Errorf("oram: resume: empty object name")
	}
	if st.Capacity < 1 || st.KeyWidth < 1 || st.ValueWidth < 1 {
		return nil, fmt.Errorf("oram: resume %q: invalid shape (capacity %d, widths %d/%d)",
			st.Name, st.Capacity, st.KeyWidth, st.ValueWidth)
	}
	return &Linear{
		svc:        svc,
		cipher:     cipher,
		name:       st.Name,
		capacity:   st.Capacity,
		keyWidth:   st.KeyWidth,
		valueWidth: st.ValueWidth,
		blockSize:  1 + verWidth + crypto.PadWidth(st.KeyWidth) + st.ValueWidth,
		live:       st.Live,
		accesses:   st.Accesses,
		ver:        st.Ver,
	}, nil
}

// StoreState is the checkpoint form of any Store implementation: exactly one
// field is set, selecting the construction to resume.
type StoreState struct {
	Path   *State
	Linear *LinearState
}

// CheckpointState implements Store.
func (o *ORAM) CheckpointState() *StoreState { return &StoreState{Path: o.State()} }

// CheckpointState implements Store.
func (l *Linear) CheckpointState() *StoreState { return &StoreState{Linear: l.State()} }

// ResumeStore rebuilds whichever construction the state describes.
func ResumeStore(svc store.Service, cipher *crypto.Cipher, st *StoreState) (Store, error) {
	switch {
	case st == nil:
		return nil, fmt.Errorf("oram: resume: nil store state")
	case st.Path != nil && st.Linear != nil:
		return nil, fmt.Errorf("oram: resume: ambiguous store state (both constructions set)")
	case st.Path != nil:
		return Resume(svc, cipher, st.Path)
	case st.Linear != nil:
		return ResumeLinear(svc, cipher, st.Linear)
	default:
		return nil, fmt.Errorf("oram: resume: empty store state")
	}
}
