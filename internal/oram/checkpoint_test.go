package oram

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/trace"
)

func newTestCipher(t *testing.T) *crypto.Cipher {
	t.Helper()
	key, err := crypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	c, err := crypto.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPathORAMStateResume checkpoints a live PathORAM mid-use and resumes it
// against the same (unchanged) server, verifying reads, continued writes, and
// the access counter carry over.
func TestPathORAMStateResume(t *testing.T) {
	svc := store.NewServer()
	cipher := newTestCipher(t)
	o, err := Setup(svc, cipher, "ck", Config{Capacity: 32, KeyWidth: 8, ValueWidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := o.Write(fmt.Sprintf("k%02d", i), []byte{byte(i), 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}

	st := o.State()
	accesses := o.Accesses()

	// The checkpoint must be a deep copy: further accesses on the live
	// handle change server state, so from here on only the resumed handle
	// may touch svc. Mutating the live handle's slots must not leak in.
	for i, s := range st.Slots {
		if s != (Slot{Key: o.entries[i].key, Leaf: o.pl.slots[i].leaf, Ver: o.entries[i].ver, Stashed: o.pl.slots[i].stashed}) {
			t.Fatalf("state's slot %d, %+v, differs from the live handle's", i, s)
		}
	}
	if len(st.Slots) != len(o.entries) || !bytes.Equal(st.Values, o.values) {
		t.Fatal("state's slots and slab differ from the live handle's")
	}
	o.pl.slots[0].leaf++
	o.values[0]++
	if st.Slots[0].Leaf == o.pl.slots[0].leaf || st.Values[0] == o.values[0] {
		t.Fatal("state shares slots or slab with the live handle")
	}

	r, err := Resume(svc, cipher, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Accesses() != accesses {
		t.Errorf("resumed accesses = %d, want %d", r.Accesses(), accesses)
	}
	if len(r.entries) != 20 {
		t.Errorf("resumed len = %d, want 20", len(r.entries))
	}
	checkSlots(t, r)
	for i := 0; i < 20; i++ {
		v, found, err := r.Read(fmt.Sprintf("k%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		if !found || !bytes.Equal(v, []byte{byte(i), 0, 0, 0}) {
			t.Fatalf("k%02d after resume = %v (found %v)", i, v, found)
		}
	}
	// The resumed handle keeps working: overwrite, insert, remove.
	if err := r.Write("k00", []byte{99, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := r.Write("new", []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove("k01"); err != nil {
		t.Fatal(err)
	}
	if v, found, _ := r.Read("k00"); !found || v[0] != 99 {
		t.Errorf("k00 after resumed write = %v (found %v)", v, found)
	}
	if _, found, _ := r.Read("k01"); found {
		t.Error("k01 still present after resumed remove")
	}
	if len(r.entries) != 20 { // 20 + 1 insert - 1 remove
		t.Errorf("len after resumed mutations = %d, want 20", len(r.entries))
	}
}

func TestResumeStateValidation(t *testing.T) {
	svc := store.NewServer()
	cipher := newTestCipher(t)
	cases := []struct {
		name string
		st   *State
	}{
		{"nil state", nil},
		{"empty state", &State{}},
		{"more leaves than a uint32 names", &State{Name: "x", Capacity: 1<<32 + 1, Z: 4, KeyWidth: 1, ValueWidth: 1, StashLimit: 10}},
		{"no stash", &State{Name: "x", Capacity: 4, Z: 4, KeyWidth: 1, ValueWidth: 1}},
	}
	for _, c := range cases {
		if _, err := Resume(svc, cipher, c.st, nil); err == nil {
			t.Errorf("%s: resume accepted", c.name)
		}
	}
}

// refusingTrees is a service on which Setup must never get as far as creating
// a tree.
type refusingTrees struct {
	store.Service
	t *testing.T
}

func (s refusingTrees) CreateTree(name string, levels, slots int) error {
	s.t.Errorf("CreateTree(%q, %d levels) called for a shape Setup must refuse", name, levels)
	return errors.New("refused by the test")
}

// TestSetupRefusesWhatResumeRefuses: one bound check serves Setup and Resume,
// so a handle set up is a handle that can be resumed. A capacity past
// MaxCapacity, whose leaves would not fit a uint32, and a key wider than a
// block's one-byte length names are refused by both — by Setup before it
// creates, or sizes, any tree — and the largest shapes are accepted by both
// checks.
func TestSetupRefusesWhatResumeRefuses(t *testing.T) {
	cipher := newTestCipher(t)
	for _, c := range []struct {
		name                           string
		capacity, keyWidth, valueWidth int
	}{
		{"capacity past 2^32", MaxCapacity + 1, 8, 4},
		{"key wider than 255", 16, maxKeyWidth + 1, 4},
		{"no capacity", 0, 8, 4},
		{"no key", 16, 0, 4},
		{"no value", 16, 8, 0},
	} {
		if _, err := Setup(refusingTrees{t: t}, cipher, "x", Config{Capacity: c.capacity, KeyWidth: c.keyWidth, ValueWidth: c.valueWidth}); err == nil {
			t.Errorf("%s: Setup accepted", c.name)
		}
		st := &State{Name: "x", Capacity: c.capacity, Z: 4, KeyWidth: c.keyWidth, ValueWidth: c.valueWidth, StashLimit: 10}
		if _, err := Resume(store.NewServer(), cipher, st, nil); err == nil {
			t.Errorf("%s: Resume accepted", c.name)
		}
	}
	if err := checkShape("x", MaxCapacity, maxKeyWidth, 1); err != nil {
		t.Errorf("the largest shape is refused: %v", err)
	}
	if _, err := Setup(store.NewServer(), cipher, "wide", Config{Capacity: 4, KeyWidth: maxKeyWidth, ValueWidth: 1}); err != nil {
		t.Errorf("Setup refused a %d-byte key width: %v", maxKeyWidth, err)
	}
}

// TestVersionWrapRefused: an eviction stamps the blocks it places with the
// handle's access count, and the largest a block holds is 2^32 − 1 — the next
// would be 0, a dummy's, and the ones after would repeat versions an
// authentic older copy carries. A resumed handle at 2^32 − 2 accesses makes
// one more access, stamped 2^32 − 1, and refuses the next with
// ErrVersionWrap: before anything is sealed (the cipher's invocation counter
// moves only for the probes around the access) or written back, and the
// handle refuses every access after.
func TestVersionWrapRefused(t *testing.T) {
	srv := store.NewServer()
	cipher := newTestCipher(t)
	o, err := Setup(srv, cipher, "wrap", Config{Capacity: 16, KeyWidth: 8, ValueWidth: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := o.State()
	st.Accesses = math.MaxUint32 - 1
	r, err := Resume(srv, cipher, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Write("worn", []byte{1, 2, 3, 4}); err != nil {
		t.Fatalf("access number 2^32 − 1: %v", err)
	}
	if v := r.entries[r.index["worn"]].ver; v != math.MaxUint32 {
		t.Fatalf("block evicted by access 2^32 − 1 has version %d", v)
	}
	invocation := func() uint32 { // the counter in the nonce of a fresh seal
		ct, err := cipher.Seal([]byte("probe"), nil)
		if err != nil {
			t.Fatal(err)
		}
		return binary.BigEndian.Uint32(ct[crypto.NonceSize-4 : crypto.NonceSize])
	}
	srv.Trace().Enable()
	before := invocation()
	if _, _, err := r.Read("other"); !errors.Is(err, ErrVersionWrap) {
		t.Fatalf("access number 2^32: err = %v, want ErrVersionWrap", err)
	}
	if after := invocation(); after != before+1 {
		t.Errorf("the refused access sealed %d ciphertexts", after-before-1)
	}
	for _, e := range srv.Trace().Events() {
		if e.Op != trace.OpReadTreeCell {
			t.Errorf("the refused access sent %v", e)
		}
	}
	if _, _, err := r.Read("worn"); err == nil || !strings.Contains(err.Error(), "unusable") {
		t.Errorf("access after the refusal: err = %v, want the handle refusing", err)
	}
}

// TestReplayAcrossKeyLifetimes: a key removed and written again starts a new
// lifetime, and a bucket recorded in the old one holds an authentic copy of
// the key. Versions are access counts, so that copy's is not the new
// lifetime's, and replaying it is refused as stale. (When a new key's
// versions counted from 0, both lifetimes' first evictions were version 1 and
// the replayed copy served the old value.) The seed is the first at which the
// key's leaf in the second lifetime is its leaf in the first, so the recorded
// path is the path the read fetches.
func TestReplayAcrossKeyLifetimes(t *testing.T) {
	for seed := int64(1); ; seed++ {
		if seed > 64 {
			t.Fatal("no seed put the key on one leaf in both lifetimes")
		}
		srv := store.NewServer()
		o, err := Setup(srv, newTestCipher(t), "replay", Config{Capacity: 2, KeyWidth: 1, ValueWidth: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Write("k", []byte{1}); err != nil {
			t.Fatal(err)
		}
		leaf := o.pl.slots[o.index["k"]].leaf
		idx := make([]int64, 1<<o.pl.levels-1)
		for i := range idx {
			idx[i] = int64(i)
		}
		recorded, err := srv.ReadCells("replay", idx)
		if err != nil {
			t.Fatal(err)
		}
		if err := errors.Join(o.Remove("k"), o.Write("k", []byte{2})); err != nil {
			t.Fatal(err)
		}
		if s := o.pl.slots[o.index["k"]]; s.leaf != leaf || s.stashed {
			continue
		}
		if err := srv.WriteCells("replay", idx, recorded); err != nil {
			t.Fatal(err)
		}
		v, _, err := o.Read("k")
		if !errors.Is(err, store.ErrIntegrity) || !strings.Contains(err.Error(), "stale block") {
			t.Fatalf("seed %d: read after replaying the first lifetime's tree: %v, %v; want a stale block refused", seed, v, err)
		}
		return
	}
}

// TestResumeRefusesStateSlotsCannotHold: a state whose slot points past the
// tree's leaves, whose key is wider than KeyWidth or held by two slots, whose
// slab is not one value per slot, which names no object, or whose bucket size
// or stash limit is not the paper's Z = 4 and 7·⌈lg n⌉, describes no handle an
// access ever left behind. Accepted, each
// would fail only accesses later — as a server integrity fault, or silently.
// Resume refuses it and says what is wrong, naming the key where there is one.
func TestResumeRefusesStateSlotsCannotHold(t *testing.T) {
	svc := store.NewServer()
	cipher := newTestCipher(t)
	_, leaves := shape(4)
	base := func() *State {
		return &State{Name: "x", Capacity: 4, Z: 4, KeyWidth: 2, ValueWidth: 2, StashLimit: 14,
			Slots: []Slot{
				{Key: "k", Leaf: 1, Stashed: true},
				{Key: "j", Leaf: uint32(leaves - 1), Ver: 3},
			},
			Values: []byte{1, 2, 0, 0},
		}
	}
	if _, err := Resume(svc, cipher, base(), nil); err != nil {
		t.Fatalf("well-formed state refused: %v", err)
	}
	cases := []struct {
		name, want string
		spoil      func(*State)
	}{
		{"leaf past the derived leaf count", `"j"`, func(st *State) { st.Slots[1].Leaf = uint32(leaves) }},
		{"key wider than KeyWidth", `"wide"`, func(st *State) { st.Slots[0].Key = "wide" }},
		{"duplicate key", `"k"`, func(st *State) { st.Slots[1].Key = "k" }},
		{"short slab", "3 value bytes for 2 slots", func(st *State) { st.Values = st.Values[:3] }},
		{"long slab", "5 value bytes for 2 slots", func(st *State) { st.Values = append(st.Values, 0) }},
		{"empty name", "empty object name", func(st *State) { st.Name = "" }},
		{"Z < 1", "bucket size 0", func(st *State) { st.Z = 0 }},
		{"Z other than the paper's 4", "bucket size 2", func(st *State) { st.Z = 2 }},
		{"stash limit other than 7·⌈lg n⌉", "stash limit 20", func(st *State) { st.StashLimit = 20 }},
	}
	for _, c := range cases {
		st := base()
		c.spoil(st)
		_, err := Resume(svc, cipher, st, nil)
		switch {
		case err == nil:
			t.Errorf("%s: resume accepted", c.name)
		case !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error does not say %s: %v", c.name, c.want, err)
		}
	}
}

// mapEraBytes is ClientMemoryBytes as it was computed when the client state
// was three maps, over those maps rebuilt from the slots: per live key its
// length and a 4-byte leaf, per key with a version its length and a
// verWidth-byte version, per stashed key its length and its value.
func mapEraBytes(st *State) int {
	posMap, vers, stash := make(map[string]uint32), make(map[string]uint32), make(map[string][]byte)
	for i, s := range st.Slots {
		posMap[s.Key] = s.Leaf
		if s.Ver != 0 {
			vers[s.Key] = s.Ver
		}
		if s.Stashed {
			stash[s.Key] = st.Values[i*st.ValueWidth : (i+1)*st.ValueWidth]
		}
	}
	total := 0
	for k := range posMap {
		total += len(k) + 4
	}
	for k := range vers {
		total += len(k) + verWidth
	}
	for k, v := range stash {
		total += len(k) + len(v)
	}
	return total
}

// TestClientStateMatchesMapEra: over a seeded random Write / Read / Remove /
// Update mix on both engine shapes, ClientMemoryBytes equals the map-era
// formula over State after every access, the slots stay consistent, and
// State → Resume → State gives equal slots and slab (the resumed handle then
// carries on with the mix). This pins client_mem_kb and Fig. 5's
// client-memory column.
func TestClientStateMatchesMapEra(t *testing.T) {
	for _, shape := range []struct{ capacity, valueWidth int }{{2048 + 2000, 16}, {1024, 8}} {
		t.Run(fmt.Sprintf("%d×%dB", shape.capacity, shape.valueWidth), func(t *testing.T) {
			svc := store.NewServer()
			cipher := newTestCipher(t)
			o, err := Setup(svc, cipher, "mem", Config{Capacity: shape.capacity, KeyWidth: 8, ValueWidth: shape.valueWidth, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			const keys, steps = 300, 1500
			oracle := make(map[string][]byte)
			rng := rand.New(rand.NewSource(int64(shape.capacity)))
			for step := 0; step < steps; step++ {
				k := strconv.Itoa(rng.Intn(keys))
				v := val(shape.valueWidth, byte(step))
				switch r := rng.Intn(10); {
				case r < 4:
					err = o.Write(k, v)
					oracle[k] = v
				case r < 6:
					var got []byte
					var found bool
					got, found, err = o.Read(k)
					if want, ok := oracle[k]; err == nil && (found != ok || !bytes.Equal(got, want)) {
						t.Fatalf("step %d: Read(%s) = %v, %v; oracle %v, %v", step, k, got, found, want, ok)
					}
				case r < 7:
					err = o.Remove(k)
					delete(oracle, k)
				default: // bump the first byte of a present value, insert v otherwise, drop one in five
					drop := r == 9 && rng.Intn(2) == 0
					err = o.Update(k, func(old []byte, found bool) ([]byte, bool) {
						switch {
						case drop:
							return nil, false
						case found:
							bumped := append([]byte(nil), old...)
							bumped[0]++
							return bumped, true
						}
						return v, true
					})
					switch want, ok := oracle[k]; {
					case drop:
						delete(oracle, k)
					case ok:
						want[0]++
					default:
						oracle[k] = v
					}
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				checkSlots(t, o)
				st := o.State()
				if got, want := o.ClientMemoryBytes(), mapEraBytes(st); got != want {
					t.Fatalf("step %d: ClientMemoryBytes = %d, map-era formula over State gives %d", step, got, want)
				}
				if len(st.Slots) != len(oracle) {
					t.Fatalf("step %d: %d live keys, oracle %d", step, len(st.Slots), len(oracle))
				}
				if step%250 == 249 {
					r, err := Resume(svc, cipher, st, nil)
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					again := r.State()
					if !reflect.DeepEqual(st.Slots, again.Slots) || !bytes.Equal(st.Values, again.Values) {
						t.Fatalf("step %d: State → Resume → State changed the slots", step)
					}
					checkSlots(t, r)
					o = r // the live handle is abandoned: only r may touch svc from here on
				}
			}
		})
	}
}
