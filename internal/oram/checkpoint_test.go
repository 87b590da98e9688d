package oram

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/store"
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
	if !reflect.DeepEqual(st.Slots, o.slots) || !bytes.Equal(st.Values, o.values) {
		t.Fatal("state's slots and slab differ from the live handle's")
	}
	o.slots[0].Leaf++
	o.values[0]++
	if st.Slots[0].Leaf == o.slots[0].Leaf || st.Values[0] == o.values[0] {
		t.Fatal("state shares slots or slab with the live handle")
	}

	r, err := Resume(svc, cipher, st)
	if err != nil {
		t.Fatal(err)
	}
	if r.Accesses() != accesses {
		t.Errorf("resumed accesses = %d, want %d", r.Accesses(), accesses)
	}
	if r.Len() != 20 {
		t.Errorf("resumed len = %d, want 20", r.Len())
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
	if r.Len() != 20 { // 20 + 1 insert - 1 remove
		t.Errorf("len after resumed mutations = %d, want 20", r.Len())
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
		if _, err := Resume(svc, cipher, c.st); err == nil {
			t.Errorf("%s: resume accepted", c.name)
		}
	}
}

// TestResumeRefusesStateSlotsCannotHold: a state whose slot points past the
// tree's leaves, whose key is wider than KeyWidth or held by two slots, whose
// slab is not one value per slot, which names no object, or whose buckets hold
// no block, describes no handle an access ever left behind. Accepted, each
// would fail only accesses later — as a server integrity fault, or silently.
// Resume refuses it and says what is wrong, naming the key where there is one.
func TestResumeRefusesStateSlotsCannotHold(t *testing.T) {
	svc := store.NewServer()
	cipher := newTestCipher(t)
	_, leaves := shape(4)
	base := func() *State {
		return &State{Name: "x", Capacity: 4, Z: 4, KeyWidth: 2, ValueWidth: 2, StashLimit: 10,
			Slots: []Slot{
				{Key: "k", Leaf: 1, Stashed: true},
				{Key: "j", Leaf: uint32(leaves - 1), Ver: 3, Tagged: true},
			},
			Values: []byte{1, 2, 0, 0},
		}
	}
	if _, err := Resume(svc, cipher, base()); err != nil {
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
	}
	for _, c := range cases {
		st := base()
		c.spoil(st)
		_, err := Resume(svc, cipher, st)
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
// length and a 4-byte leaf, per tagged key its length and an 8-byte version,
// per stashed key its length and its value.
func mapEraBytes(st *State) int {
	posMap, vers, stash := make(map[string]uint32), make(map[string]uint64), make(map[string][]byte)
	for i, s := range st.Slots {
		posMap[s.Key] = s.Leaf
		if s.Tagged {
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
					r, err := Resume(svc, cipher, st)
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
