package oram

import (
	"bytes"
	"fmt"
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

	st := o.CheckpointState()
	if st.Path == nil || st.Linear != nil {
		t.Fatalf("path ORAM checkpoint = %+v, want Path set", st)
	}
	accesses := o.Accesses()

	// The checkpoint must be a deep copy: further accesses on the live
	// handle change server state, so from here on only the resumed handle
	// may touch svc. Mutating the live handle's maps must not leak in.
	for k := range st.Path.PosMap {
		if _, ok := o.posMap[k]; !ok {
			t.Fatalf("posMap key %q in state but not live handle", k)
		}
	}

	r, err := ResumeStore(svc, cipher, st)
	if err != nil {
		t.Fatal(err)
	}
	if r.Accesses() != accesses {
		t.Errorf("resumed accesses = %d, want %d", r.Accesses(), accesses)
	}
	if r.Len() != 20 {
		t.Errorf("resumed len = %d, want 20", r.Len())
	}
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
		st   *StoreState
	}{
		{"nil state", nil},
		{"empty state", &StoreState{}},
		{"bad leaves", &StoreState{Path: &State{Name: "x", Capacity: 4, Z: 4, Levels: 3, NumLeaves: 5, KeyWidth: 1, ValueWidth: 1, StashLimit: 10}}},
		{"leaf out of range", &StoreState{Path: &State{Name: "x", Capacity: 4, Z: 4, Levels: 2, NumLeaves: 2, KeyWidth: 1, ValueWidth: 1, StashLimit: 10,
			PosMap: map[string]uint32{"k": 7}}}},
		{"scan-ORAM state", &StoreState{Linear: &struct{ Name string }{"x"}}},
	}
	for _, c := range cases {
		if _, err := ResumeStore(svc, cipher, c.st); err == nil {
			t.Errorf("%s: resume accepted", c.name)
		}
	}
}
