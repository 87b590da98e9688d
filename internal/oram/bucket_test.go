package oram

import (
	"errors"
	"fmt"
	"testing"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/store"
)

// pathTap remembers the leaf of the last path the client read. A direct
// access's round is one path, root first, so its last position is its leaf's
// bucket.
type pathTap struct {
	store.Service
	readLeaf uint32
}

func (p *pathTap) ReadCells(name string, idx []int64) ([][]byte, error) {
	p.readLeaf = pathLeaf(idx)
	return p.Service.ReadCells(name, idx)
}

// checkSlots fails unless the handle's client state is consistent: index,
// keys, versions and placements name the same slots, each slot's value has its place in the slab, and
// the stash list names every stashed slot exactly once and nothing else.
func checkSlots(t *testing.T, o *ORAM) {
	t.Helper()
	if len(o.index) != len(o.entries) || len(o.pl.slots) != len(o.entries) {
		t.Fatalf("%d keys indexed, %d entries, %d placements", len(o.index), len(o.entries), len(o.pl.slots))
	}
	if len(o.values) != len(o.entries)*o.valueWidth {
		t.Fatalf("value slab has %d bytes for %d slots of %d", len(o.values), len(o.entries), o.valueWidth)
	}
	stashed := 0
	for i, e := range o.entries {
		key := e.key
		if j, ok := o.index[key]; !ok || int(j) != i {
			t.Fatalf("slot %d holds %q, which the index puts at %d (%v)", i, key, j, ok)
		}
		if s := o.pl.slots[i]; int(s.leaf) >= o.pl.numLeaves {
			t.Fatalf("slot %d (%q) is assigned leaf %d of %d", i, key, s.leaf, o.pl.numLeaves)
		}
		if int64(e.ver) > o.accesses {
			t.Fatalf("slot %d (%q) is at version %d, past the handle's %d accesses", i, key, e.ver, o.accesses)
		}
		if o.pl.slots[i].stashed {
			stashed++
		}
	}
	listed := make(map[int32]bool)
	for _, i := range o.pl.stash {
		if int(i) >= len(o.entries) || !o.pl.slots[i].stashed || listed[i] {
			t.Fatalf("stash list %v names slot %d wrongly (%d slots)", o.pl.stash, i, len(o.entries))
		}
		listed[i] = true
	}
	if len(listed) != stashed {
		t.Fatalf("stash list has %d slots, %d are stashed", len(listed), stashed)
	}
}

// TestBucketSwapDetected: a server that exchanges two authentic, current
// buckets of one tree — nothing stale, nothing forged, nothing from another
// tree — is refused on the first access whose path runs through either,
// because each bucket is sealed to its own place. Accesses that touch
// neither are unaffected until then.
func TestBucketSwapDetected(t *testing.T) {
	const capacity = 32
	levels, _ := shape(capacity)
	leaf0 := 1<<(levels-1) - 1 // the bucket of leaf 0
	for _, swap := range [][2]int{
		{0, 1},             // root and its left child: two levels of the same paths
		{leaf0, leaf0 + 1}, // sibling leaf buckets (leaves 0 and 1)
		{3, 12},            // different levels, disjoint paths
	} {
		t.Run(fmt.Sprintf("buckets %d and %d", swap[0], swap[1]), func(t *testing.T) {
			srv := store.NewServer()
			tap := &pathTap{Service: srv}
			o, err := Setup(tap, crypto.MustNewCipher(crypto.MustNewKey()), "t", Config{
				Capacity: capacity, KeyWidth: 8, ValueWidth: 8, Seed: 21,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 16; i++ {
				if err := o.Write(fmt.Sprintf("k%d", i), val(8, byte(i))); err != nil {
					t.Fatal(err)
				}
			}
			a, b := stored(t, srv, swap[0]), stored(t, srv, swap[1])
			if err := srv.WriteBuckets("t", swap[0], [][]byte{b}); err != nil {
				t.Fatal(err)
			}
			if err := srv.WriteBuckets("t", swap[1], [][]byte{a}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				_, _, err := o.Read(fmt.Sprintf("k%d", i%16))
				touched := false
				for l := 0; l < o.pl.levels; l++ {
					if n := o.pl.pathBucket(tap.readLeaf, l); n == swap[0] || n == swap[1] {
						touched = true
					}
				}
				switch {
				case touched && !errors.Is(err, store.ErrIntegrity):
					t.Fatalf("access %d read a swapped bucket (path to leaf %d): err = %v, want ErrIntegrity", i, tap.readLeaf, err)
				case touched:
					return
				case err != nil:
					t.Fatalf("access %d touched neither swapped bucket: %v", i, err)
				}
			}
			t.Fatal("200 accesses never touched a swapped bucket")
		})
	}
}

// stored fetches the ciphertext the server holds for one bucket (heap index).
func stored(t *testing.T, srv *store.Server, bucket int) []byte {
	t.Helper()
	cts, err := srv.ReadCells("t", []int64{int64(bucket)})
	if err != nil {
		t.Fatal(err)
	}
	return cts[0]
}
