package oram

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/store"
)

// pathTap remembers the last path the client read and the last it wrote.
type pathTap struct {
	store.Service
	readLeaf  uint32
	writeLeaf uint32
	written   [][]byte
}

func (p *pathTap) ReadPath(name string, leaf uint32) ([][]byte, error) {
	p.readLeaf = leaf
	return p.Service.ReadPath(name, leaf)
}

func (p *pathTap) WritePath(name string, leaf uint32, slots [][]byte) error {
	p.writeLeaf = leaf
	p.written = append(p.written[:0], slots...)
	return p.Service.WritePath(name, leaf, slots)
}

// realKeys opens the bucket written at level l of the path to leaf and
// returns the keys of its real blocks.
func realKeys(t *testing.T, o *ORAM, ct []byte, leaf uint32, l int) []string {
	t.Helper()
	pt, err := o.cipher.Open(ct, o.bucketAD(o.pathBucket(leaf, l)))
	if err != nil {
		t.Fatalf("level %d of the path to leaf %d does not open at its own place: %v", l, leaf, err)
	}
	if len(pt) != o.z*o.blockSize {
		t.Fatalf("bucket plaintext has %d bytes, want %d", len(pt), o.z*o.blockSize)
	}
	var keys []string
	for ; len(pt) > 0; pt = pt[o.blockSize:] {
		k, _, _, real, err := o.parseBlock(pt[:o.blockSize])
		if err != nil {
			t.Fatal(err)
		}
		if real {
			keys = append(keys, string(k))
		}
	}
	return keys
}

// deepestLevel is the deepest level at which the path assigned to a block
// and the path to leaf share a bucket, computed the slow way.
func deepestLevel(o *ORAM, assigned, leaf uint32) int {
	l := 0
	for l+1 < o.levels && assigned>>(o.levels-2-l) == leaf>>(o.levels-2-l) {
		l++
	}
	return l
}

// TestEvictionIsGreedy: after every access of a seeded random workload, every
// block the written path holds may sit where it was put (its assigned path
// runs through that bucket), and no block left in the stash could have been
// put anywhere on that path: every bucket it was eligible for is full.
func TestEvictionIsGreedy(t *testing.T) {
	for _, z := range []int{2, 4} {
		t.Run(fmt.Sprintf("Z=%d", z), func(t *testing.T) {
			tap := &pathTap{Service: store.NewServer()}
			o, err := Setup(tap, crypto.MustNewCipher(crypto.MustNewKey()), "t", Config{
				Capacity: 64, KeyWidth: 8, ValueWidth: 4, Z: z, StashFactor: 20, Seed: 13,
			})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(17))
			stranded := 0
			for i := 0; i < 1500; i++ {
				k := fmt.Sprintf("k%d", rng.Intn(64))
				switch r := rng.Intn(10); {
				case i < 64 || r < 4:
					err = o.Write(k, val(4, byte(i)))
				case r < 9:
					_, _, err = o.Read(k)
				default:
					err = o.Remove(k)
				}
				if err != nil {
					t.Fatalf("access %d: %v", i, err)
				}
				leaf := tap.writeLeaf
				if leaf != tap.readLeaf || len(tap.written) != o.levels {
					t.Fatalf("access %d read leaf %d, wrote %d buckets to leaf %d", i, tap.readLeaf, len(tap.written), leaf)
				}
				checkSlots(t, o)
				free := make([]int, o.levels)
				for l, ct := range tap.written {
					keys := realKeys(t, o, ct, leaf, l)
					free[l] = o.z - len(keys)
					for _, key := range keys {
						s, live := o.index[key]
						if !live {
							t.Fatalf("access %d: block %q placed at level %d but not live", i, key, l)
						}
						if d := deepestLevel(o, o.slots[s].Leaf, leaf); l > d {
							t.Fatalf("access %d: block %q placed at level %d, eligible only down to %d", i, key, l, d)
						}
						if o.slots[s].Stashed {
							t.Fatalf("access %d: block %q both placed and stashed", i, key)
						}
					}
				}
				for _, s := range o.stash {
					stranded++
					for l := deepestLevel(o, o.slots[s].Leaf, leaf); l >= 0; l-- {
						if free[l] > 0 {
							t.Fatalf("access %d: block %q left in the stash with %d free places at level %d of its path", i, o.slots[s].Key, free[l], l)
						}
					}
				}
			}
			if z == 2 && stranded == 0 {
				t.Error("no block ever stayed in the stash: the workload never tested the overflow")
			}
		})
	}
}

// TestEvictMatchesLevelByLevelGreedy: on random stashes and batches of one
// to four paths, the one-pass eviction fills every bucket of the union of the
// paths with exactly as many blocks as the eviction it replaced — walk the
// levels leaf to root and, at each, let every bucket of the union take up to
// Z of the still-stashed blocks eligible there — and so leaves exactly as many
// behind. (How many a greedy fill places in a bucket does not depend on which
// eligible blocks it picks, so the counts are comparable although both pick
// arbitrarily.)
func TestEvictMatchesLevelByLevelGreedy(t *testing.T) {
	tap := &pathTap{Service: store.NewServer()}
	o, err := Setup(tap, crypto.MustNewCipher(crypto.MustNewKey()), "t", Config{
		Capacity: 64, KeyWidth: 8, ValueWidth: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	leafLevel := o.levels - 1
	for trial := 0; trial < 300; trial++ {
		clear(o.index)
		o.slots, o.values, o.stash = o.slots[:0], o.values[:0], o.stash[:0]
		r := 1 + trial%4
		n := rng.Intn(3 * r * o.levels * o.z / 2) // from empty to more than the paths hold
		for i := 0; i < n; i++ {
			// Half the blocks cluster near leaf 0 so deep levels overflow.
			leaf := uint32(rng.Intn(o.numLeaves))
			if i%2 == 0 {
				leaf &= 3
			}
			o.add(fmt.Sprintf("k%d", i), leaf, val(4, byte(i)), true)
		}
		o.cur.ops = o.cur.ops[:0]
		for range r {
			o.cur.ops = append(o.cur.ops, batchOp{leaf: uint32(rng.Intn(8))})
		}
		o.layNodes()

		// want[j]: what the level-by-level greedy places in node j.
		want := make([]int, len(o.nodes))
		placed := make(map[int32]bool)
		for l := leafLevel; l >= 0; l-- {
			for j := o.levelAt[l]; j < o.levelAt[l+1]; j++ {
				for _, i := range o.stash {
					if want[j] == o.z {
						break
					}
					if !placed[i] && o.slots[i].Leaf>>(leafLevel-l) == o.nodes[j].prefix {
						placed[i] = true
						want[j]++
					}
				}
			}
		}

		if err := o.evict(); err != nil {
			t.Fatal(err)
		}
		for j, nd := range o.nodes {
			l := int(nd.level)
			leaf := nd.prefix << (leafLevel - l) // a leaf below the bucket
			if got := len(realKeys(t, o, o.outBuf[int(nd.opener)*o.levels+l], leaf, l)); got != want[j] {
				t.Fatalf("trial %d (%d stashed, %d paths): level %d bucket %d holds %d blocks, level-by-level greedy places %d",
					trial, n, r, l, nd.prefix, got, want[j])
			}
		}
		if got, want := len(o.stash), n-len(placed); got != want {
			t.Fatalf("trial %d: %d blocks left in the stash, want %d", trial, got, want)
		}
		checkSlots(t, o)
	}
	o.cur.ops = o.cur.ops[:0]
}

// checkSlots fails unless the handle's client state is consistent: index and
// slots name the same keys, each slot's value has its place in the slab, and
// the stash list names every stashed slot exactly once and nothing else.
func checkSlots(t *testing.T, o *ORAM) {
	t.Helper()
	if len(o.index) != len(o.slots) {
		t.Fatalf("%d keys indexed, %d slots", len(o.index), len(o.slots))
	}
	if len(o.values) != len(o.slots)*o.valueWidth {
		t.Fatalf("value slab has %d bytes for %d slots of %d", len(o.values), len(o.slots), o.valueWidth)
	}
	stashed := 0
	for i, s := range o.slots {
		if j, ok := o.index[s.Key]; !ok || int(j) != i {
			t.Fatalf("slot %d holds %q, which the index puts at %d (%v)", i, s.Key, j, ok)
		}
		if int(s.Leaf) >= o.numLeaves {
			t.Fatalf("slot %d (%q) is assigned leaf %d of %d", i, s.Key, s.Leaf, o.numLeaves)
		}
		if !s.Tagged && s.Ver != 0 {
			t.Fatalf("slot %d (%q) is untagged at version %d", i, s.Key, s.Ver)
		}
		if s.Stashed {
			stashed++
		}
	}
	listed := make(map[int32]bool)
	for _, i := range o.stash {
		if int(i) >= len(o.slots) || !o.slots[i].Stashed || listed[i] {
			t.Fatalf("stash list %v names slot %d wrongly (%d slots)", o.stash, i, len(o.slots))
		}
		listed[i] = true
	}
	if len(listed) != stashed {
		t.Fatalf("stash list has %d slots, %d are stashed", len(listed), stashed)
	}
}

// TestDeepestLevelClosedForm pins the expression evict sorts the stash by
// against the definition, over every pair of leaves.
func TestDeepestLevelClosedForm(t *testing.T) {
	o, _ := newTestORAM(t, 32, 4)
	for a := uint32(0); a < uint32(o.numLeaves); a++ {
		for b := uint32(0); b < uint32(o.numLeaves); b++ {
			if got, want := o.levels-1-bits.Len32(a^b), deepestLevel(o, a, b); got != want {
				t.Fatalf("leaves %d, %d: closed form %d, definition %d", a, b, got, want)
			}
		}
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
			a, b := stored(t, srv, o, swap[0]), stored(t, srv, o, swap[1])
			if err := srv.WriteBuckets("t", swap[0], [][]byte{b}); err != nil {
				t.Fatal(err)
			}
			if err := srv.WriteBuckets("t", swap[1], [][]byte{a}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				_, _, err := o.Read(fmt.Sprintf("k%d", i%16))
				touched := false
				for l := 0; l < o.levels; l++ {
					if n := o.pathBucket(tap.readLeaf, l); n == swap[0] || n == swap[1] {
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

// stored fetches the ciphertext the server holds for one bucket (heap index)
// by reading a path that runs through it.
func stored(t *testing.T, srv *store.Server, o *ORAM, bucket int) []byte {
	t.Helper()
	l := bits.Len(uint(bucket+1)) - 1
	leaf := uint32(bucket-(1<<l-1)) << (o.levels - 1 - l)
	if o.pathBucket(leaf, l) != bucket {
		t.Fatalf("bucket %d: level %d, leaf %d maps to %d", bucket, l, leaf, o.pathBucket(leaf, l))
	}
	path, err := srv.ReadPath("t", leaf)
	if err != nil {
		t.Fatal(err)
	}
	return path[l]
}
