package oram

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/store"
)

// TestPlacementMatchesHandle ties the placement tests' plaintext tree to the
// handle. The real handle — AES-GCM, the in-process server, direct accesses
// at r = 1 and a Pipeline's batches at r = 64 — and the kernel driving the
// plaintext tree, set up from one seed, run a fill of n = 2^12 keys and then
// random reads, writes and removes; after every batch both hold the same
// slots — each the same key, leaf and stashed flag — and the same stash list.
// A handle that opened, stamped or sealed a block anywhere but where the
// kernel placed it would fetch it into its stash at another time than the
// model does, and fail here.
func TestPlacementMatchesHandle(t *testing.T) {
	const n, seed = 1 << 12, 5
	names := make([]string, n)
	for i := range names {
		names[i] = strconv.Itoa(i)
	}
	v := val(8, 1)
	fns := map[byte]UpdateFunc{
		'r': func(old []byte, found bool) ([]byte, bool) { return old, found },
		'w': func([]byte, bool) ([]byte, bool) { return v, true },
		'd': func([]byte, bool) ([]byte, bool) { return nil, false },
	}
	for _, r := range []int{1, 64} {
		t.Run(fmt.Sprintf("r=%d", r), func(t *testing.T) {
			t.Parallel()
			o, err := Setup(store.NewServer(), crypto.MustNewCipher(crypto.MustNewKey()), "t", Config{
				Capacity: n, KeyWidth: 8, ValueWidth: 8, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			m := newPlainTree(n, n, seed, DefaultZ)
			p := NewPipeline(o.svc)
			rng := rand.New(rand.NewSource(seed))
			ops, accesses := make([]plainOp, r), make([]Access, r)
			for i := 0; i < 3*n; i += r {
				for j := range ops {
					ops[j] = plainOp{key: i + j, op: 'w'} // a fresh key while filling
					if i >= n {
						ops[j] = plainOp{key: rng.Intn(n), op: "rrwwd"[rng.Intn(5)]}
					}
					accesses[j] = Access{Store: o, Key: names[ops[j].key], Fn: fns[ops[j].op]}
				}
				if r == 1 {
					err = o.Update(accesses[0].Key, accesses[0].Fn)
				} else {
					_, err = p.Do(accesses)
				}
				if err != nil {
					t.Fatalf("access %d: %v", i, err)
				}
				if err := m.batch(ops); err != nil {
					t.Fatalf("access %d: plaintext tree: %v", i, err)
				}
				if err := samePlacement(o, m, names); err != nil {
					t.Fatalf("after the batch at access %d: %v", i, err)
				}
			}
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// samePlacement says how the handle's slots and stash differ from the
// plaintext tree's, whose key k is the handle's names[k].
func samePlacement(o *ORAM, m *plainTree, names []string) error {
	if len(o.entries) != len(m.keyOf) {
		return fmt.Errorf("the handle holds %d keys, the kernel %d", len(o.entries), len(m.keyOf))
	}
	for i, e := range o.entries {
		key := e.key
		if want := names[m.keyOf[i]]; key != want {
			return fmt.Errorf("slot %d holds %q in the handle, %q in the kernel", i, key, want)
		}
		if got, want := o.pl.slots[i], m.pl.slots[i]; got != want {
			return fmt.Errorf("key %q: leaf %d, stashed %v in the handle; leaf %d, stashed %v in the kernel", key, got.leaf, got.stashed, want.leaf, want.stashed)
		}
	}
	if !slices.Equal(o.pl.stash, m.pl.stash) {
		return fmt.Errorf("stash lists differ: the handle's %v, the kernel's %v", o.pl.stash, m.pl.stash)
	}
	return nil
}
