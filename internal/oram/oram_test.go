package oram

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/trace"
)

func newTestORAM(t *testing.T, capacity, valueWidth int) (*ORAM, *store.Server) {
	t.Helper()
	srv := store.NewServer()
	o, err := Setup(srv, crypto.MustNewCipher(crypto.MustNewKey()), "test", Config{
		Capacity:   capacity,
		KeyWidth:   32,
		ValueWidth: valueWidth,
		Seed:       1,
	})
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	return o, srv
}

func val(width int, b byte) []byte {
	v := make([]byte, width)
	for i := range v {
		v[i] = b
	}
	return v
}

func TestSetupValidation(t *testing.T) {
	srv := store.NewServer()
	c := crypto.MustNewCipher(crypto.MustNewKey())
	bad := []Config{
		{Capacity: 0, KeyWidth: 8, ValueWidth: 8},
		{Capacity: 8, KeyWidth: 0, ValueWidth: 8},
		{Capacity: 8, KeyWidth: 8, ValueWidth: 0},
	}
	for i, cfg := range bad {
		if _, err := Setup(srv, c, fmt.Sprintf("bad%d", i), cfg); err == nil {
			t.Errorf("Setup(%+v) accepted", cfg)
		}
	}
}

func TestReadMissingReturnsNotFound(t *testing.T) {
	o, _ := newTestORAM(t, 16, 8)
	v, found, err := o.Read("ghost")
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if found || v != nil {
		t.Errorf("Read(ghost) = %v, %v; want nil, false", v, found)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	o, _ := newTestORAM(t, 16, 8)
	if err := o.Write("alpha", val(8, 0xAA)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	v, found, err := o.Read("alpha")
	if err != nil || !found {
		t.Fatalf("Read = %v, %v, %v", v, found, err)
	}
	if !bytes.Equal(v, val(8, 0xAA)) {
		t.Errorf("value = %v", v)
	}
}

func TestOverwrite(t *testing.T) {
	o, _ := newTestORAM(t, 16, 4)
	if err := o.Write("k", val(4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := o.Write("k", val(4, 2)); err != nil {
		t.Fatal(err)
	}
	v, found, err := o.Read("k")
	if err != nil || !found || !bytes.Equal(v, val(4, 2)) {
		t.Errorf("after overwrite: %v, %v, %v", v, found, err)
	}
	if len(o.entries) != 1 {
		t.Errorf("Len = %d, want 1", len(o.entries))
	}
}

func TestRemove(t *testing.T) {
	o, _ := newTestORAM(t, 16, 4)
	if err := o.Write("k", val(4, 7)); err != nil {
		t.Fatal(err)
	}
	if err := o.Remove("k"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, found, _ := o.Read("k"); found {
		t.Error("key still present after Remove")
	}
	if len(o.entries) != 0 {
		t.Errorf("Len = %d, want 0", len(o.entries))
	}
	// Removing an absent key is a no-op with the same access pattern.
	if err := o.Remove("never"); err != nil {
		t.Errorf("Remove(absent): %v", err)
	}
}

func TestValueWidthEnforced(t *testing.T) {
	o, _ := newTestORAM(t, 16, 8)
	if err := o.Write("k", val(7, 1)); !errors.Is(err, ErrValueWidth) {
		t.Errorf("short value err = %v", err)
	}
	if err := o.Write("k", val(9, 1)); !errors.Is(err, ErrValueWidth) {
		t.Errorf("long value err = %v", err)
	}
}

func TestKeyWidthEnforced(t *testing.T) {
	o, _ := newTestORAM(t, 16, 8)
	long := string(bytes.Repeat([]byte("x"), 33))
	if err := o.Write(long, val(8, 1)); !errors.Is(err, ErrKeyWidth) {
		t.Errorf("long key err = %v", err)
	}
	if _, _, err := o.Read(long); !errors.Is(err, ErrKeyWidth) {
		t.Errorf("long key read err = %v", err)
	}
}

func TestReturnedValueIsACopy(t *testing.T) {
	o, _ := newTestORAM(t, 16, 4)
	buf := val(4, 5)
	if err := o.Write("k", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99 // caller reuses its buffer
	v1, _, _ := o.Read("k")
	if v1[0] != 5 {
		t.Error("Write aliased the caller's buffer")
	}
	v1[0] = 77 // caller scribbles on the result
	v2, _, _ := o.Read("k")
	if v2[0] != 5 {
		t.Error("Read returned stash-internal storage")
	}
}

// TestManyKeysFullCapacity fills the ORAM to capacity and reads everything
// back, interleaving overwrites, with a reference map as oracle.
func TestManyKeysFullCapacity(t *testing.T) {
	const n = 256
	o, _ := newTestORAM(t, n, 8)
	oracle := make(map[string][]byte)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%03d", i)
		v := val(8, byte(rng.Intn(256)))
		if err := o.Write(k, v); err != nil {
			t.Fatalf("Write %s: %v", k, err)
		}
		oracle[k] = v
	}
	// Random interleaved reads/overwrites/removals.
	for step := 0; step < 2*n; step++ {
		k := fmt.Sprintf("key-%03d", rng.Intn(n))
		switch rng.Intn(3) {
		case 0:
			v, found, err := o.Read(k)
			if err != nil {
				t.Fatalf("Read %s: %v", k, err)
			}
			want, ok := oracle[k]
			if found != ok || (ok && !bytes.Equal(v, want)) {
				t.Fatalf("Read %s = %v,%v; oracle %v,%v", k, v, found, want, ok)
			}
		case 1:
			v := val(8, byte(rng.Intn(256)))
			if err := o.Write(k, v); err != nil {
				t.Fatalf("Write %s: %v", k, err)
			}
			oracle[k] = v
		case 2:
			if err := o.Remove(k); err != nil {
				t.Fatalf("Remove %s: %v", k, err)
			}
			delete(oracle, k)
		}
	}
	for k, want := range oracle {
		v, found, err := o.Read(k)
		if err != nil || !found || !bytes.Equal(v, want) {
			t.Fatalf("final Read %s = %v,%v,%v; want %v", k, v, found, err, want)
		}
	}
	if len(o.entries) != len(oracle) {
		t.Errorf("Len = %d, oracle %d", len(o.entries), len(oracle))
	}
}

// TestStashBound exercises the paper's stash limit of 7·log₂ n: a full
// random workload must never push the stash past the bound.
func TestStashBound(t *testing.T) {
	const n = 512
	o, _ := newTestORAM(t, n, 8)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		if err := o.Write(fmt.Sprintf("k%d", i), val(8, byte(i))); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	for i := 0; i < 4*n; i++ {
		if _, _, err := o.Read(fmt.Sprintf("k%d", rng.Intn(n))); err != nil {
			t.Fatalf("Read: %v", err)
		}
	}
	if o.maxStash > stashLimit(o.capacity) {
		t.Errorf("stash high-water %d exceeded limit %d", o.maxStash, stashLimit(o.capacity))
	}
	// With these seeds the mark has been 23 in every run, under the
	// level-by-level eviction and under the one-pass eviction alike (how many
	// blocks an eviction places does not depend on which eligible ones it
	// picks). An eviction that places fewer shows up here.
	if o.maxStash > 23 {
		t.Errorf("stash high-water %d, was 23 before eviction changed", o.maxStash)
	}
	t.Logf("stash high-water mark %d (limit %d)", o.maxStash, stashLimit(o.capacity))
}

// TestAccessPatternIndistinguishable checks Definition 4's core demand: a
// Read hit, a Read miss, a Write, and a Remove produce identical server
// trace shapes (one ReadPath + one WritePath of the same sizes).
func TestAccessPatternIndistinguishable(t *testing.T) {
	shapes := make([]trace.Shape, 0, 4)
	for _, op := range []string{"readhit", "readmiss", "write", "remove"} {
		srv := store.NewServer()
		o, err := Setup(srv, crypto.MustNewCipher(crypto.MustNewKey()), "t", Config{
			Capacity: 64, KeyWidth: 16, ValueWidth: 8, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Write("present", val(8, 1)); err != nil {
			t.Fatal(err)
		}
		srv.Trace().Reset()
		srv.Trace().Enable()
		switch op {
		case "readhit":
			_, _, err = o.Read("present")
		case "readmiss":
			_, _, err = o.Read("absent")
		case "write":
			err = o.Write("fresh", val(8, 2))
		case "remove":
			err = o.Remove("present")
		}
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		shapes = append(shapes, trace.ShapeOf(srv.Trace().Events()))
	}
	for i := 1; i < len(shapes); i++ {
		if !shapes[0].Equal(shapes[i]) {
			t.Errorf("operation %d trace differs from Read:\n%s", i, shapes[0].Diff(shapes[i]))
		}
	}
}

// TestFixedAccessCount verifies every operation costs exactly one path read
// and one path write: a cell read and a cell write of the path's buckets.
// Setup writes every bucket once before them.
func TestFixedAccessCount(t *testing.T) {
	o, srv := newTestORAM(t, 64, 8)
	const ops = 30
	for i := 0; i < ops; i++ {
		switch i % 3 {
		case 0:
			if err := o.Write(fmt.Sprintf("k%d", i), val(8, 1)); err != nil {
				t.Fatal(err)
			}
		case 1:
			if _, _, err := o.Read(fmt.Sprintf("k%d", i-1)); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := o.Remove(fmt.Sprintf("k%d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	levels, _ := shape(64)
	if got := srv.Trace().Count(trace.OpReadTreeCell); got != ops*int64(levels) {
		t.Errorf("buckets read = %d, want %d paths of %d", got, ops, levels)
	}
	if got := srv.Trace().Count(trace.OpWriteTreeCell); got != 1<<levels-1+ops*int64(levels) {
		t.Errorf("buckets written = %d, want the tree's %d and %d paths of %d", got, 1<<levels-1, ops, levels)
	}
	if got := o.Accesses(); got != ops {
		t.Errorf("Accesses = %d, want %d", got, ops)
	}
}

// freshnessTap remembers every ciphertext that has crossed the storage
// interface in either direction and counts the written ones that had been
// seen before.
type freshnessTap struct {
	store.Service
	seen    map[string]bool
	written int
	stale   int
}

func (f *freshnessTap) ReadCells(name string, idx []int64) ([][]byte, error) {
	cts, err := f.Service.ReadCells(name, idx)
	for _, ct := range cts {
		f.seen[string(ct)] = true
	}
	return cts, err
}

func (f *freshnessTap) write(cts [][]byte) {
	for _, ct := range cts {
		if f.seen[string(ct)] {
			f.stale++
		}
		f.seen[string(ct)] = true
		f.written++
	}
}

func (f *freshnessTap) WriteCells(name string, idx []int64, cts [][]byte) error {
	f.write(cts)
	return f.Service.WriteCells(name, idx, cts)
}

func (f *freshnessTap) WriteBuckets(name string, start int, slots [][]byte) error {
	f.write(slots)
	return f.Service.WriteBuckets(name, start, slots)
}

// TestCiphertextsAlwaysFresh: the client must never write back a ciphertext
// it previously read or wrote (re-encryption requirement, §III-C): every
// bucket of every written path — whether its contents changed or not — is a
// new ciphertext, and after each access the path the server holds is exactly
// the one just written.
func TestCiphertextsAlwaysFresh(t *testing.T) {
	srv := store.NewServer()
	tap := &freshnessTap{Service: srv, seen: make(map[string]bool)}
	o, err := Setup(tap, crypto.MustNewCipher(crypto.MustNewKey()), "t", Config{
		Capacity: 16, KeyWidth: 8, ValueWidth: 8, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	levels, leaves := shape(16)
	buckets := 1<<levels - 1
	if tap.written != buckets {
		t.Fatalf("Setup wrote %d ciphertexts, want one per bucket (%d)", tap.written, buckets)
	}
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("k%d", i%10)
		switch i % 4 {
		case 0, 1:
			err = o.Write(k, val(8, byte(i)))
		case 2:
			_, _, err = o.Read(k) // contents unchanged: must still be re-sealed
		case 3:
			_, _, err = o.Read("absent")
		}
		if err != nil {
			t.Fatal(err)
		}
		if want := buckets + (i+1)*levels; tap.written != want {
			t.Fatalf("after %d accesses %d ciphertexts written, want %d (one per bucket of each path)", i+1, tap.written, want)
		}
	}
	if tap.stale != 0 {
		t.Errorf("%d of %d written ciphertexts had crossed the interface before", tap.stale, tap.written)
	}
	// What the server holds is the set of distinct ciphertexts written last
	// to each bucket: no two buckets may share one.
	held := make(map[string]bool)
	for leaf := uint32(0); leaf < uint32(leaves); leaf++ {
		path, err := srv.ReadPath("t", leaf)
		if err != nil {
			t.Fatal(err)
		}
		for _, ct := range path {
			held[string(ct)] = true
		}
	}
	if len(held) != buckets {
		t.Errorf("server holds %d distinct ciphertexts in %d buckets", len(held), buckets)
	}
}

func TestPropertyRandomWorkload(t *testing.T) {
	f := func(seed int64, opsRaw []byte) bool {
		srv := store.NewServer()
		o, err := Setup(srv, crypto.MustNewCipher(crypto.MustNewKey()), "t", Config{
			Capacity: 32, KeyWidth: 8, ValueWidth: 4, Seed: seed%1000 + 1,
		})
		if err != nil {
			return false
		}
		oracle := make(map[string][]byte)
		for _, b := range opsRaw {
			k := fmt.Sprintf("k%d", b%32)
			switch b % 3 {
			case 0:
				v := val(4, b)
				if err := o.Write(k, v); err != nil {
					return false
				}
				oracle[k] = v
			case 1:
				v, found, err := o.Read(k)
				if err != nil {
					return false
				}
				want, ok := oracle[k]
				if found != ok || (ok && !bytes.Equal(v, want)) {
					return false
				}
			case 2:
				if err := o.Remove(k); err != nil {
					return false
				}
				delete(oracle, k)
			}
		}
		return len(o.entries) == len(oracle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestClientMemoryGrowsWithContent(t *testing.T) {
	o, _ := newTestORAM(t, 128, 8)
	empty := o.ClientMemoryBytes()
	for i := 0; i < 100; i++ {
		if err := o.Write(fmt.Sprintf("key-%d", i), val(8, 1)); err != nil {
			t.Fatal(err)
		}
	}
	full := o.ClientMemoryBytes()
	if full <= empty {
		t.Errorf("client memory did not grow: %d -> %d", empty, full)
	}
}

// TestRandomSeedSetup covers the crypto-seeded RNG path (Seed == 0).
func TestRandomSeedSetup(t *testing.T) {
	srv := store.NewServer()
	o, err := Setup(srv, crypto.MustNewCipher(crypto.MustNewKey()), "rseed", Config{
		Capacity: 8, KeyWidth: 8, ValueWidth: 4, // Seed deliberately 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Write("k", val(4, 9)); err != nil {
		t.Fatal(err)
	}
	v, found, err := o.Read("k")
	if err != nil || !found || v[0] != 9 {
		t.Errorf("Read = %v, %v, %v", v, found, err)
	}
}

func TestCapacityOne(t *testing.T) {
	o, _ := newTestORAM(t, 1, 4)
	if err := o.Write("only", val(4, 1)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	v, found, err := o.Read("only")
	if err != nil || !found || !bytes.Equal(v, val(4, 1)) {
		t.Errorf("Read = %v, %v, %v", v, found, err)
	}
	if err := o.Remove("only"); err != nil {
		t.Fatal(err)
	}
	if len(o.entries) != 0 {
		t.Errorf("Len = %d", len(o.entries))
	}
}

// bucketCiphertextLen is the closed form for what the server stores per
// bucket: Z blocks of version (4) ∥ key length (1) ∥ key ∥ value under one
// 12-byte nonce and one 16-byte tag — public parameters only.
func bucketCiphertextLen(z, keyWidth, valueWidth int) int {
	return z*(5+keyWidth+valueWidth) + 28
}

// TestTreeFullyInitialized: after Setup every bucket holds one ciphertext of
// the closed-form size — path-read sizes can never depend on access history.
func TestTreeFullyInitialized(t *testing.T) {
	srv := store.NewServer()
	_, err := Setup(srv, crypto.MustNewCipher(crypto.MustNewKey()), "t", Config{
		Capacity: 8, KeyWidth: 8, ValueWidth: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	size := bucketCiphertextLen(DefaultZ, 8, 8)
	levels, leaves := shape(8)
	for leaf := uint32(0); leaf < uint32(leaves); leaf++ {
		path, err := srv.ReadPath("t", leaf)
		if err != nil {
			t.Fatal(err)
		}
		if len(path) != levels {
			t.Fatalf("leaf %d: path has %d ciphertexts, want one per level (%d)", leaf, len(path), levels)
		}
		for l, ct := range path {
			if len(ct) == 0 {
				t.Fatalf("leaf %d level %d empty after Setup", leaf, l)
			}
			if len(ct) != size {
				t.Fatalf("leaf %d level %d: bucket ciphertext has %d bytes, want %d", leaf, l, len(ct), size)
			}
		}
	}
}

// setupSpy records every batch a set-up sends: its creates, then one entry
// per tree-cell write naming the tree, its first bucket, how many buckets it
// carries and their ciphertext bytes. It embeds the Service interface, not
// *store.Server: the server's promoted Do would let store.Invoke bypass the
// Batch it overrides.
type setupSpy struct {
	store.Service
	batches [][]setupOp
}

type setupOp struct {
	create      bool
	name        string
	start, n, b int
}

func (s *setupSpy) Batch(ops []store.BatchOp) ([][][]byte, error) {
	var rec []setupOp
	for _, op := range ops {
		if op.Kind() != store.KindWriteCells {
			rec = append(rec, setupOp{create: true, name: op.Name})
			continue
		}
		n := 0
		for _, ct := range op.Cts {
			n += len(ct)
		}
		rec = append(rec, setupOp{name: op.Name, start: int(op.Idx[0]), n: len(op.Idx), b: n})
	}
	s.batches = append(s.batches, rec)
	return store.DoBatch(s.Service, ops)
}

// TestSetupFramesClosedForm: a set-up sends every create — the caller's lead,
// then the trees' — at the head of its first batch and in no other, then
// each tree's 2^levels − 1 buckets in heap order, tree after tree, as many
// to a batch as fit in setupFrameBytes of ciphertext and at least one: every
// batch but the last is full, holding more than the budget less one of the
// next buckets. One tree of buckets of size s is then ⌈(2^levels − 1)/k⌉
// batches, k = max(1, ⌊setupFrameBytes/s⌋): one for each tree of the
// benchmark's ORAM workloads, and a group of them packs into a few — one for
// oram-tcp's levels of three Or-ORAM sets, five and eight for
// exoram-dynamic's four and six Ex-ORAM sets. The batches are a function of
// the public configuration: two keys and two seeds give the same sequence.
func TestSetupFramesClosedForm(t *testing.T) {
	type tree struct{ capacity, valueWidth int }
	repeat := func(n int, trees ...tree) (out []tree) {
		for range n {
			out = append(out, trees...)
		}
		return out
	}
	klf, ikl := tree{2048 + 2000, 8}, tree{2048 + 2000, 12} // Ex-ORAM's on exoram-dynamic: 4 095 buckets of 112 and 128 B
	kl := tree{1024, 4}                                     // Or-ORAM's O^KL on oram-tcp: 1 023 of 96 B
	for _, c := range []struct {
		trees   []tree
		lead    int
		batches int
	}{
		{[]tree{ikl}, 0, 1},
		{[]tree{kl}, 0, 1},
		{[]tree{{64, 4096}}, 0, 2},     // 16 KiB buckets, 47 to a batch
		{[]tree{{2, 256 << 10}}, 0, 3}, // buckets over the budget, one to a batch
		{repeat(3, kl), 3, 1},          // an oram-tcp level: three trees and three label arrays
		{repeat(4, klf, ikl), 0, 5},    // exoram-dynamic's level 1
		{repeat(6, klf, ikl), 0, 8},    // and its level 2
	} {
		var seqs [2][][]setupOp
		for i, seed := range []int64{1, 2} {
			spy := &setupSpy{Service: store.NewServer()}
			cipher := crypto.MustNewCipher(crypto.MustNewKey())
			var lead []store.BatchOp
			for j := range c.lead {
				lead = append(lead, store.CreateArrayOp(fmt.Sprintf("a%d", j), 8))
			}
			var handles []*ORAM
			for j, tr := range c.trees {
				o, err := New(spy, cipher, fmt.Sprintf("t%d", j), Config{Capacity: tr.capacity, KeyWidth: 8, ValueWidth: tr.valueWidth, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				handles = append(handles, o)
			}
			if err := SetupAll(spy, lead, handles...); err != nil {
				t.Fatal(err)
			}
			if len(spy.batches) != c.batches {
				t.Errorf("%v: %d batches, want %d", c.trees, len(spy.batches), c.batches)
			}
			if len(handles) == 1 {
				o := handles[0]
				k, total := max(1, setupFrameBytes/o.bucketBytes()), 1<<o.pl.levels-1
				if want := (total + k - 1) / k; len(spy.batches) != want {
					t.Errorf("%v: %d batches, want ⌈%d/%d⌉ = %d", c.trees, len(spy.batches), total, k, want)
				}
			}
			var writes []setupOp
			for b, batch := range spy.batches {
				bytes, buckets := 0, 0
				for j, op := range batch {
					if op.create != (b == 0 && j < c.lead+len(handles)) {
						t.Fatalf("%v: batch %d op %d: create %v; the creates open the first batch", c.trees, b, j, op.create)
					}
					if !op.create {
						bytes, buckets = bytes+op.b, buckets+op.n
						writes = append(writes, op)
					}
				}
				if bytes > setupFrameBytes && buckets > 1 {
					t.Errorf("%v: batch %d carries %d bytes, budget %d", c.trees, b, bytes, setupFrameBytes)
				}
				if b < len(spy.batches)-1 {
					next := handles[slices.IndexFunc(handles, func(o *ORAM) bool { return o.name == spy.batches[b+1][0].name })]
					if bytes+next.bucketBytes() <= setupFrameBytes {
						t.Errorf("%v: batch %d carries %d bytes and the next bucket would have fit", c.trees, b, bytes)
					}
				}
			}
			// The writes cover each tree's buckets once, in heap order.
			at := 0
			for _, o := range handles {
				for next := 0; next < 1<<o.pl.levels-1; {
					if at == len(writes) || writes[at].name != o.name || writes[at].start != next {
						t.Fatalf("%v: tree %s: bucket %d is not written next", c.trees, o.name, next)
					}
					next += writes[at].n
					at++
				}
			}
			if at != len(writes) {
				t.Errorf("%v: %d writes past the trees' buckets", c.trees, len(writes)-at)
			}
			seqs[i] = spy.batches
		}
		if !reflect.DeepEqual(seqs[0], seqs[1]) {
			t.Errorf("%v: set-up batches differ between keys and seeds", c.trees)
		}
	}
}

// TestPathReadSizesConstant: every tree read and every tree write moves
// exactly the same number of bytes for the same batch size — the round's
// 2^t − 1 + r·(levels − t) buckets times the closed-form bucket size, levels
// buckets for a direct access — before and after arbitrary accesses, however
// many real blocks the buckets hold. A round is one cell call: a run of tree
// cell events.
func TestPathReadSizesConstant(t *testing.T) {
	o, srv := newTestORAM(t, 32, 8)
	srv.Trace().Enable()
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("k%d", i%20)
		var err error
		switch {
		case i < 20:
			err = o.Write(k, val(8, byte(i)))
		case i%3 == 0:
			err = o.Remove(k)
		default:
			_, _, err = o.Read(k)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	levels, _ := shape(32)
	bucket := bucketCiphertextLen(DefaultZ, 32, 8)
	want := []int{}
	for range 60 {
		want = append(want, levels*bucket, levels*bucket) // a read, then a write
	}
	p := NewPipeline(srv)
	for i, r := range []int{3, 8, 16, 64, 5} {
		batch := make([]Access, r)
		for j := range batch {
			batch[j] = Access{Store: o, Key: fmt.Sprintf("k%d", (i+j)%25), Fn: func(old []byte, found bool) ([]byte, bool) { return val(8, 1), true }}
		}
		if _, err := p.Do(batch); err != nil {
			t.Fatal(err)
		}
		tt := treetop(r, levels)
		round := (1<<tt - 1 + r*(levels-tt)) * bucket
		want = append(want, round, round) // this read, and its write-back leading the next round
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []int
	events := srv.Trace().Events()
	for i := 0; i < len(events); {
		e := events[i]
		if e.Op != trace.OpReadTreeCell && e.Op != trace.OpWriteTreeCell {
			i++
			continue
		}
		n := e.Bytes
		for i++; i < len(events) && events[i].Op == e.Op && !events[i].First; i++ {
			n += events[i].Bytes
		}
		got = append(got, n)
	}
	if !slices.Equal(got, want) {
		t.Errorf("bytes per tree call:\n got  %v\n want %v", got, want)
	}
}

// TestHeavySameKeyWorkload: hammering a single key must not corrupt state
// or grow the stash (each access rewrites the same block).
func TestHeavySameKeyWorkload(t *testing.T) {
	o, _ := newTestORAM(t, 64, 8)
	for i := 0; i < 500; i++ {
		if err := o.Write("hot", val(8, byte(i))); err != nil {
			t.Fatal(err)
		}
		v, found, err := o.Read("hot")
		if err != nil || !found || v[0] != byte(i) {
			t.Fatalf("iteration %d: %v %v %v", i, v, found, err)
		}
	}
	if len(o.entries) != 1 {
		t.Errorf("Len = %d", len(o.entries))
	}
	if o.maxStash > stashLimit(o.capacity) {
		t.Errorf("stash %d exceeded limit %d", o.maxStash, stashLimit(o.capacity))
	}
}

func TestDestroyFreesServerObject(t *testing.T) {
	o, srv := newTestORAM(t, 16, 8)
	if err := o.Write("k", val(8, 1)); err != nil {
		t.Fatal(err)
	}
	if err := o.Destroy(); err != nil {
		t.Fatalf("Destroy: %v", err)
	}
	st, _ := srv.Stats()
	if st.Objects != 0 {
		t.Errorf("objects after Destroy = %d", st.Objects)
	}
}

// TestStoreConformance runs the key-value contract the protocols consume
// (Definition 4's Read/Write, and the Remove Algorithm 5 needs).
func TestStoreConformance(t *testing.T) {
	t.Run("path", func(t *testing.T) {
		s, _ := newTestORAM(t, 16, 4)

		if _, found, err := s.Read("ghost"); err != nil || found {
			t.Errorf("Read(ghost) = %v, %v", found, err)
		}
		if err := s.Write("a", []byte{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
		v, found, err := s.Read("a")
		if err != nil || !found || !bytes.Equal(v, []byte{1, 2, 3, 4}) {
			t.Fatalf("Read(a) = %v, %v, %v", v, found, err)
		}
		if err := s.Write("a", []byte{9, 9, 9, 9}); err != nil {
			t.Fatal(err)
		}
		v, _, _ = s.Read("a")
		if !bytes.Equal(v, []byte{9, 9, 9, 9}) {
			t.Errorf("overwrite lost: %v", v)
		}
		if len(s.entries) != 1 {
			t.Errorf("Len = %d", len(s.entries))
		}
		if err := s.Remove("a"); err != nil {
			t.Fatal(err)
		}
		if _, found, _ := s.Read("a"); found {
			t.Error("key survives Remove")
		}
		if err := s.Remove("never"); err != nil {
			t.Errorf("Remove(absent): %v", err)
		}
		if err := s.Write("w", []byte{1, 2}); !errors.Is(err, ErrValueWidth) {
			t.Errorf("short value err = %v", err)
		}
		long := string(bytes.Repeat([]byte("x"), 33))
		if _, _, err := s.Read(long); !errors.Is(err, ErrKeyWidth) {
			t.Errorf("long key err = %v", err)
		}
		if s.Accesses() == 0 {
			t.Error("Accesses not counted")
		}
		if s.ClientMemoryBytes() < 0 {
			t.Error("negative client memory")
		}
	})
}

// TestStoreConformanceRandomWorkload cross-checks the store against a map
// oracle under a random op sequence.
func TestStoreConformanceRandomWorkload(t *testing.T) {
	t.Run("path", func(t *testing.T) {
		const capacity = 24
		s, _ := newTestORAM(t, capacity, 4)
		oracle := make(map[string][]byte)
		rng := rand.New(rand.NewSource(5))
		for step := 0; step < 250; step++ {
			k := fmt.Sprintf("k%d", rng.Intn(capacity))
			switch rng.Intn(3) {
			case 0:
				v := []byte{byte(step), byte(step >> 8), 0, 1}
				if err := s.Write(k, v); err != nil {
					t.Fatalf("step %d Write: %v", step, err)
				}
				oracle[k] = v
			case 1:
				v, found, err := s.Read(k)
				if err != nil {
					t.Fatalf("step %d Read: %v", step, err)
				}
				want, ok := oracle[k]
				if found != ok || (ok && !bytes.Equal(v, want)) {
					t.Fatalf("step %d: Read(%s) = %v,%v want %v,%v", step, k, v, found, want, ok)
				}
			case 2:
				if err := s.Remove(k); err != nil {
					t.Fatalf("step %d Remove: %v", step, err)
				}
				delete(oracle, k)
			}
			if len(s.entries) != len(oracle) {
				t.Fatalf("step %d: Len = %d, oracle %d", step, len(s.entries), len(oracle))
			}
		}
	})
}
