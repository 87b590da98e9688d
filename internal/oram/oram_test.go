package oram

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
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
	if o.Len() != 1 {
		t.Errorf("Len = %d, want 1", o.Len())
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
	if o.Len() != 0 {
		t.Errorf("Len = %d, want 0", o.Len())
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
	if o.Len() != len(oracle) {
		t.Errorf("Len = %d, oracle %d", o.Len(), len(oracle))
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
	if o.maxStash > o.StashLimit() {
		t.Errorf("stash high-water %d exceeded limit %d", o.maxStash, o.StashLimit())
	}
	// With these seeds the mark has been 23 in every run, under the
	// level-by-level eviction and under the one-pass eviction alike (how many
	// blocks an eviction places does not depend on which eligible ones it
	// picks). An eviction that places fewer shows up here.
	if o.maxStash > 23 {
		t.Errorf("stash high-water %d, was 23 before eviction changed", o.maxStash)
	}
	t.Logf("stash high-water mark %d (limit %d)", o.maxStash, o.StashLimit())
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
// and one path write.
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
	if got := srv.Trace().Count(trace.OpReadPath); got != ops {
		t.Errorf("ReadPath count = %d, want %d", got, ops)
	}
	if got := srv.Trace().Count(trace.OpWritePath); got != ops {
		t.Errorf("WritePath count = %d, want %d", got, ops)
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

func (f *freshnessTap) ReadPath(name string, leaf uint32) ([][]byte, error) {
	cts, err := f.Service.ReadPath(name, leaf)
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

func (f *freshnessTap) WritePath(name string, leaf uint32, slots [][]byte) error {
	f.write(slots)
	return f.Service.WritePath(name, leaf, slots)
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
		return o.Len() == len(oracle)
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

// TestNonDefaultParameters: Z and StashFactor are configurable; the ORAM
// must stay correct with tighter buckets.
func TestNonDefaultParameters(t *testing.T) {
	srv := store.NewServer()
	o, err := Setup(srv, crypto.MustNewCipher(crypto.MustNewKey()), "z2", Config{
		Capacity: 64, KeyWidth: 8, ValueWidth: 4, Z: 2, StashFactor: 20, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.StashLimit() != 20*6 { // 20 · ceil(log₂ 64)
		t.Errorf("StashLimit = %d, want 120", o.StashLimit())
	}
	oracle := make(map[string]byte)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("k%d", rng.Intn(64))
		b := byte(rng.Intn(256))
		if err := o.Write(k, val(4, b)); err != nil {
			t.Fatalf("Write: %v", err)
		}
		oracle[k] = b
	}
	for k, b := range oracle {
		v, found, err := o.Read(k)
		if err != nil || !found || v[0] != b {
			t.Fatalf("Read(%s) = %v,%v,%v want %d", k, v, found, err, b)
		}
	}
	t.Logf("Z=2 stash high-water: %d (limit %d)", o.maxStash, o.StashLimit())
}

func TestAccessors(t *testing.T) {
	o, _ := newTestORAM(t, 20, 8)
	if o.Name() != "test" {
		t.Errorf("Name = %q", o.Name())
	}
	if o.Capacity() != 20 {
		t.Errorf("Capacity = %d", o.Capacity())
	}
	if o.ValueWidth() != 8 {
		t.Errorf("ValueWidth = %d", o.ValueWidth())
	}
	if err := o.Write("k", val(8, 1)); err != nil {
		t.Fatal(err)
	}
	if len(o.stash) > o.StashLimit() {
		t.Errorf("stash holds %d blocks", len(o.stash))
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
	if o.Len() != 0 {
		t.Errorf("Len = %d", o.Len())
	}
}

// bucketCiphertextLen is the closed form for what the server stores per
// bucket: Z blocks of flag ∥ version ∥ padded key ∥ value under one nonce and
// one tag — public parameters only.
func bucketCiphertextLen(z, keyWidth, valueWidth int) int {
	return z*(1+verWidth+crypto.PadWidth(keyWidth)+valueWidth) + crypto.Overhead
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

// setupSpy records every WriteBuckets call: where it starts, how many
// buckets it carries, and their ciphertext bytes.
type setupSpy struct {
	store.Service
	calls []setupCall
}

type setupCall struct{ start, count, bytes int }

func (s *setupSpy) WriteBuckets(name string, start int, slots [][]byte) error {
	n := 0
	for _, ct := range slots {
		n += len(ct)
	}
	s.calls = append(s.calls, setupCall{start, len(slots), n})
	return s.Service.WriteBuckets(name, start, slots)
}

// TestSetupFramesClosedForm: Setup writes a tree of 2^levels − 1 buckets in
// heap order, k = setupBuckets() to a call, so in ⌈(2^levels − 1)/k⌉
// WriteBuckets calls — one for each tree of the benchmark's ORAM workloads —
// each carrying at most setupFrameBytes of ciphertext unless one bucket is
// larger than that. The calls' starts, sizes and bytes are a function of the
// public configuration: two keys and two seeds give the same sequence.
func TestSetupFramesClosedForm(t *testing.T) {
	for _, c := range []struct{ capacity, valueWidth, calls int }{
		{2048 + 2000, 16, 1}, // Ex-ORAM's trees on exoram-dynamic: 4 095 buckets of 176 B
		{1024, 8, 1},         // Or-ORAM's on oram-tcp: 1 023 of 144 B
		{64, 4096, 2},        // 16 KiB buckets, 47 to a call
		{2, 256 << 10, 3},    // buckets over the budget, one to a call
	} {
		var seqs [2][]setupCall
		for i, seed := range []int64{1, 2} {
			spy := &setupSpy{Service: store.NewServer()}
			o, err := Setup(spy, crypto.MustNewCipher(crypto.MustNewKey()), "t", Config{
				Capacity: c.capacity, KeyWidth: 8, ValueWidth: c.valueWidth, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			k, total := o.setupBuckets(), 1<<o.levels-1
			if want := (total + k - 1) / k; len(spy.calls) != want || want != c.calls {
				t.Errorf("capacity %d, value width %d: %d calls, want ⌈%d/%d⌉ = %d (%d)", c.capacity, c.valueWidth, len(spy.calls), total, k, want, c.calls)
			}
			next := 0
			for _, call := range spy.calls {
				if call.start != next || call.count > k {
					t.Fatalf("capacity %d: call (%d, %d) after %d buckets, %d to a call", c.capacity, call.start, call.count, next, k)
				}
				if call.count > 1 && call.bytes > setupFrameBytes {
					t.Errorf("capacity %d: call (%d, %d) carries %d bytes, budget %d", c.capacity, call.start, call.count, call.bytes, setupFrameBytes)
				}
				next += call.count
			}
			if next != total {
				t.Errorf("capacity %d: Setup wrote %d buckets of %d", c.capacity, next, total)
			}
			seqs[i] = spy.calls
		}
		if !slices.Equal(seqs[0], seqs[1]) {
			t.Errorf("capacity %d: Setup calls differ between keys and seeds: %v, %v", c.capacity, seqs[0], seqs[1])
		}
	}
}

// TestPathReadSizesConstant: every path read and every path write moves
// exactly the same number of bytes — levels × the closed-form bucket size —
// before and after arbitrary accesses, however many real blocks the buckets
// hold.
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
	want := levels * bucketCiphertextLen(DefaultZ, 32, 8)
	paths := 0
	for _, e := range srv.Trace().Events() {
		if e.Op != trace.OpReadPath && e.Op != trace.OpWritePath {
			continue
		}
		paths++
		if e.Bytes != want {
			t.Fatalf("%v moved %d bytes, want %d", e.Op, e.Bytes, want)
		}
	}
	if paths != 120 {
		t.Errorf("saw %d path operations, want 120", paths)
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
	if o.Len() != 1 {
		t.Errorf("Len = %d", o.Len())
	}
	if o.maxStash > o.StashLimit() {
		t.Errorf("stash %d exceeded limit %d", o.maxStash, o.StashLimit())
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
		if s.Len() != 1 {
			t.Errorf("Len = %d", s.Len())
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
			if s.Len() != len(oracle) {
				t.Fatalf("step %d: Len = %d, oracle %d", step, s.Len(), len(oracle))
			}
		}
	})
}

// TestBatchedStashBound: the stash left after each batch's eviction must stay
// within StashLimit (7·log₂ n) at every tree size the engines build, n = 2^10
// … 2^15, with the shipped tree shape (half the next power of two ≥ n leaves,
// so 25 % of the leaf slots are live at full load): fill the tree a batch of
// fresh keys at a time, then n accesses in batches of random live keys, half
// reads and half writes. It runs at r = 64, the engines' chunk, which evicts
// along the union of its paths, and at r = 1, the textbook access a direct
// Read or Update makes. Each (r, n) is a group whose seeds run as parallel
// subtests; the group's maxima are logged once its seeds finish. That is most
// of a minute of AES on one core; under -short, and under the race detector,
// it stops at 2^11. The high-water marks are in DESIGN.md §10 and
// EXPERIMENTS.md ("Tree shape").
func TestBatchedStashBound(t *testing.T) {
	top := 15
	if testing.Short() || raceEnabled {
		top = 11
	}
	for _, c := range []struct{ r, seeds int }{{64, 20}, {1, 4}} {
		for lg := 10; lg <= top; lg++ {
			n := 1 << lg
			var mu sync.Mutex
			high, inBatch := 0, 0
			t.Run(fmt.Sprintf("r=%d/n=2^%d", c.r, lg), func(t *testing.T) {
				for seed := int64(1); seed <= int64(c.seeds); seed++ {
					t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
						t.Parallel()
						h, b := stashHighWater(t, c.r, n, seed)
						mu.Lock()
						high, inBatch = max(high, h), max(inBatch, b)
						mu.Unlock()
					})
				}
			})
			limit := DefaultStashFactor * lg
			if high > limit {
				t.Errorf("r = %d, n = 2^%d: stash after a batch reached %d, over the limit %d", c.r, lg, high, limit)
			}
			t.Logf("r = %d, n = 2^%d: stash after a batch at most %d over %d seeds (limit %d); before eviction at most %d", c.r, lg, high, c.seeds, limit, inBatch)
		}
	}
}

// stashHighWater runs one seed of TestBatchedStashBound: it returns the
// largest stash left after a batch and the largest stash before eviction.
func stashHighWater(t *testing.T, r, n int, seed int64) (afterBatch, inBatch int) {
	o, err := Setup(store.NewServer(), crypto.MustNewCipher(crypto.MustNewKey()), "t", Config{
		Capacity: n, KeyWidth: 8, ValueWidth: 8, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	p := NewPipeline(o.svc)
	accesses := make([]Access, r)
	v := val(8, 1)
	write := func([]byte, bool) ([]byte, bool) { return v, true }
	read := func(old []byte, found bool) ([]byte, bool) { return old, found }
	for i := 0; i < 2*n; i += r {
		for j := range accesses {
			k := i + j // a fresh key while filling
			if i >= n {
				k = rng.Intn(n)
			}
			accesses[j] = Access{Store: o, Key: strconv.Itoa(k), Fn: write}
			if i >= n && (i+j)%2 == 0 {
				accesses[j].Fn = read
			}
		}
		if err := p.Do(accesses...); err != nil {
			t.Fatalf("r = %d, n = %d, seed %d, access %d: %v", r, n, seed, i, err)
		}
		afterBatch = max(afterBatch, len(o.stash))
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if o.Len() != n {
		t.Fatalf("r = %d, n = %d, seed %d: %d keys live", r, n, seed, o.Len())
	}
	return afterBatch, o.maxStash
}
