package oram

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/store"
)

func benchORAM(tb testing.TB, capacity int) *ORAM {
	tb.Helper()
	srv := store.NewServer()
	o, err := Setup(srv, crypto.MustNewCipher(crypto.MustNewKey()), "bench", Config{
		Capacity:   capacity,
		KeyWidth:   32,
		ValueWidth: 16,
		Seed:       1,
	})
	if err != nil {
		tb.Fatalf("Setup: %v", err)
	}
	v := make([]byte, 16)
	for i := 0; i < capacity; i++ {
		if err := o.Write(fmt.Sprintf("key%04d", i), v); err != nil {
			tb.Fatalf("Write: %v", err)
		}
	}
	return o
}

// BenchmarkPathAccess measures one full oblivious access (path read, block
// decryption, eviction, path re-encryption) against the in-memory server, so
// allocs/op reflects the client-side codec cost with no network noise.
func BenchmarkPathAccess(b *testing.B) {
	o := benchORAM(b, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := o.Read(fmt.Sprintf("key%04d", i%256)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEngineShape runs the access mix the engines produce — a Read and a
// Write alternating over the live keys of a half-full ORAM — on an ORAM of
// the engines' key width (8) and the given capacity and value width.
func benchEngineShape(b *testing.B, capacity, valueWidth int) {
	o, err := Setup(store.NewServer(), crypto.MustNewCipher(crypto.MustNewKey()), "bench", Config{
		Capacity: capacity, KeyWidth: 8, ValueWidth: valueWidth, Seed: 1,
	})
	if err != nil {
		b.Fatalf("Setup: %v", err)
	}
	live := capacity / 2
	keys := make([]string, live)
	v := make([]byte, valueWidth)
	for i := range keys {
		keys[i] = strconv.Itoa(i)
		if err := o.Write(keys[i], v); err != nil {
			b.Fatalf("Write: %v", err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[rng.Intn(live)]
		if i%2 == 0 {
			if _, _, err := o.Read(k); err != nil {
				b.Fatal(err)
			}
		} else if err := o.Write(k, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathAccessExDynamic is one access of an Ex-ORAM partition store as
// the exoram-dynamic workload sizes it: 2048 records plus 2000 of insert
// headroom (13 levels), 16-byte values.
func BenchmarkPathAccessExDynamic(b *testing.B) { benchEngineShape(b, 2048+2000, 16) }

// BenchmarkPathAccessOrStatic is one access of an Or-ORAM partition store as
// the oram-tcp workload sizes it: 1024 records (11 levels), 8-byte values.
func BenchmarkPathAccessOrStatic(b *testing.B) { benchEngineShape(b, 1024, 8) }

// TestPathAccessAllocs pins the per-access allocation count in buckets. A
// Read hit allocates one ciphertext per level (each its own allocation: the
// in-process server retains them), the server's path list and two node lists,
// the returned value copy, and, for every real block the path held, the key
// string and value copy that enter the stash — about seven blocks on this
// tree, which is filled to capacity. Everything else (bucket plaintexts,
// associated data, eviction lists) is per-handle scratch. Measured: 31 for 9
// levels (67 when every block was sealed alone). The budget allows levels+2
// real blocks per path and still sits under levels·Z, which sealing per block
// would spend on ciphertexts alone.
func TestPathAccessAllocs(t *testing.T) {
	o := benchORAM(t, 256)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%04d", i)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := o.Read(keys[i%256]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	// levels for capacity 256: 256 leaves → 9 levels; z = 4.
	budget := float64(o.levels + 4 + 2*(o.levels+2))
	if perBlock := float64(o.levels * o.z); budget >= perBlock {
		t.Fatalf("budget %.0f would admit one ciphertext per block (%.0f)", budget, perBlock)
	}
	if allocs > budget {
		t.Errorf("oblivious access allocates %.1f times per op, budget %.0f (%d levels)", allocs, budget, o.levels)
	}
	t.Logf("%.1f allocations per access (%d levels, budget %.0f)", allocs, o.levels, budget)
}
