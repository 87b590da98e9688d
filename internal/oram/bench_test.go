package oram

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/telemetry"
	"github.com/oblivfd/oblivfd/internal/trace"
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

// engineShape is an ORAM of the engines' key width (8) and the given capacity
// and value width, filled half full, with its live keys.
func engineShape(tb testing.TB, capacity, valueWidth int) (*ORAM, []string) {
	tb.Helper()
	o, err := Setup(store.NewServer(), crypto.MustNewCipher(crypto.MustNewKey()), "bench", Config{
		Capacity: capacity, KeyWidth: 8, ValueWidth: valueWidth, Seed: 1,
	})
	if err != nil {
		tb.Fatalf("Setup: %v", err)
	}
	keys := make([]string, capacity/2)
	v := make([]byte, valueWidth)
	for i := range keys {
		keys[i] = strconv.Itoa(i)
		if err := o.Write(keys[i], v); err != nil {
			tb.Fatalf("Write: %v", err)
		}
	}
	return o, keys
}

// engineMix returns the access mix the engines produce — a Read and a Write
// alternating over random live keys — as one step per call.
func engineMix(o *ORAM, keys []string) func() error {
	rng := rand.New(rand.NewSource(1))
	v := make([]byte, o.valueWidth)
	i := 0
	return func() error {
		k := keys[rng.Intn(len(keys))]
		i++
		if i%2 == 1 {
			_, _, err := o.Read(k)
			return err
		}
		return o.Write(k, v)
	}
}

// benchEngineShape runs engineMix on an engineShape ORAM.
func benchEngineShape(b *testing.B, capacity, valueWidth int) {
	step := engineMix(engineShape(b, capacity, valueWidth))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathAccessExDynamic is one access of an Ex-ORAM partition store as
// the exoram-dynamic workload sizes it: 2048 records plus 2000 of insert
// headroom (12 levels), O^IKL's 12-byte values (key ∥ label).
func BenchmarkPathAccessExDynamic(b *testing.B) { benchEngineShape(b, 2048+2000, 12) }

// BenchmarkPathAccessOrStatic is one access of an Or-ORAM partition store as
// the oram-tcp workload sizes it: 1024 records (10 levels), O^KL's 4-byte
// values (a label).
func BenchmarkPathAccessOrStatic(b *testing.B) { benchEngineShape(b, 1024, 4) }

// benchSetup measures Setup of an empty tree of the engines' key width (8)
// and the given capacity and value width, against the in-process server —
// every bucket sealed as Z dummies and written, then the tree deleted — and
// reports the batches it takes, a round each over the wire.
func benchSetup(b *testing.B, capacity, valueWidth int) {
	spy := &setupSpy{Service: store.NewServer()}
	cipher := crypto.MustNewCipher(crypto.MustNewKey())
	cfg := Config{Capacity: capacity, KeyWidth: 8, ValueWidth: valueWidth, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := Setup(spy, cipher, "bench", cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := o.Destroy(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(spy.batches))/float64(b.N), "calls/op")
}

// BenchmarkSetupExDynamic is Setup of BenchmarkPathAccessExDynamic's tree,
// one of the exoram-dynamic workload's Ex-ORAM trees: 4 095 buckets and the
// create in one batch.
func BenchmarkSetupExDynamic(b *testing.B) { benchSetup(b, 2048+2000, 12) }

// BenchmarkSetupOrStatic is Setup of BenchmarkPathAccessOrStatic's tree, one
// of the oram-tcp workload's Or-ORAM trees: 1 023 buckets and the create in
// one batch.
func BenchmarkSetupOrStatic(b *testing.B) { benchSetup(b, 1024, 4) }

// BenchmarkPathAccessBatch is one batch of r = 64 accesses — a chunk's
// accesses to one tree — through a pipeline, on the Or-ORAM shape of
// BenchmarkPathAccessOrStatic: the engineMix of reads and writes over random
// live keys, so keys repeat now and then. The round reads the tree's top
// ⌈log₂ 64⌉ = 6 levels once and the 64 paths below them: buckets/round is
// 2^6 − 1 + 64·(10 − 6) = 319 each way (640 when every path was sent whole),
// and bytes/access the ciphertext bytes a round moves both ways, per access.
// Each distinct bucket is opened once and sealed once: opens/access and
// seals/access are bucket counts per access (10 for a lone access in this
// 10-level tree), the same on every run with the seed fixed.
func BenchmarkPathAccessBatch(b *testing.B) {
	const r = 64
	o, keys := engineShape(b, 1024, 4)
	rec := o.svc.(*store.Server).Trace()
	reg := telemetry.New()
	o.cipher.SetTelemetry(reg)
	opens := reg.Counter("oblivfd_integrity_checks_total")
	rng := rand.New(rand.NewSource(1))
	v := make([]byte, 4)
	write := func([]byte, bool) ([]byte, bool) { return v, true }
	read := func(old []byte, found bool) ([]byte, bool) { return old, found }
	p := NewPipeline(o.svc)
	accesses := make([]Access, r)
	var sealed int64
	b.ReportAllocs()
	b.ResetTimer()
	opens0, bytes0, buckets0 := opens.Value(), rec.TotalBytes(), rec.Count(trace.OpReadTreeCell)
	for i := 0; i < b.N; i++ {
		for j := range accesses {
			accesses[j] = Access{Store: o, Key: keys[rng.Intn(len(keys))], Fn: read}
			if j%2 == 1 {
				accesses[j].Fn = write
			}
		}
		if _, err := p.Do(accesses); err != nil {
			b.Fatal(err)
		}
		sealed += int64(len(o.nodes)) // one seal per distinct bucket
	}
	if err := p.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(rec.Count(trace.OpReadTreeCell)-buckets0)/float64(b.N), "buckets/round")
	b.ReportMetric(float64(rec.TotalBytes()-bytes0)/float64(r*b.N), "bytes/access")
	b.ReportMetric(float64(opens.Value()-opens0)/float64(r*b.N), "opens/access")
	b.ReportMetric(float64(sealed)/float64(r*b.N), "seals/access")
}

// TestPathAccessAllocs pins the per-access allocation count in buckets, on a
// full 256-key tree (Reads) and on the two engine shapes (engineMix). An
// access allocates one ciphertext per level (each its own allocation: the
// in-process server retains them), the server's answer list, and a Read the
// returned value copy: levels + 2. Everything else (the round's positions,
// bucket plaintexts, associated data, eviction lists, the slots a fetched
// block is copied into) is per-handle state or scratch. Measured: 10 for 8
// levels (12 while the server built a path's index list for ReadPath, 67 when
// every block was sealed alone, 31 while the stash was a map allocating a key
// and a value per real block fetched), so a per-block allocation cannot come
// back unnoticed.
func TestPathAccessAllocs(t *testing.T) {
	full := benchORAM(t, 256)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%04d", i)
	}
	i := 0
	readAll := func() error {
		_, _, err := full.Read(keys[i%256])
		i++
		return err
	}
	ex, exKeys := engineShape(t, 2048+2000, 12)
	or, orKeys := engineShape(t, 1024, 4)
	for _, c := range []struct {
		name string
		o    *ORAM
		step func() error
	}{
		{"full 256", full, readAll},
		{"ex-dynamic", ex, engineMix(ex, exKeys)},
		{"or-static", or, engineMix(or, orKeys)},
	} {
		allocs := testing.AllocsPerRun(200, func() {
			if err := c.step(); err != nil {
				t.Fatal(err)
			}
		})
		budget := float64(c.o.levels + 2)
		if allocs > budget {
			t.Errorf("%s: oblivious access allocates %.1f times per op, budget %.0f (%d levels)", c.name, allocs, budget, c.o.levels)
		}
		t.Logf("%s: %.1f allocations per access (%d levels, budget %.0f)", c.name, allocs, c.o.levels, budget)
	}
}
