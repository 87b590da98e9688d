package obsort

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/store"
)

// benchArray builds an n-record array of the Sort engine's 12-byte
// (key, id) records — an 8-byte key and a 4-byte id — on a fresh in-process
// server.
func benchArray(tb testing.TB, n int) *Array {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = make([]byte, 12)
		binary.BigEndian.PutUint64(recs[i], rng.Uint64())
		binary.BigEndian.PutUint32(recs[i][8:], uint32(i))
	}
	a, err := Create(store.NewServer(), crypto.MustNewCipher(crypto.MustNewKey()), "bench", recs)
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

func lessKey(a, b []byte) bool { return bytes.Compare(a[:8], b[:8]) < 0 }

// firstBlocks is the first blocks·ChunkCells/2 comparators of the network's
// first stage: that many full compare-exchange blocks.
func firstBlocks(tb testing.TB, p, blocks int) [][2]int64 {
	tb.Helper()
	var first [][2]int64
	err := Stages(p, func(pairs [][2]int64) error {
		if first == nil {
			first = append(first, pairs[:blocks*blockPairs]...)
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return first
}

// BenchmarkCompareExchangeBlock is the layer's unit of work: one block of
// ChunkCells/2 comparators on its own, a chain of one — read the block's two
// runs (ChunkCells records), open both, compare and swap, seal both fresh,
// write them back.
func BenchmarkCompareExchangeBlock(b *testing.B) {
	a := benchArray(b, 4*ChunkCells)
	block := firstBlocks(b, a.p, 1)
	sc := a.newScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.compareExchangeChain(sc, block, lessKey); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(block)), "ns/comparator")
}

// BenchmarkSort4096 is one full bitonic sort of 4096 records (159 744
// comparators), the size the sort-mem workload runs. allocs/comparator is
// the number the allocation-free cell path is held to.
func BenchmarkSort4096(b *testing.B) {
	a := benchArray(b, 4096)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Sort(lessKey, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	comparators := float64(a.Comparisons())
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/comparators, "ns/comparator")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/comparators, "allocs/comparator")
}

// TestBlockAllocs bounds what one block costs in allocations on the two
// paths that move almost every cell of a Sort discovery. Opening, comparing
// and sealing allocate nothing; what remains is per block: the slab of fresh
// ciphertexts and the slice naming them (the server keeps both), and the
// in-process server's own result slice on the read — and, inside a chain,
// the result slice of the batch that carries the previous block's write
// with the read.
func TestBlockAllocs(t *testing.T) {
	const perBlock = 4
	a := benchArray(t, 4*ChunkCells)
	block := firstBlocks(t, a.p, 1)
	sc := a.newScratch()
	got := testing.AllocsPerRun(100, func() {
		if err := a.compareExchangeChain(sc, block, lessKey); err != nil {
			t.Fatal(err)
		}
	})
	if got > perBlock {
		t.Errorf("one %d-comparator block allocates %.0f times, want at most %d", len(block), got, perBlock)
	}

	// One Scan over a single-chunk array is one scan block plus the
	// scratch Scan sets up for itself (the struct and its four buffers).
	one := benchArray(t, ChunkCells)
	got = testing.AllocsPerRun(100, func() {
		if err := one.Scan(func(i int, rec []byte) ([]byte, error) { return rec, nil }); err != nil {
			t.Fatal(err)
		}
	})
	if got > perBlock+5 {
		t.Errorf("one %d-cell Scan chunk allocates %.0f times, want at most %d", ChunkCells, got, perBlock+5)
	}

	// A chain of chainBlocks blocks, a sub-stage's steady state: 4·16 − 1
	// allocations, the first block's read and the last block's write being
	// calls of their own. Under the race detector sync.Pool drops a share of
	// what is put back, so the store's pooled call frames are allocated
	// again now and then and the count says nothing about this path.
	if raceEnabled {
		return
	}
	long := benchArray(t, 2*chainBlocks*ChunkCells)
	chain := firstBlocks(t, long.p, chainBlocks)
	sc = long.newScratch()
	got = testing.AllocsPerRun(20, func() {
		if err := long.compareExchangeChain(sc, chain, lessKey); err != nil {
			t.Fatal(err)
		}
	}) / chainBlocks
	if got > perBlock {
		t.Errorf("a block inside a %d-block chain allocates %.2f times, want at most %d", chainBlocks, got, perBlock)
	}
}

// TestSortAllocsPerComparator holds a whole sort to one allocation per
// comparator (the per-cell path took 14); the block path needs about a
// tenth of that.
func TestSortAllocsPerComparator(t *testing.T) {
	a := benchArray(t, 1024)
	var comparators float64
	allocs := testing.AllocsPerRun(1, func() {
		before := a.Comparisons()
		if err := a.Sort(lessKey, 1); err != nil {
			t.Fatal(err)
		}
		comparators = float64(a.Comparisons() - before)
	})
	if allocs > comparators {
		t.Errorf("sort of 1024 records allocates %.0f times for %.0f comparators", allocs, comparators)
	}
}
