package transport

import (
	"net"
	"sync"
	"testing"
	"time"

	"github.com/oblivfd/oblivfd/internal/store"
)

func startPoolServer(t testing.TB) string {
	t.Helper()
	backend := store.NewServer()
	if err := backend.CreateArray("a", 1024); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = Serve(l, backend) }()
	t.Cleanup(func() { l.Close() })
	return l.Addr().String()
}

func TestPoolBasicOps(t *testing.T) {
	addr := startPoolServer(t)
	p, err := DialPoolWith(addr, 4, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Size() != 4 {
		t.Errorf("Size = %d", p.Size())
	}
	if err := p.WriteCells("a", []int64{3}, [][]byte{{7}}); err != nil {
		t.Fatal(err)
	}
	got, err := p.ReadCells("a", []int64{3})
	if err != nil || len(got) != 1 || got[0][0] != 7 {
		t.Fatalf("ReadCells = %v, %v", got, err)
	}
	if err := p.CreateTree("t", 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteBuckets("t", 0, make([][]byte, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReadPath("t", 0); err != nil {
		t.Fatal(err)
	}
	if err := p.WritePath("t", 0, make([][]byte, 4)); err != nil {
		t.Fatal(err)
	}
	if n, err := p.ArrayLen("a"); err != nil || n != 1024 {
		t.Errorf("ArrayLen = %d, %v", n, err)
	}
	if err := p.Reveal("x", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Stats(); err != nil {
		t.Fatal(err)
	}
	if err := p.Delete("t"); err != nil {
		t.Fatal(err)
	}
}

func TestDialPoolBadAddr(t *testing.T) {
	if _, err := DialPoolWith("127.0.0.1:1", 2, DefaultClientConfig()); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

// TestPoolParallelThroughput checks that concurrent calls through a pool
// overlap server-side latency: with a 1 ms round trip modeled on the
// backend, eight pooled workers must finish well ahead of one. (Raw
// loopback shows no gain on single-core hosts — there is no latency to
// hide — so the test injects the latency the pool exists to overlap.)
func TestPoolParallelThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement in -short mode")
	}
	backend := store.NewServer()
	if err := backend.CreateArray("a", 1024); err != nil {
		t.Fatal(err)
	}
	slow := store.WithLatency(backend, time.Millisecond)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = Serve(l, slow) }()
	addr := l.Addr().String()
	const calls = 200

	seqPool, err := DialPoolWith(addr, 1, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer seqPool.Close()
	start := time.Now()
	for i := 0; i < calls; i++ {
		if _, err := seqPool.ReadCells("a", []int64{int64(i % 1024)}); err != nil {
			t.Fatal(err)
		}
	}
	sequential := time.Since(start)

	parPool, err := DialPoolWith(addr, 8, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer parPool.Close()
	start = time.Now()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < calls; i += 8 {
				if _, err := parPool.ReadCells("a", []int64{int64(i % 1024)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	parallel := time.Since(start)

	t.Logf("sequential %v, parallel(8) %v, ratio %.2f", sequential, parallel, float64(sequential)/float64(parallel))
	if parallel >= sequential {
		t.Errorf("pooled parallel calls (%v) not faster than sequential (%v)", parallel, sequential)
	}
}
