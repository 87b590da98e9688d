package transport

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"

	"github.com/oblivfd/oblivfd/internal/store"
)

// startServer runs a transport server over a real TCP socket and returns a
// connected client.
func startServer(t *testing.T) (*Client, *store.Server) {
	t.Helper()
	backend := store.NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() { _ = Serve(l, backend) }()
	t.Cleanup(func() { l.Close() })

	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	return client, backend
}

func TestTCPArrayRoundTrip(t *testing.T) {
	c, _ := startServer(t)
	if err := c.CreateArray("a", 3); err != nil {
		t.Fatalf("CreateArray: %v", err)
	}
	n, err := c.ArrayLen("a")
	if err != nil || n != 3 {
		t.Fatalf("ArrayLen = %d, %v", n, err)
	}
	want := [][]byte{{1, 2, 3}, {4}}
	if err := c.WriteCells("a", []int64{0, 2}, want); err != nil {
		t.Fatalf("WriteCells: %v", err)
	}
	got, err := c.ReadCells("a", []int64{0, 2})
	if err != nil {
		t.Fatalf("ReadCells: %v", err)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("cell %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTCPTreeRoundTrip(t *testing.T) {
	c, _ := startServer(t)
	if err := c.CreateTree("t", 3, 2); err != nil {
		t.Fatalf("CreateTree: %v", err)
	}
	slots := make([][]byte, 6)
	for i := range slots {
		slots[i] = []byte{byte(10 + i)}
	}
	if err := c.WritePath("t", 1, slots); err != nil {
		t.Fatalf("WritePath: %v", err)
	}
	got, err := c.ReadPath("t", 1)
	if err != nil {
		t.Fatalf("ReadPath: %v", err)
	}
	if len(got) != 6 {
		t.Fatalf("path slots = %d, want 6", len(got))
	}
	for i := range slots {
		if !bytes.Equal(got[i], slots[i]) {
			t.Errorf("slot %d = %v, want %v", i, got[i], slots[i])
		}
	}
}

func TestTCPErrorsPropagate(t *testing.T) {
	c, _ := startServer(t)
	if _, err := c.ReadCells("missing", []int64{0}); err == nil {
		t.Error("ReadCells on missing array returned nil error")
	}
	if err := c.CreateArray("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateArray("a", 1); err == nil {
		t.Error("duplicate CreateArray returned nil error over TCP")
	}
	// The connection must survive an application-level error.
	if n, err := c.ArrayLen("a"); err != nil || n != 1 {
		t.Errorf("ArrayLen after error = %d, %v", n, err)
	}
}

func TestTCPRevealAndStats(t *testing.T) {
	c, backend := startServer(t)
	if err := c.Reveal("fd:0->1", 1); err != nil {
		t.Fatalf("Reveal: %v", err)
	}
	got := backend.Reveals()
	if len(got) != 1 || got[0].Tag != "fd:0->1" || got[0].Value != 1 {
		t.Errorf("Reveals = %v", got)
	}
	if err := c.CreateArray("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteCells("a", []int64{0}, [][]byte{make([]byte, 7)}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Objects != 1 || st.StoredBytes != 7 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestTCPDelete(t *testing.T) {
	c, _ := startServer(t)
	if err := c.CreateArray("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("a"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := c.ArrayLen("a"); err == nil {
		t.Error("ArrayLen after delete succeeded")
	}
}

func TestClientClosed(t *testing.T) {
	c, _ := startServer(t)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := c.ArrayLen("a"); !errors.Is(err, ErrClosed) {
		t.Errorf("call after Close err = %v, want ErrClosed", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	backend := store.NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = Serve(l, backend) }()

	if err := backend.CreateArray("shared", 64); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(l.Addr().String())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for i := w; i < 64; i += 4 {
				ct := []byte{byte(i)}
				if err := c.WriteCells("shared", []int64{int64(i)}, [][]byte{ct}); err != nil {
					t.Errorf("write %d: %v", i, err)
					return
				}
				got, err := c.ReadCells("shared", []int64{int64(i)})
				if err != nil || !bytes.Equal(got[0], ct) {
					t.Errorf("read %d = %v, %v", i, got, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestInProcServiceParity checks that the raw store.Server and the TCP proxy
// behave identically for a scripted call sequence — protocol code must not
// care which one it holds.
func TestInProcServiceParity(t *testing.T) {
	tcpClient, _ := startServer(t)
	inproc := store.NewServer()

	exercise := func(svc store.Service) []string {
		var log []string
		record := func(tag string, err error) {
			if err != nil {
				log = append(log, tag+":err")
			} else {
				log = append(log, tag+":ok")
			}
		}
		record("create", svc.CreateArray("p", 2))
		record("dup", svc.CreateArray("p", 2))
		record("write", svc.WriteCells("p", []int64{0}, [][]byte{{1}}))
		_, err := svc.ReadCells("p", []int64{0, 1})
		record("read", err)
		_, err = svc.ReadCells("p", []int64{9})
		record("oob", err)
		record("tree", svc.CreateTree("q", 2, 2))
		_, err = svc.ReadPath("q", 1)
		record("path", err)
		record("del", svc.Delete("p"))
		record("del2", svc.Delete("p"))
		return log
	}

	a := exercise(inproc)
	b := exercise(tcpClient)
	if len(a) != len(b) {
		t.Fatalf("log lengths differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("step %d: inproc %q vs tcp %q", i, a[i], b[i])
		}
	}
}

// TestTCPOversizedShapesAreRefused: an object shape a client sends is checked
// before anything is allocated for it. Shapes whose cell count does not fit
// an int, or overflows into a small one, are refused as out of range, and the
// server, which other sessions share, goes on answering.
func TestTCPOversizedShapesAreRefused(t *testing.T) {
	c, _ := startServer(t)
	for name, create := range map[string]func() error{
		"array of 2^62 cells":   func() error { return c.CreateArray("a", 1<<62) },
		"tree of 64 levels":     func() error { return c.CreateTree("t64", 64, 1) },
		"tree of 63 levels":     func() error { return c.CreateTree("t63", 63, 1) },
		"3 × slots overflowing": func() error { return c.CreateTree("t2", 2, 6148914691236517206) },
	} {
		if err := create(); !errors.Is(err, store.ErrOutOfRange) {
			t.Errorf("%s: %v, want ErrOutOfRange", name, err)
		}
	}
	if err := c.CreateTree("t", 3, 2); err != nil {
		t.Fatalf("the server stopped answering: %v", err)
	}
	if slots, err := c.ReadPath("t", 3); err != nil || len(slots) != 6 {
		t.Fatalf("ReadPath = %d slots, %v", len(slots), err)
	}
}

// TestTCPWriteBucketsFarOutOfRange: a bucket start so large that its first
// slot's offset does not fit an int is refused as out of range like any
// other, and the server, which other sessions share, goes on answering. (The
// range check once multiplied first: the product wrapped, passed, and the
// write indexed the tree at a negative offset, a panic nothing recovered.)
func TestTCPWriteBucketsFarOutOfRange(t *testing.T) {
	c, _ := startServer(t)
	if err := c.CreateTree("t", 3, 2); err != nil {
		t.Fatal(err)
	}
	for _, start := range []int{1 << 62, 1<<63 - 1, 1 << 61, 7, -1} {
		if err := c.WriteBuckets("t", start, [][]byte{{1}, {2}}); !errors.Is(err, store.ErrOutOfRange) {
			t.Errorf("WriteBuckets at bucket %d: %v, want ErrOutOfRange", start, err)
		}
	}
	slots, err := c.ReadPath("t", 0)
	if err != nil {
		t.Fatalf("the server stopped answering: %v", err)
	}
	for i, slot := range slots {
		if slot != nil {
			t.Errorf("slot %d of the path = %v after refused writes, want empty", i, slot)
		}
	}
}
