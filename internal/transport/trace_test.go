package transport

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/oblivfd/oblivfd/internal/otrace"
	"github.com/oblivfd/oblivfd/internal/store"
)

// sessionFrameSizes sends a fixed request sequence through a connection's
// real encoder, every request stamped with the given trace context, and
// returns the length of each frame as written.
func sessionFrameSizes(t *testing.T, ctx otrace.SpanContext) []int {
	t.Helper()
	var out bytes.Buffer
	fc := newFrameConn(&out)
	reqs := []request{
		{Op: store.Op{Kind: store.KindHello, Name: "db"}, Token: "secret"},
		{Op: store.Op{Kind: store.KindCreateArray, Name: "a", N: 64}},
		{Op: store.Op{Kind: store.KindWriteCells, Name: "a", Idx: []int64{0, 1}, Cts: [][]byte{{0xAB}, {0xCD}}}},
		{Op: store.Op{Kind: store.KindReadCells, Name: "a", Idx: []int64{0, 1}}},
		{Op: store.Op{Kind: store.KindBatch, Ops: []store.BatchOp{{Write: true, Name: "a", Idx: []int64{2}, Cts: [][]byte{{0xEF}}}}}},
		{Op: store.Op{Kind: store.KindReadPath, Name: "t", Leaf: 300}},
		{Op: store.Op{Kind: store.KindBatch, Ops: []store.BatchOp{
			{Write: true, Name: "t", Idx: []int64{0, 2, 300}, Cts: [][]byte{{0xAB}, {0xCD}, {0xEF}}},
			{Name: "u", Idx: []int64{0, 1, 5}},
		}}},
	}
	sizes := make([]int, len(reqs))
	for i := range reqs {
		reqs[i].Ctx = ctx.Wire()
		before := out.Len()
		if err := fc.flush(appendRequest(fc.begin(), &reqs[i])); err != nil {
			t.Fatalf("encode: %v", err)
		}
		sizes[i] = out.Len() - before
		if want := frameLen(&reqs[i]); sizes[i] != want {
			t.Errorf("%s frame is %d bytes on the wire, closed form says %d", reqs[i].Kind, sizes[i], want)
		}
	}
	return sizes
}

// TestFrameSizeTraceNeutral is the codec half of the leakage argument
// (DESIGN.md §14): the length of every frame the real encoder writes is
// identical whether the context is zero (tracing off), sampled, or unsampled
// — and identical across different ID values, including IDs whose bytes are
// all ≥ 0x80 (which a varint-per-element encoding would inflate) — and equals
// the closed form frameLen, which never looks at the context.
func TestFrameSizeTraceNeutral(t *testing.T) {
	high := otrace.SpanContext{Sampled: true}
	low := otrace.SpanContext{Sampled: false}
	for i := 0; i < 16; i++ {
		high.Trace[i] = byte(0x80 + i)
		low.Trace[i] = byte(i + 1)
	}
	for i := 0; i < 8; i++ {
		high.Span[i] = byte(0xF0 + i)
		low.Span[i] = byte(i + 1)
	}

	off := sessionFrameSizes(t, otrace.SpanContext{})
	sampledHigh := sessionFrameSizes(t, high)
	unsampledLow := sessionFrameSizes(t, low)
	if !reflect.DeepEqual(off, sampledHigh) || !reflect.DeepEqual(off, unsampledLow) {
		t.Fatalf("frame bytes leak tracing state: off=%v sampled(high IDs)=%v unsampled(low IDs)=%v",
			off, sampledHigh, unsampledLow)
	}
}

// tallyListener counts every byte the server reads off accepted
// connections: the adversary's exact view of client→server traffic volume.
type tallyListener struct {
	net.Listener
	n *atomic.Int64
}

func (l tallyListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return tallyConn{Conn: c, n: l.n}, nil
}

type tallyConn struct {
	net.Conn
	n *atomic.Int64
}

func (c tallyConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// runCountedSession runs a fixed op sequence against a fresh server and
// returns how many bytes the server read from the client.
func runCountedSession(t *testing.T, tr *otrace.Tracer) int64 {
	t.Helper()
	var n atomic.Int64
	backend := store.NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewServer(backend)
	go func() { _ = srv.Serve(tallyListener{Listener: l, n: &n}) }()
	defer l.Close()

	cfg := DefaultClientConfig()
	cfg.Trace = tr
	c, err := DialWith(l.Addr().String(), cfg)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := c.CreateArray("a", 64); err != nil {
		t.Fatalf("CreateArray: %v", err)
	}
	for i := 0; i < 8; i++ {
		if err := c.WriteCells("a", []int64{int64(i)}, [][]byte{{byte(i)}}); err != nil {
			t.Fatalf("WriteCells: %v", err)
		}
		if _, err := c.ReadCells("a", []int64{int64(i)}); err != nil {
			t.Fatalf("ReadCells: %v", err)
		}
	}
	if _, err := c.ArrayLen("a"); err != nil {
		t.Fatalf("ArrayLen: %v", err)
	}
	// Every request byte has been read by the server once its response is
	// back, so the counter is stable here; Close sends nothing.
	c.Close()
	return n.Load()
}

// TestWireBytesTraceNeutral is the end-to-end half of the leakage argument:
// the server-side byte count of a whole session is identical with tracing
// off, fully sampled, and mixed sampled/unsampled.
func TestWireBytesTraceNeutral(t *testing.T) {
	off := runCountedSession(t, nil)
	on := runCountedSession(t, otrace.New(otrace.Config{Service: "c", SampleEvery: 1}))
	mixed := runCountedSession(t, otrace.New(otrace.Config{Service: "c", SampleEvery: 2}))
	if off != on || off != mixed {
		t.Fatalf("session bytes leak tracing state: off=%d sampled=%d mixed=%d", off, on, mixed)
	}
	if off == 0 {
		t.Fatal("counting listener saw no bytes")
	}
}

// TestTraceDumpMergesCausalTree drives traced RPCs through a traced server
// and checks the two halves join: the TraceDump RPC returns server spans
// whose trace IDs match the client's and whose parents are the client RPC
// spans that carried them in.
func TestTraceDumpMergesCausalTree(t *testing.T) {
	backend := store.NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewServer(backend)
	srv.SetTracer(otrace.New(otrace.Config{Service: "fdserver", SampleEvery: 1}))
	go func() { _ = srv.Serve(l) }()
	defer l.Close()

	client := otrace.New(otrace.Config{Service: "fddiscover", SampleEvery: 1})
	cfg := DefaultClientConfig()
	cfg.Trace = client
	c, err := DialWith(l.Addr().String(), cfg)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	// A current root models the lattice-level span: the RPC spans must
	// parent under it, and the server spans under the RPC spans.
	root := client.StartRoot("lattice/level-01")
	up := client.SetCurrent(root.Context())
	if err := c.CreateArray("a", 8); err != nil {
		t.Fatalf("CreateArray: %v", err)
	}
	if err := c.WriteCells("a", []int64{0}, [][]byte{{1}}); err != nil {
		t.Fatalf("WriteCells: %v", err)
	}
	client.SetCurrent(up)
	root.End()

	traceID := root.Context().Trace.String()
	clientRecs := client.Records()
	rpcSpans := map[string]string{} // span ID -> name
	for _, r := range clientRecs {
		if r.Trace != traceID {
			t.Fatalf("client span %q on unexpected trace %s", r.Name, r.Trace)
		}
		if strings.HasPrefix(r.Name, "rpc/") {
			if r.Parent != root.Context().Span.String() {
				t.Fatalf("%s parent = %q, want root span %q", r.Name, r.Parent, root.Context().Span)
			}
			rpcSpans[r.Span] = r.Name
		}
	}
	if len(rpcSpans) != 2 {
		t.Fatalf("client recorded %d rpc spans, want 2: %+v", len(rpcSpans), clientRecs)
	}

	serverRecs, err := c.TraceDump(traceID)
	if err != nil {
		t.Fatalf("TraceDump: %v", err)
	}
	serverSide := 0
	for _, r := range serverRecs {
		if r.Trace != traceID {
			t.Fatalf("TraceDump returned foreign trace %s (filter %s)", r.Trace, traceID)
		}
		if !strings.HasPrefix(r.Name, "server/") {
			continue
		}
		if r.Service != "fdserver" {
			t.Fatalf("server span service = %q", r.Service)
		}
		if _, ok := rpcSpans[r.Parent]; !ok {
			t.Fatalf("server span %q parent %q is not a client rpc span", r.Name, r.Parent)
		}
		serverSide++
	}
	if serverSide != 2 {
		t.Fatalf("server recorded %d dispatch spans for the trace, want 2: %+v", serverSide, serverRecs)
	}
}

// TestTraceDumpTokenGated: on a token-protected server the span dump is an
// authenticated operator surface, exactly like replication control.
func TestTraceDumpTokenGated(t *testing.T) {
	backend := store.NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewServer(backend)
	srv.SetTracer(otrace.New(otrace.Config{Service: "fdserver"}))
	srv.SetSessionLimits(store.SessionLimits{Token: "hunter2"})
	go func() { _ = srv.Serve(l) }()
	defer l.Close()

	bad := DefaultClientConfig()
	bad.Token = "wrong"
	cb, err := DialWith(l.Addr().String(), bad)
	if err == nil {
		defer cb.Close()
		if _, err := cb.TraceDump(""); err == nil {
			t.Fatal("TraceDump with a bad token succeeded")
		}
	}

	good := DefaultClientConfig()
	good.Token = "hunter2"
	cg, err := DialWith(l.Addr().String(), good)
	if err != nil {
		t.Fatalf("dial with token: %v", err)
	}
	defer cg.Close()
	if _, err := cg.TraceDump(""); err != nil {
		t.Fatalf("TraceDump with the right token: %v", err)
	}
}

// serveTraced exposes svc over loopback TCP with tr recording the server's
// spans, returning the address.
func serveTraced(t *testing.T, svc store.Service, tr *otrace.Tracer) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewServer(svc)
	srv.SetTracer(tr)
	if rep, ok := svc.(*store.ReplicatedServer); ok {
		srv.SetReplicator(rep)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { srv.Shutdown(0) })
	return l.Addr().String()
}

// TestConcurrentRequestsKeepTheirParents: two traced connections write to one
// durable server at once, and every wal/append span lands under the
// server/<op> span of the request that logged it — one per write, a Batch's
// writes under the Batch — never under the other connection's request. The
// request's span reaches the WAL on the op (store.Op.Parent), so this is the
// plumbing check.
func TestConcurrentRequestsKeepTheirParents(t *testing.T) {
	str := otrace.New(otrace.Config{Service: "fdserver", SampleEvery: 1})
	d, err := store.OpenDir(t.TempDir(), store.DurableOptions{Trace: str})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	addr := serveTraced(t, d, str)

	const writes = 40
	traces := make([]string, 2)
	var wg sync.WaitGroup
	for c := range traces {
		ctr := otrace.New(otrace.Config{Service: fmt.Sprintf("client-%d", c), SampleEvery: 1})
		cfg := DefaultClientConfig()
		cfg.Trace = ctr
		cl, err := DialWith(addr, cfg)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer cl.Close()
		root := ctr.StartRoot("discover")
		ctr.SetCurrent(root.Context())
		traces[c] = root.Context().Trace.String()
		name := fmt.Sprintf("a%d", c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cl.CreateArray(name, writes); err != nil {
				t.Errorf("CreateArray: %v", err)
				return
			}
			for i := range writes {
				if err := cl.WriteCells(name, []int64{int64(i)}, [][]byte{{byte(i)}}); err != nil {
					t.Errorf("WriteCells: %v", err)
					return
				}
			}
			if _, err := cl.Batch([]store.BatchOp{
				{Write: true, Name: name, Idx: []int64{0}, Cts: [][]byte{{1}}},
				{Write: true, Name: name, Idx: []int64{1}, Cts: [][]byte{{2}}},
			}); err != nil {
				t.Errorf("Batch: %v", err)
			}
		}()
	}
	wg.Wait()

	recs := str.Records()
	byID := map[string]otrace.Record{}
	for _, r := range recs {
		byID[r.Span] = r
	}
	appends := map[string]int{} // server span ID -> its wal/append children
	for _, r := range recs {
		if r.Name != "wal/append" {
			continue
		}
		p, ok := byID[r.Parent]
		if !ok || !strings.HasPrefix(p.Name, "server/") || p.Trace != r.Trace {
			t.Fatalf("wal/append parent %q is no server span of its trace (%+v)", r.Parent, p)
		}
		appends[r.Parent]++
	}
	perTrace := map[string]int{}
	for _, r := range recs {
		if !strings.HasPrefix(r.Name, "server/") {
			continue
		}
		want := 1
		if r.Name == "server/Batch" {
			want = 2
		}
		if appends[r.Span] != want {
			t.Errorf("%s span has %d wal/append children, want %d", r.Name, appends[r.Span], want)
		}
		perTrace[r.Trace] += appends[r.Span]
	}
	for c, id := range traces {
		if want := 1 + writes + 2; perTrace[id] != want {
			t.Errorf("client %d's requests logged %d wal/append spans, want %d", c, perTrace[id], want)
		}
	}
}

// heldConn is a replica connection whose Replicate, once held, waits until
// released: a shipment in progress for as long as a test needs one.
type heldConn struct {
	held             atomic.Bool
	entered, release chan struct{}
}

func (c *heldConn) Replicate(fence, seq int64, frames [][]byte) error {
	if c.held.Load() {
		c.entered <- struct{}{}
		<-c.release
	}
	return nil
}
func (c *heldConn) SyncSnapshot(fence, seq int64, snap []byte) error { return nil }
func (c *heldConn) FetchRepair(int64, string, []int64) ([][]byte, error) {
	return nil, store.ErrUnavailable
}
func (c *heldConn) Close() error { return nil }

// TestUntracedDispatchStaysRootDuringShipment: while a replicated primary
// ships a traced write, the shipment is its tracer's current span — yet a
// request arriving with the zero wire context gets a root server/<op> span,
// never the shipment as its parent.
func TestUntracedDispatchStaysRootDuringShipment(t *testing.T) {
	str := otrace.New(otrace.Config{Service: "fdserver", SampleEvery: 1})
	d, err := store.OpenDir(t.TempDir(), store.DurableOptions{Trace: str})
	if err != nil {
		t.Fatal(err)
	}
	conn := &heldConn{entered: make(chan struct{}), release: make(chan struct{})}
	rep, err := store.Replicated(d, store.ReplicationConfig{
		Primary: true,
		Peers:   []string{"held"},
		Trace:   str,
		Dial:    func(string) (store.ReplicaConn, error) { return conn, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	addr := serveTraced(t, rep, str)

	plain, err := DialWith(addr, DefaultClientConfig())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer plain.Close()
	if err := plain.CreateArray("a", 4); err != nil {
		t.Fatalf("CreateArray: %v", err)
	}
	ctr := otrace.New(otrace.Config{Service: "fddiscover", SampleEvery: 1})
	cfg := DefaultClientConfig()
	cfg.Trace = ctr
	traced, err := DialWith(addr, cfg)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer traced.Close()

	conn.held.Store(true)
	done := make(chan error, 1)
	go func() { done <- traced.WriteCells("a", []int64{0}, [][]byte{{1}}) }()
	<-conn.entered
	if _, err := plain.ArrayLen("a"); err != nil {
		t.Fatalf("ArrayLen during the shipment: %v", err)
	}
	str.Start("probe").End() // what the shipment's RPCs parent under
	close(conn.release)
	if err := <-done; err != nil {
		t.Fatalf("WriteCells: %v", err)
	}

	byName := map[string]otrace.Record{}
	byID := map[string]otrace.Record{}
	for _, r := range str.Records() {
		byName[r.Name], byID[r.Span] = r, r
	}
	if p := byID[byName["probe"].Parent]; p.Name != "repl/ship:held" {
		t.Fatalf("during the shipment the current span is %q, want repl/ship:held", p.Name)
	}
	if r, ok := byName["server/ArrayLen"]; !ok || r.Parent != "" {
		t.Fatalf("untraced server/ArrayLen span = %+v, ok = %v; want a root", r, ok)
	}
}
