package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/oblivfd/oblivfd/internal/store"
)

// fastConfig keeps deadlines short for tests.
func fastConfig() ClientConfig {
	return ClientConfig{CallTimeout: 2 * time.Second, DialTimeout: time.Second}
}

// retried layers the one re-sending layer over svc with test-sized backoff.
func retried(svc store.Service) *store.RetryService {
	return store.WithRetry(svc, store.RetryPolicy{MaxAttempts: 8, InitialBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond})
}

// TestSentinelErrorsSurviveTheWire: errors.Is must hold for every store
// sentinel after a round trip through the TCP transport.
func TestSentinelErrorsSurviveTheWire(t *testing.T) {
	c, _ := startServer(t)
	if _, err := c.ReadCells("missing", []int64{0}); !errors.Is(err, store.ErrUnknownObject) {
		t.Errorf("missing object: err = %v, want errors.Is(ErrUnknownObject)", err)
	}
	if err := c.CreateArray("a", 2); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateArray("a", 2); !errors.Is(err, store.ErrObjectExists) {
		t.Errorf("duplicate create: err = %v, want errors.Is(ErrObjectExists)", err)
	}
	if _, err := c.ReadCells("a", []int64{99}); !errors.Is(err, store.ErrOutOfRange) {
		t.Errorf("out of range: err = %v, want errors.Is(ErrOutOfRange)", err)
	}
	if err := c.CreateTree("q", 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.WritePath("q", 0, make([][]byte, 1)); !errors.Is(err, store.ErrBadPath) {
		t.Errorf("short path: err = %v, want errors.Is(ErrBadPath)", err)
	}
	// The message must survive verbatim alongside the sentinel.
	_, err := c.ReadCells("missing", []int64{0})
	if err == nil || err.Error() != `store: unknown object: "missing"` { // a cell op takes an array or a tree, so it names neither
		t.Errorf("message not preserved: %q", err)
	}
}

// TestWireErrorTable: every sentinel round-trips encode→decode with its
// message verbatim and errors.Is intact. The corruption sentinels must
// additionally classify as ErrIntegrity after decoding, and the encoder must
// pick the specific code (not the bare integrity code) for them — that is
// what the most-specific-first ordering of sentinelCodes guarantees.
func TestWireErrorTable(t *testing.T) {
	cases := []struct {
		name     string
		err      error
		code     errCode
		sentinel error
		alsoIs   []error
	}{
		{"unknown-object", fmt.Errorf("op: %w", store.ErrUnknownObject), codeUnknownObject, store.ErrUnknownObject, nil},
		{"object-exists", fmt.Errorf("op: %w", store.ErrObjectExists), codeObjectExists, store.ErrObjectExists, nil},
		{"out-of-range", fmt.Errorf("op: %w", store.ErrOutOfRange), codeOutOfRange, store.ErrOutOfRange, nil},
		{"bad-path", fmt.Errorf("op: %w", store.ErrBadPath), codeBadPath, store.ErrBadPath, nil},
		{"transient", fmt.Errorf("op: %w", store.ErrTransient), codeTransient, store.ErrTransient, nil},
		{"corrupt-snapshot", fmt.Errorf("op: %w", store.ErrCorruptSnapshot), codeCorruptSnapshot,
			store.ErrCorruptSnapshot, []error{store.ErrIntegrity}},
		{"corrupt-wal", fmt.Errorf("op: %w", store.ErrCorruptWAL), codeCorruptWAL,
			store.ErrCorruptWAL, []error{store.ErrIntegrity}},
		{"server-killed", fmt.Errorf("op: %w", store.ErrServerKilled), codeServerKilled, store.ErrServerKilled, nil},
		{"no-such-epoch", fmt.Errorf("op: %w", store.ErrNoSuchEpoch), codeNoSuchEpoch, store.ErrNoSuchEpoch, nil},
		{"integrity", fmt.Errorf("op: %w", store.ErrIntegrity), codeIntegrity, store.ErrIntegrity, nil},
		{"generic", errors.New("op: something else"), codeGeneric, nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg, code := encodeErr(tc.err)
			if code != tc.code {
				t.Errorf("encodeErr code = %d, want %d", code, tc.code)
			}
			got := decodeErr(code, msg)
			if got == nil || got.Error() != tc.err.Error() {
				t.Errorf("message not preserved: got %v, want %q", got, tc.err.Error())
			}
			if tc.sentinel != nil && !errors.Is(got, tc.sentinel) {
				t.Errorf("decoded error does not match its sentinel %v", tc.sentinel)
			}
			for _, e := range tc.alsoIs {
				if !errors.Is(got, e) {
					t.Errorf("decoded error should also match %v", e)
				}
			}
		})
	}
	if msg, code := encodeErr(nil); code != codeOK || msg != "" {
		t.Errorf("encodeErr(nil) = (%q, %d), want empty codeOK", msg, code)
	}
	if err := decodeErr(codeOK, ""); err != nil {
		t.Errorf("decodeErr(codeOK) = %v, want nil", err)
	}
}

// integrityStub is a backend whose reads always fail verification, standing
// in for a durable server that detected corruption during recovery.
type integrityStub struct{ store.Service }

func (s integrityStub) ReadCells(name string, idx []int64) ([][]byte, error) {
	return nil, fmt.Errorf("stub: array %q failed verification: %w", name, store.ErrIntegrity)
}

// TestIntegrityErrorSurvivesTheWire: ErrIntegrity classifies correctly on
// the client through TCP and is fatal — the retry layer must never retry a
// verification failure, because the data will be just as corrupt next time.
func TestIntegrityErrorSurvivesTheWire(t *testing.T) {
	backend := integrityStub{store.NewServer()}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = Serve(l, backend) }()
	t.Cleanup(func() { l.Close() })
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateArray("a", 1); err != nil {
		t.Fatal(err)
	}
	_, err = c.ReadCells("a", []int64{0})
	if !errors.Is(err, store.ErrIntegrity) {
		t.Errorf("err = %v, want errors.Is(ErrIntegrity) through TCP", err)
	}
	if store.DefaultRetryable(err) {
		t.Errorf("integrity error classified retryable; corruption must be fatal")
	}
}

// TestTransientErrorsSurviveTheWire: a server-side fault injector's
// ErrTransient classifies correctly on the client, which is what lets a
// client-side retry layer tell transient from fatal through TCP.
func TestTransientErrorsSurviveTheWire(t *testing.T) {
	backend := store.WithFaults(store.NewServer(), store.FaultConfig{Seed: 1, ErrorRate: 1})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = Serve(l, backend) }()
	t.Cleanup(func() { l.Close() })
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateArray("a", 1); !errors.Is(err, store.ErrTransient) {
		t.Errorf("err = %v, want errors.Is(ErrTransient) through TCP", err)
	}
}

// TestDialNonListeningAddr: dialing a dead address surfaces a typed,
// retryable error.
func TestDialNonListeningAddr(t *testing.T) {
	_, err := DialWith("127.0.0.1:1", fastConfig())
	if !errors.Is(err, store.ErrUnavailable) {
		t.Errorf("err = %v, want errors.Is(ErrUnavailable)", err)
	}
	if !store.DefaultRetryable(err) {
		t.Errorf("dial failure should classify as retryable: %v", err)
	}
}

// TestClientHealsAcrossServerRestart: the server dies mid-session and comes
// back on the same address; the call that finds the connection dead fails,
// the retry layer sends it again, and the client re-dials for it.
func TestClientHealsAcrossServerRestart(t *testing.T) {
	backend := store.NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	srv := NewServer(backend)
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(l) }()

	c, err := DialWith(addr, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateArray("a", 4); err != nil {
		t.Fatal(err)
	}

	srv.Shutdown(0) // kill the server, connections included
	<-done

	// Restart on the same address (may need a few tries on a busy host).
	var l2 net.Listener
	for i := 0; i < 50; i++ {
		l2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer l2.Close()
	go func() { _ = Serve(l2, backend) }()

	svc := retried(c)
	if err := svc.WriteCells("a", []int64{1}, [][]byte{{9}}); err != nil {
		t.Fatalf("call after server restart: %v", err)
	}
	got, err := svc.ReadCells("a", []int64{1})
	if err != nil || len(got) != 1 || got[0][0] != 9 {
		t.Fatalf("read after heal = %v, %v", got, err)
	}
	if c.Reconnects() == 0 {
		t.Error("client healed without counting a reconnect")
	}
	st, err := svc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Reconnects == 0 {
		t.Error("Stats.Reconnects not surfaced")
	}
}

// TestClientFailsWhenServerStaysDown: with the server gone for good, a call
// is sent once on the dead connection and fails with the retryable
// ErrUnavailable; the next call dials again, once, and fails the same way.
func TestClientFailsWhenServerStaysDown(t *testing.T) {
	backend := store.NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(backend)
	go func() { _ = srv.Serve(l) }()
	c, err := DialWith(l.Addr().String(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateArray("a", 1); err != nil {
		t.Fatal(err)
	}
	srv.Shutdown(0)
	err = c.Reveal("x", 1)
	if !errors.Is(err, store.ErrUnavailable) || errors.Is(err, errDialFailed) {
		t.Errorf("call on the dead connection: err = %v, want ErrUnavailable from the lost connection", err)
	}
	err = c.Reveal("x", 1)
	if !errors.Is(err, errDialFailed) || !store.DefaultRetryable(err) {
		t.Errorf("next call: err = %v, want a retryable failed re-dial", err)
	}
}

// TestPoolReplacesDeadConnections: every pooled connection dies with the
// old server; against a new server on the same address each slot fails its
// first call, the retry layer sends it again, and the slot's client re-dials
// on a later borrow — the pool replaces nothing and keeps its size.
func TestPoolReplacesDeadConnections(t *testing.T) {
	backend := store.NewServer()
	if err := backend.CreateArray("a", 64); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	srv := NewServer(backend)
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(l) }()

	p, err := DialPoolWith(addr, 3, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.WriteCells("a", []int64{0}, [][]byte{{1}}); err != nil {
		t.Fatal(err)
	}

	srv.Shutdown(0)
	<-done
	var l2 net.Listener
	for i := 0; i < 50; i++ {
		l2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer l2.Close()
	go func() { _ = Serve(l2, backend) }()

	// Exercise every slot: all three dead connections must recover.
	svc := retried(p)
	for i := 0; i < 9; i++ {
		if err := svc.WriteCells("a", []int64{int64(i)}, [][]byte{{byte(i)}}); err != nil {
			t.Fatalf("pooled write %d after restart: %v", i, err)
		}
	}
	if n := p.Reconnects(); n != 3 {
		t.Errorf("pool Reconnects() = %d, want 3 (one re-dial per slot)", n)
	}
	st, err := svc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Reconnects != 3 || st.Retries != 3 {
		t.Errorf("Stats = %d reconnects, %d retries; want 3 and 3", st.Reconnects, st.Retries)
	}
	if p.Size() != 3 {
		t.Errorf("pool size changed to %d", p.Size())
	}
}

// TestCloseDoesNotWaitOutAFailingCall: a call in flight against a killed
// server fails on its own, with no backoff slept under the client's lock, so
// Close — like every goroutine sharing the client — is not held up behind it.
func TestCloseDoesNotWaitOutAFailingCall(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store.NewServer())
	go func() { _ = srv.Serve(l) }()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateArray("a", 1); err != nil {
		t.Fatal(err)
	}
	srv.Shutdown(0)

	callErr := make(chan error, 1)
	go func() { callErr <- c.Reveal("x", 1) }()
	time.Sleep(20 * time.Millisecond) // let the call find the dead connection
	start := time.Now()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Errorf("Close took %v behind a failing call, want < 200ms", d)
	}
	if err := <-callErr; !errors.Is(err, store.ErrUnavailable) && !errors.Is(err, ErrClosed) {
		t.Errorf("call against the killed server = %v, want ErrUnavailable", err)
	}
}

// severFirstResponse closes its first accepted connection instead of
// writing the first response on it: the request was applied, and only its
// acknowledgement is lost.
type severFirstResponse struct {
	net.Listener
	once sync.Once
}

func (l *severFirstResponse) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	first := false
	l.once.Do(func() { first = true })
	if first {
		return severOnWrite{conn}, nil
	}
	return conn, nil
}

type severOnWrite struct{ net.Conn }

func (c severOnWrite) Write([]byte) (int, error) {
	_ = c.Conn.Close()
	return 0, net.ErrClosed
}

// TestLostAckResentOnceByRetry: exactly one layer sends a call again. A
// CreateArray whose acknowledgement is lost fails at the pool with
// ErrUnavailable; the retry layer sends it once more over a re-dialed
// connection, and reconciles the server's "already exists" to success.
func TestLostAckResentOnceByRetry(t *testing.T) {
	srv := store.NewServer()
	var (
		mu      sync.Mutex
		creates []error
	)
	backend := store.Adapt(func(op *store.Op, res *store.Result) error {
		err := store.Invoke(srv, op, res)
		if op.Kind == store.KindCreateArray {
			mu.Lock()
			creates = append(creates, err)
			mu.Unlock()
		}
		return err
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = Serve(&severFirstResponse{Listener: l}, backend) }()
	t.Cleanup(func() { l.Close() })
	p, err := DialPoolWith(l.Addr().String(), 1, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	svc := retried(p)

	if err := svc.CreateArray("a", 4); err != nil {
		t.Fatalf("create with a lost acknowledgement = %v, want reconciled success", err)
	}
	mu.Lock()
	got := creates
	mu.Unlock()
	if len(got) != 2 || got[0] != nil || !errors.Is(got[1], store.ErrObjectExists) {
		t.Fatalf("backend saw creates %v, want [<nil> ErrObjectExists]", got)
	}
	st, err := svc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Retries != 1 || st.Reconnects != 1 {
		t.Errorf("Stats = %d retries, %d reconnects; want 1 and 1", st.Retries, st.Reconnects)
	}
}

// TestServerGracefulShutdownDrains: a request in flight when Shutdown
// begins still gets its response; idle connections are closed.
func TestServerGracefulShutdownDrains(t *testing.T) {
	backend := store.NewServer()
	if err := backend.CreateArray("a", 4); err != nil {
		t.Fatal(err)
	}
	slow := store.WithLatency(backend, 50*time.Millisecond)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(slow)
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(l) }()

	c, err := DialWith(l.Addr().String(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Reveal("warm", 1); err != nil {
		t.Fatal(err) // establish the connection server-side
	}
	if srv.ActiveConns() != 1 {
		t.Errorf("ActiveConns = %d, want 1", srv.ActiveConns())
	}

	callErr := make(chan error, 1)
	go func() { callErr <- c.WriteCells("a", []int64{0}, [][]byte{{7}}) }()
	time.Sleep(10 * time.Millisecond) // let the call reach the 50ms-slow server
	active := srv.Shutdown(time.Second)
	if active != 1 {
		t.Errorf("Shutdown reported %d active conns, want 1", active)
	}
	if err := <-callErr; err != nil {
		t.Errorf("in-flight call during graceful shutdown: %v", err)
	}
	got, err := backend.ReadCells("a", []int64{0})
	if err != nil || got[0][0] != 7 {
		t.Errorf("drained write not applied: %v, %v", got, err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Error("Serve did not return after Shutdown")
	}
	if srv.ActiveConns() != 0 {
		t.Errorf("ActiveConns after shutdown = %d", srv.ActiveConns())
	}
}

// TestServerShutdownZeroGrace: an abrupt shutdown still returns and closes
// everything.
func TestServerShutdownZeroGrace(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store.NewServer())
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(l) }()
	c, err := DialWith(l.Addr().String(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateArray("a", 1); err != nil {
		t.Fatal(err)
	}
	srv.Shutdown(0)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Error("Serve did not return after zero-grace Shutdown")
	}
}
