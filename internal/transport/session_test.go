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

// startSessionServer runs a multi-tenant transport server with the given
// admission limits and returns it with its backend and address.
func startSessionServer(t *testing.T, limits store.SessionLimits) (*Server, *store.Server, string) {
	t.Helper()
	backend := store.NewServer()
	srv := NewServer(backend)
	srv.SetSessionLimits(limits)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { l.Close() })
	return srv, backend, l.Addr().String()
}

// sessionClientConfig returns short-deadline client settings bound to a
// tenant.
func sessionClientConfig(db, token string) ClientConfig {
	cfg := DefaultClientConfig()
	cfg.CallTimeout = 5 * time.Second
	cfg.DialTimeout = 2 * time.Second
	cfg.Database = db
	cfg.Token = token
	return cfg
}

// TestSessionHandshakeNamespacesKeys: two handshaked tenants with identical
// object names land in disjoint backend namespaces; a sessionless client
// stays in the root namespace.
func TestSessionHandshakeNamespacesKeys(t *testing.T) {
	_, backend, addr := startSessionServer(t, store.SessionLimits{})

	alpha, err := DialWith(addr, sessionClientConfig("alpha", ""))
	if err != nil {
		t.Fatal(err)
	}
	defer alpha.Close()
	beta, err := DialWith(addr, sessionClientConfig("beta", ""))
	if err != nil {
		t.Fatal(err)
	}
	defer beta.Close()
	root, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()

	if err := alpha.CreateArray("arr", 3); err != nil {
		t.Fatal(err)
	}
	if err := beta.CreateArray("arr", 5); err != nil {
		t.Fatalf("same name in second tenant: %v", err)
	}
	if err := root.CreateArray("arr", 7); err != nil {
		t.Fatalf("same name in root namespace: %v", err)
	}
	if n, err := alpha.ArrayLen("arr"); err != nil || n != 3 {
		t.Errorf("alpha ArrayLen = %d, %v; want 3", n, err)
	}
	if n, err := beta.ArrayLen("arr"); err != nil || n != 5 {
		t.Errorf("beta ArrayLen = %d, %v; want 5", n, err)
	}
	if n, err := backend.ArrayLen("arr"); err != nil || n != 7 {
		t.Errorf("root ArrayLen = %d, %v; want 7", n, err)
	}
	if n, err := backend.ArrayLen("alpha/arr"); err != nil || n != 3 {
		t.Errorf("backend alpha/arr = %d, %v; want 3 (prefix not applied)", n, err)
	}

	// Per-tenant Stats sees only the tenant's own objects and marks.
	if err := alpha.Checkpoint(9); err != nil {
		t.Fatal(err)
	}
	st, err := alpha.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Objects != 1 || st.Epoch != 9 {
		t.Errorf("alpha Stats = %d objects epoch %d, want 1/9", st.Objects, st.Epoch)
	}
	if st, err := beta.Stats(); err != nil || st.Epoch != 0 {
		t.Errorf("beta Stats epoch = %d, %v; want 0 (alpha's checkpoint leaked)", st.Epoch, err)
	}
}

// TestSessionTokenRequired: with a token configured, bad handshakes and
// sessionless requests are refused with the fatal ErrUnauthorized — and the
// typed error survives the wire.
func TestSessionTokenRequired(t *testing.T) {
	_, _, addr := startSessionServer(t, store.SessionLimits{Token: "s3cret"})

	if _, err := DialWith(addr, sessionClientConfig("alpha", "wrong")); !errors.Is(err, store.ErrUnauthorized) {
		t.Fatalf("bad token dial: err = %v, want ErrUnauthorized", err)
	}

	// A sessionless client connects (no handshake to refuse) but every
	// request is rejected.
	root, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	if err := root.CreateArray("arr", 1); !errors.Is(err, store.ErrUnauthorized) {
		t.Fatalf("sessionless request: err = %v, want ErrUnauthorized", err)
	}

	good, err := DialWith(addr, sessionClientConfig("alpha", "s3cret"))
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if err := good.CreateArray("arr", 1); err != nil {
		t.Fatalf("authenticated request: %v", err)
	}
}

// TestSessionCapacityShedsHandshake: at MaxSessions the next handshake is
// refused with the retryable ErrOverloaded, and a freed slot admits it.
func TestSessionCapacityShedsHandshake(t *testing.T) {
	srv, _, addr := startSessionServer(t, store.SessionLimits{MaxSessions: 1})

	first, err := DialWith(addr, sessionClientConfig("alpha", ""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DialWith(addr, sessionClientConfig("beta", "")); !errors.Is(err, store.ErrOverloaded) {
		t.Fatalf("over capacity: err = %v, want ErrOverloaded", err)
	}
	first.Close()
	// The session slot frees when the server notices the closed conn.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Sessions().Active() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	second, err := DialWith(addr, sessionClientConfig("beta", ""))
	if err != nil {
		t.Fatalf("after slot freed: %v", err)
	}
	second.Close()
	if got := srv.Sessions().Rejected(); got == 0 {
		t.Error("Rejected() = 0, want at least 1")
	}
}

// TestSessionRateLimitSheds: a rate-limited session gets ErrOverloaded on
// the wire once its burst is spent, and store.WithRetry rides through the
// shedding to finish the work.
func TestSessionRateLimitSheds(t *testing.T) {
	srv, _, addr := startSessionServer(t, store.SessionLimits{RatePerSec: 2})

	c, err := DialWith(addr, sessionClientConfig("alpha", ""))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateArray("arr", 4); err != nil {
		t.Fatalf("first request within burst: %v", err)
	}
	if _, err := c.ArrayLen("arr"); err != nil {
		t.Fatalf("second request within burst: %v", err)
	}
	// Burst spent; at 2 req/s the next immediate request must be shed.
	if _, err := c.ArrayLen("arr"); !errors.Is(err, store.ErrOverloaded) {
		t.Fatalf("over rate: err = %v, want ErrOverloaded", err)
	}
	if got := srv.Sessions().Shed(); got == 0 {
		t.Error("Shed() = 0 after a shed request")
	}
	// The retry stack classifies the shed as retryable and succeeds once a
	// token refills.
	retried := store.WithRetry(c, store.RetryPolicy{
		MaxAttempts:    20,
		InitialBackoff: 50 * time.Millisecond,
		MaxBackoff:     500 * time.Millisecond,
	})
	if _, err := retried.ArrayLen("arr"); err != nil {
		t.Fatalf("retry through shedding: %v", err)
	}
	st, err := retried.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Retries == 0 {
		t.Error("Stats.Retries = 0; the shed path was never exercised by the retry stack")
	}
}

// TestSessionDrainRefusesNewcomers: a draining server keeps serving its
// admitted session but refuses new handshakes with the retryable error.
func TestSessionDrainRefusesNewcomers(t *testing.T) {
	srv, _, addr := startSessionServer(t, store.SessionLimits{})

	c, err := DialWith(addr, sessionClientConfig("alpha", ""))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateArray("arr", 1); err != nil {
		t.Fatal(err)
	}

	srv.Sessions().Drain()
	if _, err := DialWith(addr, sessionClientConfig("beta", "")); !errors.Is(err, store.ErrOverloaded) {
		t.Fatalf("handshake during drain: err = %v, want ErrOverloaded", err)
	}
	// The admitted tenant finishes its work.
	if n, err := c.ArrayLen("arr"); err != nil || n != 1 {
		t.Errorf("admitted session during drain: %d, %v", n, err)
	}
}

// TestSessionEvictionRehandshake: an idle-evicted session's connection is
// closed server-side; the call that finds it closed fails, the retry layer
// sends it again, and the client re-dials and re-handshakes for it, so the
// caller continues in the same namespace without noticing.
func TestSessionEvictionRehandshake(t *testing.T) {
	srv, backend, addr := startSessionServer(t, store.SessionLimits{IdleTimeout: 10 * time.Millisecond})

	c, err := DialWith(addr, sessionClientConfig("alpha", ""))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateArray("arr", 2); err != nil {
		t.Fatal(err)
	}

	// Let the session go idle past the timeout, then evict it (the server's
	// periodic sweeper would do the same; calling it directly keeps the test
	// deterministic).
	deadline := time.Now().Add(5 * time.Second)
	for srv.Sessions().Evicted() == 0 && time.Now().Before(deadline) {
		time.Sleep(15 * time.Millisecond)
		srv.Sessions().SweepIdle()
	}
	if srv.Sessions().Evicted() == 0 {
		t.Fatal("session never evicted")
	}

	// The next call rides the retry + redial + re-handshake path.
	if n, err := retried(c).ArrayLen("arr"); err != nil || n != 2 {
		t.Fatalf("call after eviction = %d, %v; want 2", n, err)
	}
	if n, err := backend.ArrayLen("alpha/arr"); err != nil || n != 2 {
		t.Errorf("namespace lost across re-handshake: %d, %v", n, err)
	}
	if c.Reconnects() == 0 {
		t.Error("Reconnects() = 0; the eviction never forced a redial")
	}
}

// killFirstListener closes the first n accepted connections immediately,
// modeling a drop that lands between connect and hello.
type killFirstListener struct {
	net.Listener
	mu sync.Mutex
	n  int
}

func (l *killFirstListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	kill := l.n > 0
	if kill {
		l.n--
	}
	l.mu.Unlock()
	if kill {
		conn.Close()
	}
	return conn, err
}

// TestSessionDialHandshakeRidesOutDrops: a connection severed during the
// session handshake leaves the client unconnected instead of failing
// DialWith or DialPoolWith, and the first call re-dials; a server verdict on
// the handshake still fails the dial at once.
func TestSessionDialHandshakeRidesOutDrops(t *testing.T) {
	backend := store.NewServer()
	srv := NewServer(backend)
	srv.SetSessionLimits(store.SessionLimits{Token: "secret"})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	l := &killFirstListener{Listener: inner, n: 2}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { inner.Close() })
	addr := inner.Addr().String()

	c, err := DialWith(addr, sessionClientConfig("alpha", "secret"))
	if err != nil {
		t.Fatalf("dial through a dropped handshake: %v", err)
	}
	defer c.Close()
	// The first call's re-dial is dropped too; the retry layer's second
	// attempt re-dials again and lands.
	if err := retried(c).CreateArray("arr", 2); err != nil {
		t.Fatalf("CreateArray after dropped handshakes: %v", err)
	}
	if _, err := backend.ArrayLen("alpha/arr"); err != nil {
		t.Errorf("namespace lost: %v", err)
	}
	if c.Reconnects() < 2 {
		t.Errorf("Reconnects() = %d, want >= 2 (both kills should be redialed)", c.Reconnects())
	}

	l.mu.Lock()
	l.n = 1
	l.mu.Unlock()
	p, err := DialPoolWith(addr, 2, sessionClientConfig("alpha", "secret"))
	if err != nil {
		t.Fatalf("pool dial through a dropped handshake: %v", err)
	}
	defer p.Close()
	for i := 0; i < 2; i++ {
		if n, err := retried(p).ArrayLen("arr"); err != nil || n != 2 {
			t.Fatalf("pooled call %d = %d, %v; want 2", i, n, err)
		}
	}

	// A server verdict is not a drop: it fails the dial at once.
	if _, err := DialWith(addr, sessionClientConfig("alpha", "wrong")); !errors.Is(err, store.ErrUnauthorized) {
		t.Fatalf("bad token dial = %v, want ErrUnauthorized", err)
	}
	for _, verdict := range []error{store.ErrUnauthorized, store.ErrOverloaded, store.ErrFenced, store.ErrNotPrimary} {
		vaddr := verdictServer(t, verdict)
		if _, err := DialWith(vaddr, sessionClientConfig("alpha", "secret")); !errors.Is(err, verdict) {
			t.Errorf("DialWith against a %v handshake = %v", verdict, err)
		}
		if _, err := DialPoolWith(vaddr, 2, sessionClientConfig("alpha", "secret")); !errors.Is(err, verdict) {
			t.Errorf("DialPoolWith against a %v handshake = %v", verdict, err)
		}
	}
}

// verdictServer answers the first frame of every connection — the session
// handshake — with verdict, and returns its address.
func verdictServer(t *testing.T, verdict error) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				fc := newFrameConn(conn)
				if _, err := fc.next(); err != nil {
					return
				}
				var resp response
				resp.Err, resp.Code = encodeErr(fmt.Errorf("handshake refused: %w", verdict))
				_ = fc.flush(appendResponse(fc.begin(), &resp))
			}()
		}
	}()
	return l.Addr().String()
}
