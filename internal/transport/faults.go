package transport

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
)

// ErrInjectedDrop is the error a faulty connection reports when the chaos
// schedule severs it mid-call.
var ErrInjectedDrop = errors.New("transport: injected connection drop")

// FaultConfig parameterizes WithConnFaults.
type FaultConfig struct {
	// Seed fixes the drop schedule: the nth frame across the listener's
	// connections gets the same verdict on every run.
	Seed int64
	// DropRate is the probability that one frame — a request arriving on
	// an accepted connection, or the response leaving it — severs the
	// connection instead: the request or the response is lost mid-flight,
	// exactly the failure a flaky network produces.
	DropRate float64
}

// FaultyListener wraps a net.Listener so accepted connections drop on a
// deterministic, seeded schedule. Pair it with store.WithRetry over a
// re-dialing client in chaos tests: the server side keeps killing
// connections, the client side must keep recovering.
type FaultyListener struct {
	net.Listener
	cfg FaultConfig

	mu  sync.Mutex
	rng *rand.Rand

	drops atomic.Int64
}

// WithConnFaults wraps l with seeded mid-call connection drops.
func WithConnFaults(l net.Listener, cfg FaultConfig) *FaultyListener {
	return &FaultyListener{Listener: l, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Drops returns the number of connections severed so far.
func (l *FaultyListener) Drops() int64 { return l.drops.Load() }

// Accept wraps the accepted connection with the drop schedule. All
// connections share one schedule, so the drop sequence is a pure function
// of the seed and the global frame order.
func (l *FaultyListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &faultyConn{Conn: conn, l: l}, nil
}

// roll draws one verdict from the shared schedule.
func (l *FaultyListener) roll() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rng.Float64() < l.cfg.DropRate
}

// faultyConn draws one verdict per frame, not per Read or Write: how many
// Reads a request takes depends on how TCP happened to segment it, so a
// per-call draw would make the schedule depend on timing. On a
// request/response connection a frame starts where the direction turns —
// the first Read after a Write (or after Accept) and the first Write after
// a Read — and the calls that move the rest of it ride on that verdict.
type faultyConn struct {
	net.Conn
	l       *FaultyListener
	dropped atomic.Bool
	dir     atomic.Int32 // direction of the last call: 0 none yet, dirRead, dirWrite
}

const (
	dirRead  = 1
	dirWrite = 2
)

// turn records a call in direction dir and reports whether it starts a
// frame that the schedule condemns.
func (c *faultyConn) turn(dir int32) bool {
	return c.dir.Swap(dir) != dir && c.l.roll()
}

func (c *faultyConn) sever() error {
	if c.dropped.CompareAndSwap(false, true) {
		c.l.drops.Add(1)
		_ = c.Conn.Close()
	}
	return ErrInjectedDrop
}

func (c *faultyConn) Read(p []byte) (int, error) {
	if c.dropped.Load() {
		return 0, ErrInjectedDrop
	}
	if c.turn(dirRead) {
		return 0, c.sever()
	}
	return c.Conn.Read(p)
}

func (c *faultyConn) Write(p []byte) (int, error) {
	if c.dropped.Load() {
		return 0, ErrInjectedDrop
	}
	if c.turn(dirWrite) {
		return 0, c.sever()
	}
	return c.Conn.Write(p)
}
