package transport

import (
	"fmt"
	"sync"

	"github.com/oblivfd/oblivfd/internal/otrace"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/telemetry"
)

// Pool is a store.Service backed by several TCP connections to the same
// server. Each call borrows one connection, so up to Size calls proceed in
// flight simultaneously — this is what lets the sorting protocol's parallel
// workers overlap network round trips (§IV-D's n/2 parallelism degree is
// only worth having if the transport admits concurrent requests; the
// paper's evaluation runs each thread on its own session).
//
// The pool self-heals: each pooled client re-dials on its own (see
// ClientConfig), and a client that comes back from a call with no live
// connection is replaced by a freshly dialed one, so one dead connection
// never poisons the other workers.
type Pool struct {
	store.Adapter
	addr string
	cfg  ClientConfig

	mu    sync.Mutex
	conns chan *Client
	all   map[*Client]struct{}

	// replacements is registry-backed when cfg.Metrics is set;
	// sharedReconnects is the config-wide redial counter all pooled
	// clients report into (nil when metrics are off).
	replacements     *telemetry.Counter
	sharedReconnects *telemetry.Counter
}

// DialPool opens size connections to a transport server with the default
// self-healing configuration.
func DialPool(addr string, size int) (*Pool, error) {
	return DialPoolWith(addr, size, DefaultClientConfig())
}

// DialPoolWith opens size connections with an explicit configuration.
func DialPoolWith(addr string, size int, cfg ClientConfig) (*Pool, error) {
	if size < 1 {
		size = 1
	}
	p := &Pool{
		addr:  addr,
		cfg:   cfg.withDefaults(),
		conns: make(chan *Client, size),
		all:   make(map[*Client]struct{}, size),
	}
	p.Adapter = store.Adapt(p.handle)
	if p.cfg.Metrics != nil {
		p.replacements = p.cfg.Metrics.Counter("oblivfd_pool_replacements_total")
		p.sharedReconnects = p.cfg.Metrics.Counter("oblivfd_client_reconnects_total")
	} else {
		p.replacements = telemetry.NewCounter()
	}
	for i := 0; i < size; i++ {
		c, err := DialWith(addr, p.cfg)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("transport: pool connection %d: %w", i, err)
		}
		p.all[c] = struct{}{}
		p.conns <- c
	}
	return p, nil
}

// Size returns the number of pooled connections.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.all)
}

// Reconnects returns the pool-wide reconnection count: re-dials performed
// by the pooled clients plus whole-connection replacements by the pool.
// With a Metrics registry the redial count is read once from the shared
// counter instead of summed per client — summing shared counters would
// multiply every redial by the pool size.
func (p *Pool) Reconnects() int64 {
	total := p.replacements.Value()
	if p.sharedReconnects != nil {
		return total + p.sharedReconnects.Value()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.all {
		total += c.Reconnects()
	}
	return total
}

// Close closes every pooled connection.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var firstErr error
	for c := range p.all {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// with borrows a connection for one call. A client returned broken (its
// call exhausted the re-dial budget) is swapped for a fresh connection when
// the server is reachable again; otherwise it stays in the pool and the
// next borrower re-attempts the dial.
func (p *Pool) with(fn func(c *Client) error) error {
	c := <-p.conns
	defer func() { p.conns <- p.maybeReplace(c) }()
	return fn(c)
}

func (p *Pool) maybeReplace(c *Client) *Client {
	if !c.Broken() {
		return c
	}
	fresh, err := DialWith(p.addr, p.cfg)
	if err != nil {
		return c // server still down; keep the slot, retry on next borrow
	}
	p.mu.Lock()
	delete(p.all, c)
	p.all[fresh] = struct{}{}
	p.mu.Unlock()
	if p.sharedReconnects != nil {
		// The dead client's redials already persist in the shared counter;
		// folding them into replacements too would double-count.
		p.replacements.Inc()
	} else {
		p.replacements.Add(1 + c.Reconnects()) // keep the dead client's count
	}
	_ = c.Close()
	return fresh
}

// handle sends one operation over one borrowed connection — a whole batch
// as a single framed request, so it costs one round trip while other workers'
// calls proceed on the remaining connections — and adds the pool-wide
// reconnection count to a Stats report.
func (p *Pool) handle(op *store.Op, res *store.Result) error {
	if err := p.with(func(c *Client) error { return c.roundTrip(op, res) }); err != nil {
		return err
	}
	if op.Kind == store.KindStats {
		res.Stats.Reconnects += p.Reconnects()
	}
	return nil
}

// TraceDump fetches the server's buffered span records over one borrowed
// connection (see Client.TraceDump).
func (p *Pool) TraceDump(traceFilter string) (recs []otrace.Record, err error) {
	err = p.with(func(c *Client) error { recs, err = c.TraceDump(traceFilter); return err })
	return recs, err
}
