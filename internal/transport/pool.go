package transport

import (
	"fmt"

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
// The pool keeps no recovery logic of its own: each pooled client re-dials
// itself on the call after its connection broke, so one dead connection
// never poisons the other workers.
type Pool struct {
	store.Adapter
	conns chan *Client
	all   []*Client

	// sharedReconnects is the config-wide redial counter all pooled clients
	// report into (nil when metrics are off).
	sharedReconnects *telemetry.Counter
}

// DialPool opens size connections to a transport server with the default
// configuration.
func DialPool(addr string, size int) (*Pool, error) {
	return DialPoolWith(addr, size, DefaultClientConfig())
}

// DialPoolWith opens size connections with an explicit configuration.
func DialPoolWith(addr string, size int, cfg ClientConfig) (*Pool, error) {
	if size < 1 {
		size = 1
	}
	p := &Pool{conns: make(chan *Client, size)}
	p.Adapter = store.Adapt(p.handle)
	if cfg.Metrics != nil {
		p.sharedReconnects = cfg.Metrics.Counter("oblivfd_client_reconnects_total")
	}
	for i := 0; i < size; i++ {
		c, err := DialWith(addr, cfg)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("transport: pool connection %d: %w", i, err)
		}
		p.all = append(p.all, c)
		p.conns <- c
	}
	return p, nil
}

// Size returns the number of pooled connections.
func (p *Pool) Size() int { return len(p.all) }

// Reconnects returns the pool-wide count of re-dials. With a Metrics
// registry the count is read once from the shared counter instead of summed
// per client — summing shared counters would multiply every redial by the
// pool size.
func (p *Pool) Reconnects() int64 {
	if p.sharedReconnects != nil {
		return p.sharedReconnects.Value()
	}
	var total int64
	for _, c := range p.all {
		total += c.Reconnects()
	}
	return total
}

// Close closes every pooled connection.
func (p *Pool) Close() error {
	var firstErr error
	for _, c := range p.all {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// with borrows a connection for one call.
func (p *Pool) with(fn func(c *Client) error) error {
	c := <-p.conns
	defer func() { p.conns <- c }()
	return fn(c)
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
