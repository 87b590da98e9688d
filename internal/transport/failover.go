package transport

import (
	"errors"
	"fmt"
	"sync"

	"github.com/oblivfd/oblivfd/internal/otrace"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/telemetry"
)

// FailoverPool is a store.Service over a *list* of servers. At any moment it
// drives one of them — the primary — through an ordinary connection Pool;
// when that server is lost (see handle), the pool re-probes the list, finds
// (or creates, by promoting the freshest replica) a new primary, and fails
// the call with the retryable store.ErrUnavailable. It sends each call once;
// layered under store.WithRetry, which sends it again on the new primary,
// an entire server loss looks like one more transient fault.
//
// Failover procedure:
//
//  1. Probe every address with a sessionless Stats call.
//  2. If a reachable server reports Primary at the highest fence seen,
//     use it.
//  3. Otherwise promote: pick the reachable replica at the newest fence,
//     breaking ties by watermark (the most records applied in that reign —
//     the smallest data loss), and hand it a fence strictly above every
//     fence seen or ever used.
//  4. Reconnect the data pool with that fence in its handshake, so a stale
//     ex-primary that answers the dial is fenced instead of obeyed.
//
// Promotion safety: the fence handed out is above anything the old primary
// held, so the moment the new primary accepts it, the old one is refused by
// every replica (ErrFenced on its next shipment) and by every fence-aware
// client. Two concurrent failover clients racing a promotion cannot fork
// history either — the loser's Promote arrives at-or-below the winner's
// fence and is refused, and it re-probes into the winner's cluster view.
//
// Cross-server resend safety is store.WithRetry's argument: every write
// carries its exact ciphertexts (idempotent), and a create or delete whose
// acknowledgement was lost to the failover is reconciled from the new
// primary's verdict — the replica applied the primary's WAL record before
// the crash, or the op never happened anywhere.
type FailoverPool struct {
	store.Adapter
	addrs []string
	size  int
	cfg   ClientConfig

	mu     sync.Mutex
	pool   *Pool
	cur    string // address the pool currently points at
	fence  int64  // highest fencing epoch seen or issued
	closed bool

	failovers *telemetry.Counter
}

// DialFailover opens a failover pool of size connections against the first
// usable server in addrs (the primary, when the cluster has one).
func DialFailover(addrs []string, size int, cfg ClientConfig) (*FailoverPool, error) {
	if len(addrs) == 0 {
		return nil, errors.New("transport: no server addresses")
	}
	f := &FailoverPool{addrs: addrs, size: size, cfg: cfg.withDefaults()}
	f.Adapter = store.Adapt(f.handle)
	if f.cfg.Metrics != nil {
		f.failovers = f.cfg.Metrics.Counter("oblivfd_failovers_total")
	} else {
		f.failovers = telemetry.NewCounter()
	}
	f.mu.Lock()
	err := f.connectLocked(otrace.SpanContext{}, "")
	f.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Failovers returns how many times the pool switched servers.
func (f *FailoverPool) Failovers() int64 { return f.failovers.Value() }

// Primary returns the address currently served and the fence in use.
func (f *FailoverPool) Primary() (addr string, fence int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cur, f.fence
}

// Close closes the underlying pool.
func (f *FailoverPool) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	if f.pool == nil {
		return nil
	}
	return f.pool.Close()
}

// probeConfig strips the session and fence from the data config: probes must
// reach replicas (which refuse fenced data sessions) and must not consume a
// namespace session slot for longer than one Stats call.
func (f *FailoverPool) probeConfig() ClientConfig {
	cfg := f.cfg
	cfg.Database = ""
	cfg.Fence = 0
	cfg.Metrics = nil
	return cfg
}

// connectLocked (re)establishes the data pool on the best server, promoting
// a replica when no primary answers. avoid is the address we are failing
// away from; it is chosen only when nothing else qualifies. Caller holds
// f.mu. Its spans start under parent, the span of the op that lost the
// server (the zero context: the tracer's current span).
func (f *FailoverPool) connectLocked(parent otrace.SpanContext, avoid string) error {
	// One span covers the whole probe sweep; a promotion (when needed)
	// gets its own child naming the server it elevated.
	psp := f.cfg.Trace.StartChild("failover/probe", parent)
	defer psp.End()
	type probe struct {
		addr string
		st   store.Stats
	}
	var (
		probes   []probe
		maxFence = f.fence
		lastErr  error
	)
	pcfg := f.probeConfig()
	for _, addr := range f.addrs {
		c, err := DialWith(addr, pcfg)
		if err != nil {
			lastErr = err
			continue
		}
		var res store.Result
		err = c.roundTrip(&store.Op{Kind: store.KindStats, Parent: psp.Context()}, &res)
		c.Close()
		if err != nil {
			lastErr = err
			continue
		}
		probes = append(probes, probe{addr, res.Stats})
		if res.Stats.Fence > maxFence {
			maxFence = res.Stats.Fence
		}
	}
	if len(probes) == 0 {
		return fmt.Errorf("transport: no server reachable: %w: %w", store.ErrUnavailable, lastErr)
	}

	// Prefer a live primary at the newest fence; an avoided address only as
	// the last resort (it may be the very server whose verdicts failed us).
	pick := func(ok func(probe) bool) (string, bool) {
		chosen, found := "", false
		for _, p := range probes {
			if !ok(p) {
				continue
			}
			if !found || chosen == avoid {
				chosen, found = p.addr, true
			}
		}
		return chosen, found
	}
	replicated := maxFence > 0
	if addr, ok := pick(func(p probe) bool { return p.st.Primary && p.st.Fence == maxFence }); ok {
		f.fence = maxFence
		return f.openPoolLocked(addr)
	}
	if !replicated {
		// No server reports a replication role: a plain single-server (or
		// seed-era) deployment. Serve the first reachable address with no
		// fence in the handshake.
		addr, _ := pick(func(probe) bool { return true })
		f.fence = 0
		return f.openPoolLocked(addr)
	}

	// No primary answered: promote the freshest reachable replica — newest
	// fence first, watermark only as a tie-break within that fence.
	// Watermarks are per-reign stream positions, not comparable across
	// fencing epochs: after successive failovers a server stranded in an
	// older reign can report a numerically higher watermark than the newest
	// reign's survivor, but its history was superseded the moment the newer
	// fence was issued — promoting it would resurrect a forked past rather
	// than lose only the documented unshipped suffix. The avoided address is
	// still only chosen when nothing else qualifies.
	best, found := "", false
	var bestFence, bestWM int64 = -1, -1
	for pass := 0; pass < 2 && !found; pass++ {
		for _, p := range probes {
			if pass == 0 && p.addr == avoid {
				continue
			}
			if found && (p.st.Fence < bestFence ||
				(p.st.Fence == bestFence && p.st.Watermark <= bestWM)) {
				continue
			}
			best, bestFence, bestWM, found = p.addr, p.st.Fence, p.st.Watermark, true
		}
	}
	if !found {
		return fmt.Errorf("transport: no replica to promote: %w", store.ErrUnavailable)
	}
	ssp := f.cfg.Trace.StartChild("failover/promote:"+best, psp.Context())
	defer ssp.End()
	ctl, err := DialWith(best, pcfg)
	if err != nil {
		return fmt.Errorf("transport: promoting %s: %w", best, err)
	}
	newFence, err := ctl.promote(ssp.Context(), maxFence+1)
	ctl.Close()
	if err != nil {
		return fmt.Errorf("transport: promoting %s to fence %d: %w", best, maxFence+1, err)
	}
	f.fence = newFence
	return f.openPoolLocked(best)
}

// openPoolLocked dials the data pool against addr with the current fence in
// its session handshake. Caller holds f.mu.
func (f *FailoverPool) openPoolLocked(addr string) error {
	cfg := f.cfg
	cfg.Fence = f.fence
	p, err := DialPoolWith(addr, f.size, cfg)
	if err != nil {
		return err
	}
	f.pool, f.cur = p, addr
	return nil
}

// lostServer reports whether an error means "this server is no longer
// usable" — a role verdict, a server that cannot be dialed, or a pool closed
// by an earlier failover — as opposed to "this request failed on its merits"
// (surfaced to the caller). A connection dropped mid-call is not a lost
// server: the next call re-dials the same primary. Neither are ErrTransient
// and ErrOverloaded: the server answered, it just wants the client to back
// off and retry *here*.
func lostServer(err error) bool {
	switch {
	case errors.Is(err, store.ErrNotPrimary), errors.Is(err, store.ErrFenced),
		errors.Is(err, store.ErrServerKilled), errors.Is(err, errDialFailed),
		errors.Is(err, ErrClosed):
		return true
	}
	return false
}

// handle sends one call once to the current primary. When lostServer says
// the primary is gone it fails over and returns store.ErrUnavailable with
// the cause in its message but not in its error chain, so the retry layer
// reads "retry" rather than the cause's own class (ErrServerKilled, for one,
// is fatal). A Stats report carries the failover count.
func (f *FailoverPool) handle(op *store.Op, res *store.Result) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	p, addr := f.pool, f.cur
	f.mu.Unlock()
	err := p.Do(op, res)
	switch {
	case err == nil:
		if op.Kind == store.KindStats {
			res.Stats.Failovers = f.failovers.Value()
		}
		return nil
	case !lostServer(err):
		return err
	}
	f.failoverFrom(op.Parent, p)
	return fmt.Errorf("transport: failed over from %s (%v): %w", addr, err, store.ErrUnavailable)
}

// failoverFrom replaces the pool that just failed. Idempotent under
// concurrency: the workers that lost the race see the pool already swapped,
// and their retries land on the new one.
func (f *FailoverPool) failoverFrom(parent otrace.SpanContext, old *Pool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || f.pool != old {
		return
	}
	f.failovers.Inc()
	avoid := f.cur
	old.Close()
	// On connect failure the closed pool stays installed: its fast ErrClosed
	// verdicts route the next attempts back here to re-probe.
	_ = f.connectLocked(parent, avoid)
}

// TraceDump gathers buffered span records from every reachable server in
// the cluster, not just the current primary: replication-ship spans live
// on the primary, but apply spans live on the replicas, and a merged
// artifact wants both sides. Unreachable servers are skipped silently; an
// error is returned only when no server answered at all.
func (f *FailoverPool) TraceDump(traceFilter string) ([]otrace.Record, error) {
	pcfg := f.probeConfig()
	var (
		recs    []otrace.Record
		lastErr error
		got     bool
	)
	for _, addr := range f.addrs {
		c, err := DialWith(addr, pcfg)
		if err != nil {
			lastErr = err
			continue
		}
		r, err := c.TraceDump(traceFilter)
		c.Close()
		if err != nil {
			lastErr = err
			continue
		}
		recs = append(recs, r...)
		got = true
	}
	if !got {
		return nil, fmt.Errorf("transport: trace dump: no server reachable: %w", lastErr)
	}
	return recs, nil
}
