package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/oblivfd/oblivfd/internal/otrace"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/telemetry"
	"github.com/oblivfd/oblivfd/internal/wire"
)

// Server accepts transport connections and dispatches requests to a
// store.Service. Unlike the bare Serve function it supports graceful
// shutdown: Shutdown stops accepting, lets in-flight requests finish within
// a grace period, and only then closes the connections — so a long
// oblivious run is never cut off mid-request by an operator signal.
//
// A Server is multi-tenant: a connection that opens with a session
// handshake (see ClientConfig.Database) is authenticated and admitted by
// the session registry, and every request it sends afterwards is scoped to
// its database namespace and gated by admission control — budget overruns
// are shed with a retryable store.ErrOverloaded rather than queued.
// Connections that never handshake keep the original single-tenant
// behaviour (root namespace, no admission) unless the limits require a
// token, in which case their requests are refused with
// store.ErrUnauthorized.
type Server struct {
	svc store.Service

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	draining bool

	limits     store.SessionLimits
	registry   *store.SessionRegistry
	replicator *store.ReplicatedServer // nil on unreplicated servers

	inflight atomic.Int64 // requests decoded but not yet answered

	tracer *otrace.Tracer // nil until SetTracer; server-side span recording

	// Telemetry handles, all nil until SetMetrics; serveConn checks rpcLat
	// once per connection so the metrics-off path is a single nil test.
	telReg        *telemetry.Registry
	rpcLat        *[store.NumKinds]*telemetry.Histogram
	inflightGauge *telemetry.Gauge
	bytesIn       *telemetry.Counter
	bytesOut      *telemetry.Counter
	connsGauge    *telemetry.Gauge
}

// NewServer wraps a service for serving over TCP. The zero session limits
// impose no admission control; see SetSessionLimits.
func NewServer(svc store.Service) *Server {
	return &Server{
		svc:      svc,
		conns:    make(map[net.Conn]struct{}),
		registry: store.NewSessionRegistry(store.SessionLimits{}, nil),
	}
}

// SetSessionLimits installs admission-control limits, rebuilding the
// session registry. Call before Serve (live sessions do not carry over).
func (s *Server) SetSessionLimits(limits store.SessionLimits) {
	s.limits = limits
	s.registry = store.NewSessionRegistry(limits, s.telReg)
}

// Sessions exposes the session registry (active counts, shed counters) for
// tests and operator endpoints.
func (s *Server) Sessions() *store.SessionRegistry { return s.registry }

// SetReplicator installs the replication role manager, nil for none:
// replication RPCs (store.KindReplicate/store.KindSync/store.KindPromote)
// are routed to it, and session handshakes become fence-aware (see
// handleHello). Call before Serve.
func (s *Server) SetReplicator(rep *store.ReplicatedServer) { s.replicator = rep }

// Draining reports whether a shutdown drain has begun (operator endpoints).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// SetMetrics attaches a telemetry registry: per-RPC server-side latency
// (oblivfd_rpc_seconds{op=...}), the in-flight request gauge
// (oblivfd_rpc_inflight), open-connection gauge (oblivfd_conns_open), and
// wire byte counters (oblivfd_net_rx_bytes_total /
// oblivfd_net_tx_bytes_total). Call before Serve; a nil registry is a
// no-op. Everything observed is already server-visible, so nothing beyond
// L(DB) is recorded (DESIGN.md §9).
func (s *Server) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.telReg = reg
	s.rpcLat = rpcHistograms(reg, "oblivfd_rpc_seconds")
	s.inflightGauge = reg.Gauge("oblivfd_rpc_inflight")
	s.connsGauge = reg.Gauge("oblivfd_conns_open")
	s.bytesIn = reg.Counter("oblivfd_net_rx_bytes_total")
	s.bytesOut = reg.Counter("oblivfd_net_tx_bytes_total")
	s.registry = store.NewSessionRegistry(s.limits, reg)
}

// SetTracer attaches a span recorder: every dispatched request runs under
// a server-side span (server/<op>) linked to the client's span via the
// frame's constant-size context header — a root when the header is the zero
// context — and carried down on the op (store.Op.Parent) so store/WAL/
// replication spans nest under it. Call before Serve; nil disables
// recording (frames still carry the header).
func (s *Server) SetTracer(tr *otrace.Tracer) { s.tracer = tr }

// Tracer returns the installed span recorder (nil when tracing is off).
func (s *Server) Tracer() *otrace.Tracer { return s.tracer }

// countingConn counts wire bytes as they cross the frame codec.
type countingConn struct {
	net.Conn
	in, out *telemetry.Counter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// Serve accepts connections on l until the listener closes (returning nil)
// or fails. Each connection is served by its own goroutine; calls within
// one connection execute sequentially, matching the client proxy.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	var wg sync.WaitGroup
	defer wg.Wait()
	if idle := s.registry.Limits().IdleTimeout; idle > 0 {
		// Reclaim idle sessions even when the server is not at capacity, so
		// an abandoned tenant's connection does not pin a session slot.
		stop := make(chan struct{})
		defer close(stop)
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(idle / 2)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					s.registry.SweepIdle()
				}
			}
		}()
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("transport: accept: %w", err)
		}
		if !s.admit(conn) {
			conn.Close()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveConn(conn)
		}()
	}
}

// admit starts tracking an accepted connection, unless a drain has begun:
// Shutdown has then already closed the tracked connections, and nobody else
// would ever close this one.
func (s *Server) admit(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.draining {
		s.conns[conn] = struct{}{}
	}
	return !s.draining
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
}

// ActiveConns returns the number of currently open client connections.
func (s *Server) ActiveConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// connState is one connection's session binding: nil until a handshake
// succeeds, after which svc is the namespaced view every request dispatches
// through.
type connState struct {
	sess      *store.Session
	svc       store.Service
	tenantLat *telemetry.Histogram
}

// handleHello authenticates and admits a session handshake, binding the
// connection to its database namespace. A repeated handshake on the same
// connection replaces the previous session (the client only re-handshakes
// on a fresh connection, but a replaced session must not leak a slot).
func (s *Server) handleHello(conn net.Conn, cs *connState, req *request) *response {
	var resp response
	if cs.sess != nil {
		cs.sess.Close()
		cs.sess, cs.svc, cs.tenantLat = nil, nil, nil
	}
	// Fence-aware handshake: a client that knows the cluster's fencing
	// epoch announces it (req.Value). The comparison resolves both
	// directions of staleness before any data flows — a deposed primary
	// learns of its successor and fences itself; a client with an outdated
	// fence is sent back to probe. The fence claim is state-changing
	// (ObserveFence durably deposes a stale primary), so it is token-gated
	// exactly like the replication RPCs: an unauthenticated Hello must not
	// be able to fence a token-protected server off.
	if s.replicator != nil && req.Value > 0 {
		if token := s.registry.Limits().Token; token != "" && req.Token != token {
			resp.Err, resp.Code = encodeErr(fmt.Errorf(
				"%w: fence-bearing handshake requires the session token", store.ErrUnauthorized))
			return &resp
		}
		fence := s.replicator.Fence()
		switch {
		case req.Value > fence:
			_ = s.replicator.ObserveFence(req.Value)
			resp.Err, resp.Code = encodeErr(fmt.Errorf(
				"%w: client fence %d above local %d", store.ErrFenced, req.Value, fence))
			resp.Fence = s.replicator.Fence()
			return &resp
		case req.Value < fence:
			resp.Err, resp.Code = encodeErr(fmt.Errorf(
				"%w: client fence %d below local %d", store.ErrFenced, req.Value, fence))
			resp.Fence = fence
			return &resp
		case !s.replicator.IsPrimary():
			resp.Err, resp.Code = encodeErr(store.ErrNotPrimary)
			resp.Fence = fence
			return &resp
		}
	}
	sess, err := s.registry.Open(req.Name, req.Token)
	if err != nil {
		resp.Err, resp.Code = encodeErr(err)
		return &resp
	}
	// Eviction (idle sweep) closes the connection; the client's next call
	// re-dials and re-handshakes (after a retry, if a call was in flight), so
	// an evicted tenant that returns gets a fresh session transparently.
	sess.OnEvict(func() { conn.Close() })
	cs.sess = sess
	cs.svc = store.Namespaced(s.svc, sess.DB)
	if s.telReg != nil {
		db := sess.DB
		if db == "" {
			db = "root"
		}
		cs.tenantLat = s.telReg.Histogram("oblivfd_tenant_rpc_seconds", "db", db)
	}
	return &resp
}

func (s *Server) serveConn(conn net.Conn) {
	var cs connState
	defer func() {
		if cs.sess != nil {
			cs.sess.Close()
		}
		s.untrack(conn)
		conn.Close()
		s.connsGauge.Add(-1)
	}()
	s.connsGauge.Add(1)
	var rw io.ReadWriter = conn
	if s.rpcLat != nil {
		rw = &countingConn{Conn: conn, in: s.bytesIn, out: s.bytesOut}
	}
	fc := newFrameConn(rw)
	needToken := s.registry.Limits().Token != ""
	for {
		var req request
		body, err := fc.next()
		if err == nil {
			err = decodeRequest(body, &req)
		}
		if err != nil {
			// io.EOF on clean shutdown; anything else also ends the conn. A
			// peer whose bytes arrived but do not parse — another wire
			// format, a damaged frame — is told why before it is dropped.
			if errors.Is(err, errFrameVersion) || errors.Is(err, wire.ErrMalformed) {
				_ = fc.flush(appendResponse(fc.begin(), &response{Err: err.Error(), Code: codeGeneric}))
			}
			return
		}
		s.inflight.Add(1)
		s.inflightGauge.Add(1)
		var t0 time.Time
		if s.rpcLat != nil || cs.tenantLat != nil {
			t0 = time.Now()
		}
		// The server-side span links to the client's RPC span through the
		// frame's constant-size context header. An invalid header (untraced
		// client) starts a fresh server-local root instead — never a child
		// of the tracer's current span, which a concurrent replication
		// shipment may hold. The op carries the span down, so store/WAL/
		// replication spans started while handling the request nest under it.
		var span *otrace.Span
		if s.tracer != nil && req.Kind < store.NumKinds {
			if parent := otrace.FromWire(req.Ctx); parent.Valid() {
				span = s.tracer.StartChild(serverSpanNames[req.Kind], parent)
			} else {
				span = s.tracer.StartRoot(serverSpanNames[req.Kind])
			}
			req.Parent = span.Context()
		}
		var resp *response
		switch {
		case req.Kind == store.KindHello:
			resp = s.handleHello(conn, &cs, &req)
		case req.Kind == store.KindReplicate || req.Kind == store.KindSync || req.Kind == store.KindPromote || req.Kind == store.KindRepair:
			// Replication RPCs bypass sessions and namespacing: they carry
			// whole WAL records (already namespaced at the primary) and role
			// changes, authenticated by the shared session token.
			resp = s.handleReplication(&req)
		case req.Kind == store.KindTraceDump:
			resp = s.handleTraceDump(&req)
		case cs.sess != nil:
			// Admission: budget overruns and rate-limit hits are shed with
			// a retryable error before the backend sees the request.
			if release, err := cs.sess.Begin(); err != nil {
				resp = &response{}
				resp.Err, resp.Code = encodeErr(err)
			} else {
				resp = dispatch(cs.svc, &req)
				release()
			}
		case needToken:
			resp = &response{}
			resp.Err, resp.Code = encodeErr(fmt.Errorf(
				"%w: server requires a session handshake with a token", store.ErrUnauthorized))
		default:
			// Sessionless connection on an open server: the original
			// single-tenant path, byte-for-byte.
			resp = dispatch(s.svc, &req)
		}
		span.End()
		if s.rpcLat != nil && req.Kind < store.NumKinds {
			s.rpcLat[req.Kind].ObserveSince(t0)
		}
		if cs.tenantLat != nil && req.Kind != store.KindHello {
			cs.tenantLat.ObserveSince(t0)
		}
		err = fc.flush(appendResponse(fc.begin(), resp))
		s.inflight.Add(-1)
		s.inflightGauge.Add(-1)
		if err != nil {
			return
		}
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining && cs.sess == nil {
			return // answered the in-flight request; take no more
		}
		// A session connection keeps serving through a drain: fair shutdown
		// lets admitted tenants finish while the registry refuses newcomers;
		// Shutdown force-closes whatever outlives the grace period.
	}
}

// handleReplication serves the replication RPCs against the installed
// replicated server. The shared session token (when configured) gates them
// exactly as it gates handshakes — replication messages can rewrite the whole
// store.
func (s *Server) handleReplication(req *request) *response {
	var resp response
	fail := func(err error) *response {
		resp.Err, resp.Code = encodeErr(err)
		if s.replicator != nil {
			resp.Fence = s.replicator.Fence()
			resp.Seq = s.replicator.Watermark()
		}
		return &resp
	}
	if s.replicator == nil {
		return fail(fmt.Errorf("%w: server is not replicated", store.ErrNotPrimary))
	}
	if token := s.registry.Limits().Token; token != "" && req.Token != token {
		return fail(fmt.Errorf("%w: bad replication token", store.ErrUnauthorized))
	}
	switch req.Kind {
	case store.KindReplicate:
		wm, err := s.replicator.ApplyReplicated(req.Parent, req.Value, req.Seq, req.Cts)
		resp.Seq = wm
		return fail(err)
	case store.KindSync:
		if len(req.Cts) != 1 {
			return fail(fmt.Errorf("%w: sync carries %d snapshots, want 1", store.ErrIntegrity, len(req.Cts)))
		}
		return fail(s.replicator.ApplySync(req.Value, req.Seq, req.Cts[0]))
	case store.KindRepair:
		cts, err := s.replicator.FetchRepair(req.Value, req.Name, req.Idx)
		resp.Cts = cts
		return fail(err)
	default: // store.KindPromote
		fence, err := s.replicator.Promote(req.Value)
		resp.Fence = fence
		return fail(err)
	}
}

// handleTraceDump serves the operator span-dump RPC: the server's current
// span ring as a JSON array in Cts[0], optionally filtered to one trace ID
// (req.Name, lowercase hex). It is token-gated like replication control —
// span records reveal operation timings an unauthenticated peer has no
// business reading on a token-protected server. A server without a tracer
// answers with an empty record set.
func (s *Server) handleTraceDump(req *request) *response {
	var resp response
	if token := s.registry.Limits().Token; token != "" && req.Token != token {
		resp.Err, resp.Code = encodeErr(fmt.Errorf("%w: bad trace-dump token", store.ErrUnauthorized))
		return &resp
	}
	recs := s.tracer.Records()
	if req.Name != "" {
		kept := recs[:0]
		for _, r := range recs {
			if r.Trace == req.Name {
				kept = append(kept, r)
			}
		}
		recs = kept
	}
	b, err := otrace.MarshalRecords(recs)
	if err != nil {
		resp.Err, resp.Code = encodeErr(err)
		return &resp
	}
	resp.Cts = [][]byte{b}
	return &resp
}

// Shutdown stops accepting new connections and drains fairly: the session
// registry refuses new handshakes (retryable ErrOverloaded, so refused
// clients back off and find a replacement server), sessionless connections
// close right after their current response, and session connections keep
// serving so admitted tenants can finish their runs — up to grace, after
// which any remaining connections are force-closed. It returns the number
// of connections that were still active when the drain began.
func (s *Server) Shutdown(grace time.Duration) int {
	s.mu.Lock()
	s.draining = true
	l := s.listener
	active := len(s.conns)
	s.mu.Unlock()
	s.registry.Drain()
	if l != nil {
		_ = l.Close()
	}
	deadline := time.Now().Add(grace)
	for (s.inflight.Load() > 0 || s.registry.Active() > 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.mu.Lock()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	return active
}

// Serve accepts connections on l and dispatches requests to svc until the
// listener is closed. It is the fire-and-forget form of Server.Serve; use a
// Server directly when graceful shutdown is needed.
func Serve(l net.Listener, svc store.Service) error {
	return NewServer(svc).Serve(l)
}
