// Package transport connects the client C to the server S. Protocol code
// only depends on store.Service; this package provides two interchangeable
// ways to obtain one:
//
//   - in-process: use a *store.Server directly (it implements the interface)
//   - TCP: Serve exposes a store.Service on a listener, Dial returns a
//     store.Service proxy that forwards every call as one length-prefixed
//     binary frame (grammar, version rule and ownership of decoded bytes:
//     codec.go) — the deployment shape of the paper's evaluation (client
//     and server on separate machines, §VII-A).
//
// The TCP client re-dials but never re-sends: every call runs under an
// optional read/write deadline, a call whose connection breaks drops the
// connection and fails at once with the retryable store.ErrUnavailable, and
// the next call dials once (handshake included) before it is sent. Sending a
// call again is store.WithRetry's job and nobody else's: it holds the
// idempotency and leakage argument, and it alone reconciles a create or
// delete whose acknowledgement was lost (store.Kind.Applied).
//
// Every request/response crossing the wire carries only what the persistent
// adversary is allowed to see anyway: object names, indices, and
// ciphertexts.
//
// Multi-tenancy: a client configured with a Database (and optionally a
// Token) opens its connection with a session handshake (store.KindHello). The
// server authenticates it, admits it against the session budget, and scopes
// every subsequent request on that connection to the database's namespace —
// object names are prefixed server-side, so N clients on M databases share
// one backend without key collisions. The handshake is replayed on every
// re-dial, so a re-dialed connection rejoins its namespace before any
// request is sent on it. Connections that never handshake behave exactly as
// before (root namespace, no admission control) unless the server requires
// a token.
package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/oblivfd/oblivfd/internal/otrace"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/telemetry"
)

// ErrClosed is returned by calls on a closed client.
var ErrClosed = errors.New("transport: connection closed")

// errDialFailed marks a call (or a Dial) that could not open a TCP
// connection at all, as opposed to one whose connection broke mid-call: the
// failover pool fails over on the first and not on the second. It is
// retryable, like every store.ErrUnavailable.
var errDialFailed = fmt.Errorf("cannot dial: %w", store.ErrUnavailable)

// rpcSpanNames and serverSpanNames pre-build the per-kind span names so the
// per-call path never concatenates strings.
var rpcSpanNames, serverSpanNames [store.NumKinds]string

func init() {
	for k := range rpcSpanNames {
		rpcSpanNames[k] = "rpc/" + store.Kind(k).String()
		serverSpanNames[k] = "server/" + store.Kind(k).String()
	}
}

// rpcHistograms pre-creates one latency histogram per RPC kind so the
// per-call path never touches the registry map.
func rpcHistograms(reg *telemetry.Registry, name string) *[store.NumKinds]*telemetry.Histogram {
	var h [store.NumKinds]*telemetry.Histogram
	for k := range h {
		h[k] = reg.Histogram(name, "op", store.Kind(k).String())
	}
	return &h
}

// request is the wire format for one call: the operation, whose Kind is the
// first byte of the body and whose other fields travel as that kind's grammar
// says (codec.go), plus what only the wire needs. The control kinds reuse the
// Op's fields — Value carries a fence, Cts framed WAL records or a snapshot,
// Name a database or a trace filter — as store.Kind documents. Op.DB has no
// wire form: a connection's namespace is bound by its session handshake.
//
// A Batch's response flattens every read's ciphertexts into Cts in op order
// (writes contribute nothing), and the client splits them back apart by each
// read op's index count.
type request struct {
	store.Op
	Seq   int64  // replication stream position (KindReplicate/KindSync)
	Token string // session auth token (KindHello and replication kinds)
	// Ctx is the distributed-tracing context header: present on every
	// frame, copied in verbatim, the zero context when tracing is off — so
	// a frame's length says nothing about tracing state (DESIGN.md §14).
	Ctx [otrace.WireSize]byte
}

// errCode identifies a store sentinel error on the wire, so errors.Is keeps
// working through TCP (and so the retry layer can classify remote errors).
type errCode uint8

const (
	codeOK errCode = iota
	codeGeneric
	codeUnknownObject
	codeObjectExists
	codeOutOfRange
	codeBadPath
	codeTransient
	codeCorruptSnapshot
	codeCorruptWAL
	codeServerKilled
	codeNoSuchEpoch
	codeIntegrity
	codeOverloaded
	codeUnauthorized
	codeNotPrimary
	codeFenced
	codeDiskFull
)

// codeSentinel maps wire codes back to the sentinel errors they stand for.
var codeSentinel = map[errCode]error{
	codeUnknownObject:   store.ErrUnknownObject,
	codeObjectExists:    store.ErrObjectExists,
	codeOutOfRange:      store.ErrOutOfRange,
	codeBadPath:         store.ErrBadPath,
	codeTransient:       store.ErrTransient,
	codeCorruptSnapshot: store.ErrCorruptSnapshot,
	codeCorruptWAL:      store.ErrCorruptWAL,
	codeServerKilled:    store.ErrServerKilled,
	codeNoSuchEpoch:     store.ErrNoSuchEpoch,
	codeIntegrity:       store.ErrIntegrity,
	codeOverloaded:      store.ErrOverloaded,
	codeUnauthorized:    store.ErrUnauthorized,
	codeNotPrimary:      store.ErrNotPrimary,
	codeFenced:          store.ErrFenced,
	codeDiskFull:        store.ErrDiskFull,
}

// sentinelCodes is the classification order for encoding: most specific
// first. Order matters because sentinels may imply one another —
// ErrCorruptSnapshot and ErrCorruptWAL both match ErrIntegrity under
// errors.Is, so the bare ErrIntegrity code must be checked after them or the
// wire would lose the specific sentinel (a map iteration here would pick one
// nondeterministically).
var sentinelCodes = []struct {
	code errCode
	err  error
}{
	{codeUnknownObject, store.ErrUnknownObject},
	{codeObjectExists, store.ErrObjectExists},
	{codeOutOfRange, store.ErrOutOfRange},
	{codeBadPath, store.ErrBadPath},
	{codeTransient, store.ErrTransient},
	{codeCorruptSnapshot, store.ErrCorruptSnapshot},
	{codeCorruptWAL, store.ErrCorruptWAL},
	{codeServerKilled, store.ErrServerKilled},
	{codeNoSuchEpoch, store.ErrNoSuchEpoch},
	{codeIntegrity, store.ErrIntegrity},
	{codeOverloaded, store.ErrOverloaded},
	{codeUnauthorized, store.ErrUnauthorized},
	{codeNotPrimary, store.ErrNotPrimary},
	{codeFenced, store.ErrFenced},
	{codeDiskFull, store.ErrDiskFull},
}

// encodeErr flattens an error for the wire, preserving its most specific
// sentinel.
func encodeErr(err error) (string, errCode) {
	if err == nil {
		return "", codeOK
	}
	for _, sc := range sentinelCodes {
		if errors.Is(err, sc.err) {
			return err.Error(), sc.code
		}
	}
	return err.Error(), codeGeneric
}

// wireError rehydrates a remote error: the exact message, unwrapping to the
// sentinel it was classified as.
type wireError struct {
	msg      string
	sentinel error
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.sentinel }

// decodeErr rebuilds a remote error from its wire form.
func decodeErr(code errCode, msg string) error {
	if msg == "" {
		return nil
	}
	if sentinel, ok := codeSentinel[code]; ok {
		return &wireError{msg: msg, sentinel: sentinel}
	}
	return errors.New(msg)
}

// response is the wire format for one result. Result.Batch has no wire form
// (see request).
type response struct {
	Err  string
	Code errCode
	store.Result
	Fence int64 // replication responses: the responder's fencing epoch
	Seq   int64 // replication responses: the responder's watermark
}

// dispatch runs a decoded Service request against svc.
func dispatch(svc store.Service, req *request) *response {
	var resp response
	err := store.Invoke(svc, &req.Op, &resp.Result)
	if err != nil {
		resp.Result = store.Result{}
	}
	for _, cts := range resp.Batch {
		resp.Cts = append(resp.Cts, cts...)
	}
	resp.Batch = nil
	resp.Err, resp.Code = encodeErr(err)
	return &resp
}

// ClientConfig tunes a TCP client. The zero value of any field selects the
// default noted on it.
type ClientConfig struct {
	// CallTimeout is the read/write deadline applied to the connection for
	// each call (default 2m; negative disables). A call that exceeds it
	// fails with a timeout, the connection is torn down, and the next call
	// re-dials.
	CallTimeout time.Duration
	// DialTimeout bounds each (re-)dial (default 10s).
	DialTimeout time.Duration
	// Metrics, when set, records client-side per-RPC latency
	// (oblivfd_rpc_client_seconds{op=...}) and backs the reconnect counter
	// with the shared series oblivfd_client_reconnects_total, so every
	// client and pool built from this config reports into one place.
	Metrics *telemetry.Registry
	// Database, when non-empty, opens a session handshake binding this
	// connection to the named database namespace: the server prefixes every
	// object name with "<Database>/", isolating this client from other
	// tenants. Empty means the root namespace with no handshake (the
	// single-tenant behaviour). Each pooled connection opens its own
	// session, so a pool of size P counts P sessions against the server's
	// -max-sessions budget.
	Database string
	// Token is the auth token presented in the session handshake. Required
	// when the server was started with -session-token; a mismatch fails the
	// dial with store.ErrUnauthorized. Setting only Token (no Database)
	// still opens a session, bound to the root namespace.
	Token string
	// Trace, when set, starts one client-side span per RPC (named
	// rpc/<op>, parented under the goroutine's bound span) and stamps its
	// context into the frame header so server-side spans link causally to
	// it. Nil disables span recording; the frame header is carried at
	// constant size either way.
	Trace *otrace.Tracer
	// Fence, when positive, is carried in the session handshake: the
	// client's view of the cluster's fencing epoch. A server that believes
	// it is primary at a lower fence learns it was deposed and refuses the
	// session with store.ErrFenced; a client whose fence is stale gets the
	// same refusal and re-probes. Zero means fence-unaware (single-server
	// deployments).
	Fence int64
}

// DefaultClientConfig returns the defaults documented on ClientConfig.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{CallTimeout: 2 * time.Minute, DialTimeout: 10 * time.Second}
}

// withDefaults fills zero fields.
func (cfg ClientConfig) withDefaults() ClientConfig {
	def := DefaultClientConfig()
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = def.CallTimeout
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = def.DialTimeout
	}
	return cfg
}

// Client is a store.Service proxy over one TCP connection. It is safe for
// concurrent use; calls are serialized on the connection. It re-dials: a
// call that finds no live connection dials once before it is sent. It never
// sends a call twice (see the package comment).
type Client struct {
	store.Adapter
	addr string
	cfg  ClientConfig

	mu     sync.Mutex
	conn   net.Conn
	fc     *frameConn // nil exactly when conn is
	closed bool

	// reconnects is registry-backed (shared across all clients built from
	// the same config) when cfg.Metrics is set, standalone otherwise.
	reconnects *telemetry.Counter
	shared     bool
	lat        *[store.NumKinds]*telemetry.Histogram // nil when metrics are off
}

var _ store.ReplicaConn = (*Client)(nil)

// Dial connects to a transport server with the default configuration.
func Dial(addr string) (*Client, error) {
	return DialWith(addr, DefaultClientConfig())
}

// DialWith connects to a transport server with an explicit configuration.
// It fails when the address cannot be dialed and when the server refuses the
// session handshake (store.ErrUnauthorized, ErrOverloaded, ErrFenced,
// ErrNotPrimary). A handshake lost to a dropped connection does not fail it:
// the client is returned unconnected and its first call re-dials.
func DialWith(addr string, cfg ClientConfig) (*Client, error) {
	c := &Client{addr: addr, cfg: cfg.withDefaults(), reconnects: telemetry.NewCounter()}
	c.Adapter = store.Adapt(c.handle)
	if cfg.Metrics != nil {
		c.reconnects = cfg.Metrics.Counter("oblivfd_client_reconnects_total")
		c.shared = true
		c.lat = rpcHistograms(cfg.Metrics, "oblivfd_rpc_client_seconds")
	}
	if err := c.connectLocked(); err != nil && (errors.Is(err, errDialFailed) || !errors.Is(err, store.ErrUnavailable)) {
		return nil, err
	}
	return c, nil
}

// Close shuts the connection down.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}

// Reconnects returns how many times this client re-dialed its server. With
// a Metrics registry configured the counter is shared, so this is the total
// across every client built from the same config.
func (c *Client) Reconnects() int64 { return c.reconnects.Value() }

// dropConnLocked tears down a failed connection. Caller holds c.mu.
func (c *Client) dropConnLocked() {
	if c.conn != nil {
		_ = c.conn.Close()
	}
	c.conn, c.fc = nil, nil
}

// sessioned reports whether this client opens a session handshake on each
// connection.
func (c *Client) sessioned() bool {
	return c.cfg.Database != "" || c.cfg.Token != "" || c.cfg.Fence > 0
}

// connectLocked makes one attempt to open a connection and, for a sessioned
// client, to run the handshake on it: it announces the database namespace,
// auth token and fence and waits for the server's verdict, so a re-dialed
// connection rejoins its namespace before any request is sent on it. A
// failed dial wraps errDialFailed; a handshake lost to a dropped connection
// wraps store.ErrUnavailable and leaves the client unconnected; a refused
// handshake returns the server's verdict. Caller holds c.mu (or has
// exclusive access, in DialWith).
func (c *Client) connectLocked() error {
	conn, err := net.DialTimeout("tcp", c.addr, c.cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("transport: dial %s: %w: %w", c.addr, errDialFailed, err)
	}
	c.conn, c.fc = conn, newFrameConn(conn)
	if !c.sessioned() {
		return nil
	}
	hello := request{Op: store.Op{Kind: store.KindHello, Name: c.cfg.Database, Value: c.cfg.Fence}, Token: c.cfg.Token}
	hello.Ctx = otrace.SpanContext{}.Wire() // constant-size header, like every frame
	if _, err := c.exchangeLocked(&hello); err != nil {
		c.dropConnLocked()
		return fmt.Errorf("transport: session handshake with %s: %w", c.addr, err)
	}
	return nil
}

// exchangeLocked sends req on the live connection and reads the answer. A
// transport failure drops the connection and returns the retryable
// store.ErrUnavailable; the request is not sent again. Caller holds c.mu.
func (c *Client) exchangeLocked(req *request) (*response, error) {
	if c.cfg.CallTimeout > 0 {
		_ = c.conn.SetDeadline(time.Now().Add(c.cfg.CallTimeout))
	}
	var resp response
	err := c.fc.flush(appendRequest(c.fc.begin(), req))
	if err == nil {
		var body []byte
		if body, err = c.fc.next(); err == nil {
			err = decodeResponse(body, &resp)
		}
	}
	if err != nil {
		c.dropConnLocked()
		return nil, fmt.Errorf("transport: connection lost: %w: %w", store.ErrUnavailable, err)
	}
	return &resp, decodeErr(resp.Code, resp.Err)
}

func (c *Client) call(req *request) (*response, error) {
	// The RPC span covers the call, a re-dial included, and its context
	// rides in the constant-size frame header. With no tracer the header
	// still goes out, carrying the zero context — frame bytes are identical
	// either way. The span is started before taking c.mu so it parents under
	// the calling goroutine's bound span, not under whatever was bound when
	// the lock became free.
	var span *otrace.Span
	if c.cfg.Trace != nil && req.Kind < store.NumKinds {
		span = c.cfg.Trace.Start(rpcSpanNames[req.Kind])
		defer span.End()
	}
	req.Ctx = span.Context().Wire()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if c.lat != nil && req.Kind < store.NumKinds {
		defer c.lat[req.Kind].ObserveSince(time.Now())
	}
	if c.conn == nil {
		err := c.connectLocked()
		if errors.Is(err, errDialFailed) {
			return nil, err
		}
		c.reconnects.Inc() // the dial reached the server, whatever its handshake said
		if err != nil {
			return nil, err
		}
	}
	return c.exchangeLocked(req)
}

// roundTrip sends one Service operation and fills res from the answer. The
// whole op crosses the wire as one framed request and one framed response, a
// Batch of B cell or path operations included — one round trip instead of B.
func (c *Client) roundTrip(op *store.Op, res *store.Result) error {
	if op.DB != "" {
		return fmt.Errorf("transport: %v in namespace %q: a connection's namespace is bound by its handshake (ClientConfig.Database), not per call", op.Kind, op.DB)
	}
	resp, err := c.call(&request{Op: *op})
	if err != nil {
		return err
	}
	*res = resp.Result
	if op.Kind != store.KindBatch {
		return nil
	}
	res.Batch = make([][][]byte, len(op.Ops))
	flat := resp.Cts
	res.Cts = nil
	for i := range op.Ops {
		b := &op.Ops[i]
		if b.Write {
			continue
		}
		n := len(b.Idx)
		if b.Path {
			n = b.N
		}
		if n < 0 || n > len(flat) {
			return fmt.Errorf("transport: batch response short: %d cells left, op wants %d", len(flat), n)
		}
		res.Batch[i], flat = flat[:n:n], flat[n:]
	}
	if len(flat) != 0 {
		return fmt.Errorf("transport: batch response has %d extra cells", len(flat))
	}
	return nil
}

// handle is the client as a store.Service: roundTrip, with this client's
// reconnect count added to a Stats report (a pool aggregates the counts of
// all its clients itself and uses roundTrip). With a shared registry counter
// the value is the config-wide total, so it replaces rather than accumulates
// — stacking would double-count what other sharers already reported.
func (c *Client) handle(op *store.Op, res *store.Result) error {
	if err := c.roundTrip(op, res); err != nil {
		return err
	}
	if op.Kind == store.KindStats {
		if c.shared {
			res.Stats.Reconnects = c.reconnects.Value()
		} else {
			res.Stats.Reconnects += c.reconnects.Value()
		}
	}
	return nil
}

// Replicate implements store.ReplicaConn: ship framed WAL records to a
// replica. seq is the shipper's stream position before this batch; the
// replica refuses (store.ErrIntegrity) unless it matches its watermark.
func (c *Client) Replicate(fence, seq int64, frames [][]byte) error {
	_, err := c.call(&request{Op: store.Op{Kind: store.KindReplicate, Value: fence, Cts: frames}, Seq: seq, Token: c.cfg.Token})
	return err
}

// SyncSnapshot implements store.ReplicaConn: replace the replica's whole
// state with a snapshot and reposition its stream cursor at seq.
func (c *Client) SyncSnapshot(fence, seq int64, snap []byte) error {
	_, err := c.call(&request{Op: store.Op{Kind: store.KindSync, Value: fence, Cts: [][]byte{snap}}, Seq: seq, Token: c.cfg.Token})
	return err
}

// FetchRepair is store.ReplicaConn's repair RPC: fetch checksum-verified
// ciphertexts from a peer to heal local corruption. Token-gated like the
// other replication control RPCs.
func (c *Client) FetchRepair(fence int64, name string, idx []int64) ([][]byte, error) {
	resp, err := c.call(&request{Op: store.Op{Kind: store.KindRepair, Value: fence, Name: name, Idx: idx}, Token: c.cfg.Token})
	if err != nil {
		return nil, err
	}
	// The caller installs these into its store, which keeps them cell by
	// cell: unlike a response a client decrypts and drops, they must not
	// share the response's slab.
	for i, ct := range resp.Cts {
		resp.Cts[i] = bytes.Clone(ct)
	}
	return resp.Cts, nil
}

// Promote asks the server to adopt the given fencing epoch and the primary
// role; it returns the server's resulting fence. The failover layer calls it
// on the freshest reachable replica once no primary answers.
func (c *Client) Promote(fence int64) (int64, error) {
	resp, err := c.call(&request{Op: store.Op{Kind: store.KindPromote, Value: fence}, Token: c.cfg.Token})
	if err != nil {
		return 0, err
	}
	return resp.Fence, nil
}

// TraceDump fetches the server's buffered span records, optionally
// filtered to one trace ID (lowercase hex; empty fetches everything). The
// RPC is token-gated like replication control: on a token-protected server
// the client's configured Token must match. fddiscover -trace-out uses it
// to merge server-side spans into the per-run flight-recorder artifact.
func (c *Client) TraceDump(traceFilter string) ([]otrace.Record, error) {
	resp, err := c.call(&request{Op: store.Op{Kind: store.KindTraceDump, Name: traceFilter}, Token: c.cfg.Token})
	if err != nil {
		return nil, err
	}
	if len(resp.Cts) == 0 {
		return nil, nil
	}
	return otrace.UnmarshalRecords(resp.Cts[0])
}
