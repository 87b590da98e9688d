// Package securefd is the public API of oblivfd, a Go implementation of
// "Secure and Practical Functional Dependency Discovery in Outsourced
// Databases" (ICDE 2024).
//
// A client outsources a cell-encrypted relation to an untrusted server and
// then discovers the relation's functional dependencies without revealing
// anything to the server beyond the database size and the FDs themselves —
// even against a persistent adversary watching every byte and every access.
//
// Basic use:
//
//	server := securefd.NewServer()                 // or DialTCP(addr)
//	db, err := securefd.Outsource(server, rel, securefd.Options{
//		Protocol: securefd.ProtocolSort,
//	})
//	report, err := db.Discover()
//	for _, fd := range report.Minimal {
//		fmt.Println(fd.Format(rel.Schema()))
//	}
//
// Three secure protocols are available (see the paper's §IV–V):
//
//   - ProtocolSort — oblivious bitonic sorting; static databases, O(1)
//     client memory, parallelizable (Workers).
//   - ProtocolORAM — PathORAM-based; static databases plus insertions.
//   - ProtocolDynamicORAM — extended ORAM layout; full insert/delete
//     support with polylogarithmic per-operation cost.
//
// Three reference engines exist for benchmarking: ProtocolPlaintext (no
// protection at all), ProtocolEnclave (the SGX-style deployment simulation
// of §VII-D), and ProtocolDeterministic (the frequency-revealing security
// level of the paper's predecessor — see its constant's warning).
package securefd

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"github.com/oblivfd/oblivfd/internal/core"
	"github.com/oblivfd/oblivfd/internal/otrace"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/telemetry"
	"github.com/oblivfd/oblivfd/internal/trace"
	"github.com/oblivfd/oblivfd/internal/transport"
)

// Re-exported data-model types. External code names them through this
// package; they are the same types used throughout the implementation.
type (
	// Schema describes a relation's attributes.
	Schema = relation.Schema
	// Relation is a plaintext table (client-side only).
	Relation = relation.Relation
	// Row is one record's values.
	Row = relation.Row
	// AttrSet is a set of attribute indices.
	AttrSet = relation.AttrSet
	// FD is a functional dependency LHS → RHS.
	FD = relation.FD
	// Service is the server-side storage surface (in-process or TCP).
	Service = store.Service
	// Server is the in-process reference server.
	Server = store.Server
	// TraceEvent is one server-visible storage operation — an element of
	// the persistent adversary's view.
	TraceEvent = trace.Event
	// TraceShape is a normalized trace for obliviousness comparisons.
	TraceShape = trace.Shape
)

// ShapeOf normalizes a recorded trace for comparison: what ORAM leaves
// decide (uniformly random, data-independent) is stripped — an ORAM round's
// bucket positions are kept as their levels; everything else — the exact
// operation sequence, objects, indices, and ciphertext sizes — is kept. Two same-size databases must yield equal shapes under any secure
// protocol (Definition 2 of the paper); see examples/adversary_view.
func ShapeOf(events []TraceEvent) TraceShape { return trace.ShapeOf(events) }

// NewSchema builds a schema from unique attribute names.
func NewSchema(names ...string) (*Schema, error) { return relation.NewSchema(names...) }

// NewRelation builds an empty relation over a schema; use Relation.Append.
func NewRelation(schema *Schema) *Relation { return relation.New(schema) }

// FromRows builds a relation from rows, validating widths.
func FromRows(schema *Schema, rows []Row) (*Relation, error) {
	return relation.FromRows(schema, rows)
}

// NewAttrSet builds an attribute set from indices.
func NewAttrSet(attrs ...int) AttrSet { return relation.NewAttrSet(attrs...) }

// NewServer creates an in-process server (client and server in one binary;
// useful for tests, benchmarks, and enclave-style deployments).
func NewServer() *Server { return store.NewServer() }

// WithLatency wraps a service so every storage operation takes at least rtt
// longer, modeling the client↔server network of a real deployment.
// Concurrent operations are delayed independently, which is what the
// sorting protocol's parallelism overlaps.
func WithLatency(svc Service, rtt time.Duration) Service { return store.WithLatency(svc, rtt) }

// ServeTCP exposes a server on a listener until the listener closes; run it
// in a goroutine. The fdserver command wraps this.
func ServeTCP(l net.Listener, svc Service) error { return transport.Serve(l, svc) }

// DialTCP connects to a remote server started with ServeTCP and returns a
// Service usable with Outsource. Calls carry deadlines; a call whose
// connection drops fails at once with the retryable ErrUnavailable, and the
// next call re-dials. The client never sends a call twice: wrap it in
// WithRetry for that.
func DialTCP(addr string) (*transport.Client, error) { return transport.Dial(addr) }

// Fault tolerance. Long oblivious runs make millions of storage calls, so
// a single transient failure must not cost the whole run. The pieces
// compose as decorators around a Service:
//
//	svc, _ := securefd.DialTCPWith(addr, securefd.DefaultClientConfig())
//	db, _ := securefd.Outsource(securefd.WithRetry(svc, securefd.RetryPolicy{}), rel, opts)
//
// WithRetry is the one layer that sends a call again. Below it the TCP
// client, the pool and the failover pool each send a call once: a dropped
// connection, an undialable server and a failover all surface as the
// retryable ErrUnavailable, and the connection is re-dialed by the next
// call. Retrying a storage operation is safe for the security guarantee: every
// operation is idempotent or reconciled (see store.WithRetry), and a
// retried access adds one re-encrypted access to the server's view —
// indistinguishable from a slightly longer run, so the leakage profile
// L(DB) = {Size(DB), FD(DB)} is unchanged.
type (
	// FaultConfig configures seeded fault injection (WithFaults).
	FaultConfig = store.FaultConfig
	// RetryPolicy configures retry/backoff (WithRetry).
	RetryPolicy = store.RetryPolicy
	// ClientConfig tunes the TCP client's deadlines, session and
	// instrumentation (DialTCPWith).
	ClientConfig = transport.ClientConfig
	// FaultService is a fault-injecting Service decorator.
	FaultService = store.FaultService
	// RetryService is a retrying Service decorator.
	RetryService = store.RetryService
)

// Typed failures a client may observe; each survives the TCP transport, so
// errors.Is works on the client side of a remote call.
var (
	// ErrTransient marks an injected or otherwise momentary storage
	// failure; WithRetry retries it.
	ErrTransient = store.ErrTransient
	// ErrUnavailable marks a call that failed for want of a server: its
	// connection dropped mid-call, the server could not be dialed, or the
	// failover pool just moved to a new primary. The call was sent at most
	// once, so WithRetry retries it.
	ErrUnavailable = store.ErrUnavailable
	// ErrIntegrity marks data the client refused because verification
	// failed: a tampered or replayed ciphertext, a stale ORAM block, a
	// corrupt WAL frame or snapshot, or a checkpoint/server epoch mismatch.
	// It is never retried — re-reading tampered data returns the same
	// wrong bytes — and discovery aborts with the lattice level and
	// attribute set that tripped the check.
	ErrIntegrity = store.ErrIntegrity
	// ErrOverloaded marks a request shed by a multi-tenant server's
	// admission control (session budget, in-flight budget, or rate limit).
	// The work was never executed, so WithRetry retries it safely.
	ErrOverloaded = store.ErrOverloaded
	// ErrUnauthorized marks a rejected session handshake (bad token or
	// invalid database name). It is never retried.
	ErrUnauthorized = store.ErrUnauthorized
	// ErrNotPrimary marks an operation sent to a replica: only the primary
	// serves clients. DialTCPFailover treats it as "rotate to the primary".
	ErrNotPrimary = store.ErrNotPrimary
	// ErrFenced marks a server deposed by a newer primary epoch. It is
	// fatal at that server; DialTCPFailover re-probes for the successor.
	ErrFenced = store.ErrFenced
	// ErrDiskFull marks a write shed because the server's disk is full and
	// it has degraded to read-only mode. Nothing was durably applied, and
	// the condition clears when space frees, so WithRetry retries it with
	// backoff like ErrOverloaded.
	ErrDiskFull = store.ErrDiskFull
)

// WithFaults wraps a service with seeded, deterministic fault injection:
// transient errors and latency spikes for resilience testing. The schedule
// is a pure function of the seed and call index.
func WithFaults(svc Service, cfg FaultConfig) *store.FaultService { return store.WithFaults(svc, cfg) }

// WithRetry wraps a service so transient failures are retried with
// exponential backoff, deadlines, and a retry budget.
func WithRetry(svc Service, p RetryPolicy) *store.RetryService { return store.WithRetry(svc, p) }

// Telemetry. A Registry collects counters, gauges, and latency histograms
// from every instrumented layer it is attached to; it observes only
// operation counts, byte sizes, and wall-clock timings — quantities within
// the protocol's leakage profile L(DB) — and never plaintext or key
// material. One registry may be shared by the storage decorators, the TCP
// client, and the engines; fdserver additionally serves a registry over
// HTTP (/metrics, /metrics.json, /debug/pprof/). A nil *Registry disables
// all instrumentation at zero cost.
type Registry = telemetry.Registry

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry { return telemetry.New() }

// Distributed tracing. A Tracer records causal spans — 128-bit trace IDs
// with parent/child links — into a bounded in-process ring, and its span
// contexts ride the TCP frames in a fixed-size, always-present header, so
// enabling tracing never changes any frame's length (DESIGN.md §14). Share
// one tracer between Options.Trace and ClientConfig.Trace to get a single
// causal tree from lattice level down to the server's WAL: Discover makes
// its running lattice span the tracer's current span, and each RPC span
// starts under it. A tracer therefore follows one traversal at a time —
// give concurrent Discover calls a tracer (and a client config) each. Its
// Phases total the spans per name, the phase table of -telemetry. A nil
// *Tracer disables recording at near-zero cost; TracerConfig sizes the ring
// and sets the head-sampling rate.
type (
	Tracer       = otrace.Tracer
	TracerConfig = otrace.Config
	SpanRecord   = otrace.Record
)

// NewTracer creates a span recorder. The Service field labels this
// process's spans in exported artifacts ("fddiscover", "fdserver", ...).
func NewTracer(cfg TracerConfig) *Tracer { return otrace.New(cfg) }

// WriteChromeTrace renders span records as Chrome trace-event JSON,
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
func WriteChromeTrace(w io.Writer, recs []SpanRecord) error {
	return otrace.WriteChrome(w, recs)
}

// WithTelemetry wraps a service so every storage operation records its
// latency, outcome, and payload bytes into the registry. A nil registry
// returns svc unchanged.
func WithTelemetry(svc Service, reg *Registry) Service { return store.WithMetrics(svc, reg) }

// DefaultClientConfig returns the TCP client defaults.
func DefaultClientConfig() ClientConfig { return transport.DefaultClientConfig() }

// DialTCPWith is DialTCP with an explicit configuration.
func DialTCPWith(addr string, cfg ClientConfig) (*transport.Client, error) {
	return transport.DialWith(addr, cfg)
}

// DialTCPPool connects size independent re-dialing connections to one
// server, letting concurrent workers issue storage calls in parallel.
func DialTCPPool(addr string, size int, cfg ClientConfig) (*transport.Pool, error) {
	return transport.DialPoolWith(addr, size, cfg)
}

// DialTCPFailover connects a pool of size connections against a *list* of
// replicated fdservers (see fdserver -replicas): calls are served by the
// current primary, and when it dies or is deposed the pool probes the list,
// promotes the freshest replica if no primary answers, and fails the call
// with the retryable ErrUnavailable. Layer WithRetry on top — it sends the
// call again to the new primary — and an entire server loss looks like one
// more transient fault:
//
//	svc, _ := securefd.DialTCPFailover(addrs, workers, securefd.DefaultClientConfig())
//	db, _ := securefd.Outsource(securefd.WithRetry(svc, securefd.RetryPolicy{}), rel, opts)
func DialTCPFailover(addrs []string, size int, cfg ClientConfig) (*transport.FailoverPool, error) {
	return transport.DialFailover(addrs, size, cfg)
}

// NewTCPServer wraps a service for serving over TCP with graceful
// shutdown: Shutdown(grace) drains in-flight requests before closing.
func NewTCPServer(svc Service) *transport.Server { return transport.NewServer(svc) }

// Multi-tenancy. One fdserver can host many independent databases: a client
// that sets ClientConfig.Database (and Token, if the server requires one)
// opens a session bound to that namespace, and every storage key it touches
// is transparently prefixed — tenants cannot observe or collide with each
// other's objects. Admission control (SessionLimits) sheds work beyond the
// configured budgets with the retryable ErrOverloaded instead of queuing,
// so an overloaded server degrades gracefully rather than falling over.
// The adversary's view of the multi-tenant server is the union of the
// per-tenant traces plus their interleaving; each tenant's own trace keeps
// the single-tenant leakage profile L(DB) (DESIGN.md §12).
type (
	// SessionLimits configures a multi-tenant server's admission control
	// (Server.SetSessionLimits). The zero value imposes no limits.
	SessionLimits = store.SessionLimits
	// SessionRegistry tracks live sessions and admission counters.
	SessionRegistry = store.SessionRegistry
)

// Namespaced scopes a Service to a database namespace: every object name,
// batch operation, and reveal tag is prefixed with db + "/". An empty db
// returns svc unchanged (the root namespace). The TCP server applies this
// automatically to handshaked sessions; use it directly to host multiple
// tenants on an in-process server.
func Namespaced(svc Service, db string) Service { return store.Namespaced(svc, db) }

// ValidDBName reports whether db is an acceptable database namespace name
// ([A-Za-z0-9._-]+, at most 128 bytes).
func ValidDBName(db string) bool { return store.ValidDBName(db) }

// Protocol selects the attribute-level partition method; the protocols and
// their names are internal/core's one table (core.Protocol).
type Protocol = core.Protocol

// Available protocols.
const (
	// ProtocolSort is the oblivious-sorting method (§IV-D): static
	// databases, constant client memory, high parallelism.
	ProtocolSort = core.ProtocolSort
	// ProtocolORAM is the original ORAM method (§IV-C): static databases
	// plus insertions.
	ProtocolORAM = core.ProtocolORAM
	// ProtocolDynamicORAM is the extended ORAM method (§V): insertions and
	// deletions in O(polylog n) per operation.
	ProtocolDynamicORAM = core.ProtocolDynamicORAM
	// ProtocolPlaintext is the insecure baseline; for benchmarking only.
	ProtocolPlaintext = core.ProtocolPlaintext
	// ProtocolEnclave simulates the sorting protocol inside a server-side
	// secure enclave (§VII-D); for benchmarking only.
	ProtocolEnclave = core.ProtocolEnclave
	// ProtocolDeterministic is the security level of the paper's predecessor
	// (Dong & Wang, ICDE 2017). It LEAKS THE FULL FREQUENCY HISTOGRAM of
	// every attribute: a comparator only, never for sensitive data.
	ProtocolDeterministic = core.ProtocolDeterministic
)

// ProtocolNames lists every name ParseProtocol accepts, separated by "|", for
// help and error texts.
func ProtocolNames() string { return core.ProtocolNames() }

// ParseProtocol parses a protocol name as printed by String.
func ParseProtocol(s string) (Protocol, error) { return core.ParseProtocol(s) }

// Options configures Outsource.
type Options struct {
	// Protocol selects the secure method; default ProtocolSort.
	Protocol Protocol
	// Workers is the parallelism degree of ProtocolSort: the sorting-network
	// worker count and the number of partitions of one lattice level built
	// concurrently. Default 1, the fully serial schedule; values above 1
	// change only the interleaving of accesses across server-side arrays,
	// never any single array's access sequence (see DESIGN.md §11), and with
	// a transport-backed service the connection pool should be at least this
	// large so concurrent builds overlap round trips. ProtocolEnclave builds
	// one set at a time and uses it only inside its sorting network. The ORAM
	// protocols do not use it: they take a lattice level at a time on one
	// goroutine, ⌈n/64⌉ + 2 rounds per group of the level's sets, and show
	// the server the same ordered trace whatever it is.
	Workers int
	// InsertHeadroom reserves capacity for that many future insertions
	// (ProtocolORAM and ProtocolDynamicORAM).
	InsertHeadroom int
	// MaxLHS bounds the searched determinant size; 0 searches the full
	// lattice.
	MaxLHS int
	// KeepPartitions retains all materialized partitions after Discover,
	// required before calling Insert/Delete. ProtocolDynamicORAM sets it
	// implicitly.
	KeepPartitions bool
	// Telemetry, if non-nil, instruments the protocol engine: ORAM access
	// and path counters, sort comparison and stage counters, integrity
	// checks. It is honored by the secure protocols (sort, or-oram,
	// ex-oram); the benchmarking baselines ignore it. Per-level wall time
	// is Trace's.
	Telemetry *Registry
	// Trace, if non-nil, records causal distributed-tracing spans for the
	// lattice traversal (see core.Options.Trace). Share the tracer with
	// the transport ClientConfig so RPC spans — and, through the wire
	// context, server-side spans — nest under the lattice-level spans.
	// Discover sets the tracer's current span while it runs, so one tracer
	// serves one Discover at a time; concurrent runs need a tracer each.
	Trace *Tracer
}

// Database is the client's handle to one outsourced database: it owns the
// encryption key, the uploaded ciphertexts' metadata, and the protocol
// engine.
type Database struct {
	svc      Service
	schema   *Schema
	opts     Options
	engine   core.Engine
	edb      *core.EncryptedDB  // nil for engines without an uploaded ciphertext DB
	resume   *core.LatticeState // set by Resume; consumed by the next Discover*
	m        int
	revealed atomic.Int64
}

// ErrStatic is returned by Insert/Delete on a protocol without dynamic
// support.
var ErrStatic = errors.New("securefd: protocol does not support this mutation")

// Outsource encrypts rel cell by cell, uploads it to the service, and
// returns a handle ready for discovery. A fresh 128-bit key is generated
// per database and never leaves the client.
func Outsource(svc Service, rel *Relation, opts Options) (*Database, error) {
	if rel.NumRows() == 0 {
		return nil, fmt.Errorf("securefd: empty relation")
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	eng, edb, err := core.Open(svc, rel, opts.Protocol, opts.Workers, opts.InsertHeadroom, opts.Telemetry)
	if err != nil {
		return nil, fmt.Errorf("securefd: %w", err)
	}
	return &Database{svc: svc, schema: rel.Schema(), opts: opts, engine: eng, edb: edb, m: rel.NumAttrs()}, nil
}

// Report is the outcome of a Discover run.
type Report struct {
	// Minimal lists the minimal FDs (singleton right-hand sides); every
	// FD of the database is implied by them.
	Minimal []FD
	// Aggregated merges minimal FDs per determinant: the paper's (A, B)
	// pair form with composite right-hand sides.
	Aggregated []FD
	// SetsMaterialized and Checks describe the work performed.
	SetsMaterialized int
	Checks           int
}

// discoverOptions builds the core options for a discovery run, including a
// pending resume frontier if this handle was built by Resume.
func (db *Database) discoverOptions() *core.Options {
	keep := db.opts.KeepPartitions || db.opts.Protocol == ProtocolDynamicORAM
	return &core.Options{
		KeepPartitions: keep,
		MaxLHS:         db.opts.MaxLHS,
		Resume:         db.resume,
		Trace:          db.opts.Trace,
		Reveal: func(decisions []core.Decision) {
			db.revealed.Add(int64(len(decisions)))
			if db.svc == nil {
				return
			}
			ops := make([]store.BatchOp, len(decisions))
			for i, d := range decisions {
				v := int64(0)
				if d.Holds {
					v = 1
				}
				ops[i] = store.RevealOp("fd:"+d.FD.String(), v)
			}
			_, _ = store.DoBatch(db.svc, ops) // a level's reveals, one round
		},
	}
}

// report converts a core result and clears any consumed resume state.
func (db *Database) report(res *core.Result) *Report {
	db.resume = nil
	return &Report{
		Minimal:          res.Minimal,
		Aggregated:       core.AggregateFDs(res.Minimal),
		SetsMaterialized: res.SetsMaterialized,
		Checks:           res.Checks,
	}
}

// Discover runs secure FD discovery and returns the report. Each set-level
// decision is additionally revealed to the server's public log, which is
// exactly the protocol's allowed leakage. On a handle built by Resume, the
// run continues from the checkpointed lattice level instead of starting over.
func (db *Database) Discover() (*Report, error) {
	res, err := core.Discover(db.engine, db.m, db.discoverOptions())
	if err != nil {
		return nil, fmt.Errorf("securefd: %w", err)
	}
	return db.report(res), nil
}

// Validate checks one dependency X → Y (Theorem 1) and returns whether it
// holds.
func (db *Database) Validate(x, y AttrSet) (bool, error) {
	return core.Validate(db.engine, x, y)
}

// Insert adds a record and incrementally updates every materialized
// partition. Supported by ProtocolORAM, ProtocolDynamicORAM, and
// ProtocolPlaintext.
func (db *Database) Insert(row Row) (int, error) {
	eng, ok := db.engine.(interface{ Insert(Row) (int, error) })
	if !ok {
		return 0, fmt.Errorf("%w: Insert with %v", ErrStatic, db.opts.Protocol)
	}
	return eng.Insert(row)
}

// Delete removes the record with the given id. Supported by
// ProtocolDynamicORAM and ProtocolPlaintext.
func (db *Database) Delete(id int) error {
	eng, ok := db.engine.(core.DynamicEngine)
	if !ok {
		return fmt.Errorf("%w: Delete with %v", ErrStatic, db.opts.Protocol)
	}
	return eng.Delete(id)
}

// Revalidation is the outcome of re-checking previously discovered FDs
// against the incrementally maintained partitions.
type Revalidation struct {
	// Valid lists the FDs that still hold.
	Valid []FD
	// Invalidated lists the FDs broken by the mutations since discovery.
	Invalidated []FD
}

// Revalidate re-checks the given dependencies using the cached partition
// cardinalities maintained across Insert and Delete. This is the dynamic
// protocol's payoff (Definition 5): after k mutations, re-validating an FD
// costs O(1) here — the maintenance was already paid at O(log n) per
// mutation — instead of the trivial Ω(n) re-scan.
//
// Every FD's partitions must still be materialized (run Discover first with
// a dynamic protocol, which retains them). FDs whose partitions are missing
// produce an error.
//
// Revalidate decides only the FDs it is given. To find the FDs a deletion
// creates (or the minimal ones an insertion leaves), call Discover again: on
// a dynamic protocol it re-decides every candidate from the maintained
// cardinalities and builds only the partitions no earlier discovery built,
// taking no round at all when the lattice needs none.
func (db *Database) Revalidate(fds []FD) (*Revalidation, error) {
	out := &Revalidation{}
	for _, fd := range fds {
		union := fd.LHS.Union(fd.RHS)
		cardLHS, ok := db.engine.Cardinality(fd.LHS)
		if !ok && !fd.LHS.IsEmpty() {
			return nil, fmt.Errorf("securefd: partition %v not materialized; run Discover with a dynamic protocol first", fd.LHS)
		}
		if fd.LHS.IsEmpty() {
			cardLHS = 1
		}
		cardUnion, haveUnion := db.engine.Cardinality(union)
		var holds bool
		switch {
		case haveUnion:
			holds = cardLHS == cardUnion
		case cardLHS == db.NumRows():
			// The LHS is (still) a superkey, which determines every
			// attribute. FDs harvested by key pruning land here: their
			// union partition was never materialized.
			holds = true
		default:
			// The union partition is gone and the superkey shortcut
			// fails; fall back to a full oblivious validation.
			var err error
			holds, err = core.Validate(db.engine, fd.LHS, fd.RHS)
			if err != nil {
				return nil, fmt.Errorf("securefd: revalidating %v: %w", fd, err)
			}
		}
		if holds {
			out.Valid = append(out.Valid, fd)
		} else {
			out.Invalidated = append(out.Invalidated, fd)
		}
	}
	return out, nil
}

// Update replaces the record with the given id by a new row, returning the
// new record's id. As in the paper (§V, footnote 1), an update is the
// composition of a deletion and an insertion; it needs a dynamic protocol.
func (db *Database) Update(id int, row Row) (int, error) {
	if err := db.Delete(id); err != nil {
		return 0, err
	}
	newID, err := db.Insert(row)
	if err != nil {
		return 0, fmt.Errorf("securefd: update deleted record %d but could not reinsert: %w", id, err)
	}
	return newID, nil
}

// NumRows returns the live record count.
func (db *Database) NumRows() int { return db.engine.NumRows() }

// Schema returns the database schema.
func (db *Database) Schema() *Schema { return db.schema }

// Cardinality returns the cached |π_X| for a materialized attribute set.
func (db *Database) Cardinality(x AttrSet) (int, bool) { return db.engine.Cardinality(x) }

// ClientMemoryBytes estimates the client-held protocol state (position
// maps, stashes); the sorting protocol's is constant.
func (db *Database) ClientMemoryBytes() int { return db.engine.ClientMemoryBytes() }

// Close releases all server-side protocol state for this database.
func (db *Database) Close() error { return db.engine.Close() }
