package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"sync"
	"sync/atomic"

	"github.com/oblivfd/oblivfd/internal/otrace"
	"github.com/oblivfd/oblivfd/internal/telemetry"
	"github.com/oblivfd/oblivfd/internal/trace"
)

// Primary/replica replication with fenced failover.
//
// A ReplicatedServer wraps a DurableServer in one of two roles. The primary
// serves clients and, after each locally durable mutation, ships the same
// CRC-framed WAL record to every configured replica over the transport's
// replication stream. A replica refuses client operations (ErrNotPrimary)
// and applies shipped records through its own durable layer, so its
// directory recovers to exactly the primary's state at the last applied
// record — promotion is just flipping the role.
//
// Ordering. The primary holds its ship mutex across apply-then-ship, so the
// ship order equals the WAL order equals the order clients observed. Each
// shipment carries a sequence number (records shipped this reign, before the
// batch); the replica requires it to equal its own applied count and answers
// ErrIntegrity on any gap, torn frame, or CRC mismatch — it never applies a
// prefix of a damaged batch. The primary heals a divergent or freshly
// (re)connected replica by pushing a full snapshot (SyncSnapshot) and
// resuming the stream from its current position.
//
// Fencing. Promotion is guarded by a monotonic fencing epoch, persisted in
// a FENCE file (and mirrored into the WAL as an audit record) before the
// role changes hands. Every hello and replication message carries the
// sender's fence; a server that learns of a higher fence deposes itself and
// answers every subsequent client operation with ErrFenced — a deposed
// primary cannot fork the history its successor continued, even across its
// own restarts, because the FENCE file records that it lost the role.
//
// Availability model. Shipping is best-effort: a down replica never blocks
// the primary (the discovery run keeps its availability), it just falls
// behind and is resynced by snapshot when it returns. A dead peer fails
// fast at dial; a hung peer (connection open, nothing answering) costs at
// most one ship deadline — the dialer's call timeout, which fdserver keeps
// short for replication connections — before it is marked down and skipped
// until the redial cadence, and even that stall is confined to writers:
// shipping happens outside the role mutex, so reads, Stats probes (which
// failover depends on), and fence observations never wait behind a slow
// peer. The cost is that a failover to a behind replica loses the
// unshipped suffix — which the single-writer client immediately detects
// (its ORAM state no longer matches) and repairs through the same
// retry/reconcile path it uses after a redial. See DESIGN.md §13 for the
// leakage argument.

// ReplicaConn is the primary's view of one peer: the three replication
// RPCs. *transport.Client implements it.
type ReplicaConn interface {
	// Replicate ships framed WAL records; seq is the shipper's count of
	// records shipped this reign before this batch.
	Replicate(fence, seq int64, frames [][]byte) error
	// SyncSnapshot replaces the replica's entire state and repositions its
	// stream cursor at seq.
	SyncSnapshot(fence, seq int64, snap []byte) error
	// FetchRepair fetches checksum-verified ciphertexts from the peer to
	// heal local corruption.
	FetchRepair(fence int64, name string, idx []int64) ([][]byte, error)
	Close() error
}

// ReplicaDialer opens a replication connection to a peer address.
type ReplicaDialer func(addr string) (ReplicaConn, error)

// ReplicationConfig parameterizes Replicated.
type ReplicationConfig struct {
	// Primary selects the initial role. A FENCE file recording a lost
	// primaryship overrides it (the server boots deposed).
	Primary bool
	// Fence is the initial fencing epoch; a primary defaults to 1. A higher
	// fence recorded in the FENCE file wins. Operators force-promote a
	// server by restarting it with a fence above the cluster's highest.
	Fence int64
	// Peers are the replication addresses of the other cluster members.
	Peers []string
	// Dial opens replication connections; required when Peers is non-empty.
	Dial ReplicaDialer
	// RedialEvery is the cadence, in shipped records, at which a down peer
	// is re-dialed (default 32; 1 retries on every mutation).
	RedialEvery int
	// Metrics, when set, exposes replication lag and ship/resync counters,
	// plus the role/fence/watermark gauges both roles publish (replicas
	// included — /healthz was previously the only place a replica reported
	// them).
	Metrics *telemetry.Registry
	// Trace, when set, records spans for per-peer shipments
	// (repl/ship:<addr>), snapshot resyncs (repl/resync:<addr>), and
	// replica-side batch applies (repl/apply), parented under the span of
	// the op that caused them (Op.Parent). A shipment makes its span, and a
	// repair its op's, the tracer's current span while it runs, so the
	// replication RPCs of a ReplicaConn dialed with the same tracer nest
	// under it.
	Trace *otrace.Tracer
}

// replicaPeer is the primary's bookkeeping for one replica. conn and downAt
// are guarded by the owning server's shipMu; acked is atomic so lag reads
// (probes, telemetry) never wait behind an in-flight shipment.
type replicaPeer struct {
	addr   string
	conn   ReplicaConn
	acked  atomic.Int64 // stream position the peer has confirmed
	downAt int64        // shipped count when the conn last failed (redial cadence)
}

// ReplicatedServer decorates a DurableServer with a replication role. It
// is a Handler behind an Adapter, like every layer; its role methods, from
// IsPrimary to FetchRepair, are what a transport server drives on behalf of
// remote primaries and failover clients (transport.Server.SetReplicator).
//
// Locking: shipMu serializes mutations and their shipments, so the stream
// order equals the WAL order; it is the only lock held across replication
// network calls. mu guards the role state and the replica-side stream
// cursor and is held only for memory operations, so role probes and client
// reads proceed while a shipment is in flight. Lock order is shipMu before
// mu; the durable layer's own locks nest innermost.
type ReplicatedServer struct {
	Adapter
	d   *DurableServer
	cfg ReplicationConfig

	shipMu  sync.Mutex
	peers   []*replicaPeer
	shipped atomic.Int64 // records shipped this reign (primary side)

	mu        sync.Mutex
	primary   bool
	deposed   bool // held the primary role under an older fence and lost it
	fence     int64
	watermark int64 // records applied this reign (replica side)

	repaired atomic.Int64 // corrupt cells healed from a peer (MTTR bench + harness)

	lagGauge     *telemetry.Gauge
	peersGauge   *telemetry.Gauge
	ships        *telemetry.Counter
	shipFailures *telemetry.Counter
	resyncs      *telemetry.Counter
	applied      *telemetry.Counter
	repairs      *telemetry.Counter
	// Role-state gauges published by both roles (not just the shipping
	// primary): 0/1 role flag, fencing epoch, and stream position.
	roleGauge      *telemetry.Gauge
	fenceGauge     *telemetry.Gauge
	watermarkGauge *telemetry.Gauge
}

const fenceFile = "FENCE"

// loadFence reads <dir>/FENCE ("<fence> <primary|replica>"). ok is false
// when the file does not exist (a never-replicated directory).
func loadFence(fsys FS, dir string) (fence int64, primary bool, ok bool, err error) {
	raw, rerr := fsys.ReadFile(filepath.Join(dir, fenceFile))
	if rerr != nil {
		if os.IsNotExist(rerr) {
			return 0, false, false, nil
		}
		return 0, false, false, rerr
	}
	fields := strings.Fields(string(raw))
	if len(fields) != 2 {
		return 0, false, false, fmt.Errorf("%w: malformed FENCE file %q", ErrIntegrity, string(raw))
	}
	fence, perr := strconv.ParseInt(fields[0], 10, 64)
	if perr != nil {
		return 0, false, false, fmt.Errorf("%w: malformed FENCE file %q", ErrIntegrity, string(raw))
	}
	return fence, fields[1] == "primary", true, nil
}

// saveFence durably records the fence and role (ReplaceFile), the same
// discipline as snapshots: the role change must not be observable before it
// is durable, or a crash could resurrect a deposed primary.
func saveFence(fsys FS, dir string, fence int64, primary bool) error {
	role := "replica"
	if primary {
		role = "primary"
	}
	return ReplaceFile(fsys, filepath.Join(dir, fenceFile), "fence-*.tmp", func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%d %s\n", fence, role)
		return err
	})
}

// Replicated wraps d with the given replication role. The FENCE file in d's
// directory, when present, can only demote relative to cfg: a server that
// durably lost the primary role boots deposed even if its flags still say
// -replicas, unless the operator hands it a strictly higher fence.
func Replicated(d *DurableServer, cfg ReplicationConfig) (*ReplicatedServer, error) {
	if cfg.RedialEvery <= 0 {
		cfg.RedialEvery = 32
	}
	if len(cfg.Peers) > 0 && cfg.Dial == nil {
		return nil, errors.New("store: replication peers configured without a dialer")
	}
	fence, primary := cfg.Fence, cfg.Primary
	if fence <= 0 {
		// Fencing epochs start at 1 for every replicated role, so a probe
		// can tell a replicated server (Stats.Fence > 0) from a plain one.
		fence = 1
	}
	fileFence, filePrimary, ok, err := loadFence(d.fsys, d.Dir())
	if err != nil {
		return nil, err
	}
	if ok {
		if fileFence > fence {
			// The directory has lived under a higher fence than the flags
			// know about; whoever held it last decides the role.
			fence = fileFence
			primary = primary && filePrimary
		} else if fileFence == fence && !filePrimary {
			// Same epoch, durably recorded as lost: stay deposed.
			primary = false
		}
	}
	r := &ReplicatedServer{
		d:       d,
		cfg:     cfg,
		primary: primary,
		deposed: cfg.Primary && !primary,
		fence:   fence,
		// Nil-safe handles (see DurableServer).
		lagGauge:     cfg.Metrics.Gauge("oblivfd_replication_lag_records"),
		peersGauge:   cfg.Metrics.Gauge("oblivfd_replicas_connected"),
		ships:        cfg.Metrics.Counter("oblivfd_replication_ships_total"),
		shipFailures: cfg.Metrics.Counter("oblivfd_replication_ship_failures_total"),
		resyncs:      cfg.Metrics.Counter("oblivfd_replication_resyncs_total"),
		applied:      cfg.Metrics.Counter("oblivfd_replication_records_applied_total"),
		repairs:      cfg.Metrics.Counter("oblivfd_repairs_total"),

		roleGauge:      cfg.Metrics.Gauge("oblivfd_replication_role"),
		fenceGauge:     cfg.Metrics.Gauge("oblivfd_replication_fence"),
		watermarkGauge: cfg.Metrics.Gauge("oblivfd_replication_watermark"),
	}
	r.Adapter = Adapt(r.handle)
	r.publishRoleLocked()
	for _, addr := range cfg.Peers {
		r.peers = append(r.peers, &replicaPeer{addr: addr, downAt: -int64(cfg.RedialEvery)})
	}
	if err := saveFence(d.fsys, d.Dir(), fence, primary); err != nil {
		return nil, err
	}
	if err := d.mutate(fenceRecord(fence, primary)); err != nil && !errors.Is(err, ErrServerKilled) {
		return nil, err
	}
	return r, nil
}

// fenceRecord is the log's audit record of a fence adopted with a role.
func fenceRecord(fence int64, primary bool) *Op {
	role := "replica"
	if primary {
		role = "primary"
	}
	return &Op{Kind: KindPromote, Name: role, Value: fence}
}

// Durable returns the wrapped durable backend (harness access).
func (r *ReplicatedServer) Durable() *DurableServer { return r.d }

// Trace forwards the adversary recorder (fdserver's decorators need it).
func (r *ReplicatedServer) Trace() *trace.Recorder { return r.d.Trace() }

// Dir returns the data directory path.
func (r *ReplicatedServer) Dir() string { return r.d.Dir() }

// publishRoleLocked mirrors the role state into the gauges so replicas —
// which never run ship() — still report role, fence, and watermark on
// /metrics and /metrics.json, matching what /healthz says. Called wherever
// the state changes; caller holds r.mu (or has exclusive access during
// construction). Nil-safe when metrics are off.
func (r *ReplicatedServer) publishRoleLocked() {
	role := int64(0)
	if r.primary && !r.deposed {
		role = 1
	}
	r.roleGauge.Set(role)
	r.fenceGauge.Set(r.fence)
	r.watermarkGauge.Set(r.watermark)
}

// gateLocked admits client operations only on a live primary.
func (r *ReplicatedServer) gateLocked() error {
	if r.deposed {
		return fmt.Errorf("%w (fence %d)", ErrFenced, r.fence)
	}
	if !r.primary {
		return ErrNotPrimary
	}
	return nil
}

// adoptFenceLocked durably adopts a new fence and role. Order matters: the
// FENCE file first (if that fails, nothing changed), memory second, the WAL
// audit record last and best-effort (a crash-injected kill must not block a
// role change that is already durable in the FENCE file).
func (r *ReplicatedServer) adoptFenceLocked(fence int64, becomePrimary bool) error {
	if err := saveFence(r.d.fsys, r.d.Dir(), fence, becomePrimary); err != nil {
		return err
	}
	wasPrimary := r.primary
	r.fence = fence
	r.primary = becomePrimary
	if becomePrimary {
		r.deposed = false
	} else if wasPrimary {
		r.deposed = true
	}
	if err := r.d.mutate(fenceRecord(fence, becomePrimary)); err != nil && !errors.Is(err, ErrServerKilled) {
		return err
	}
	r.publishRoleLocked()
	return nil
}

// depose records that a higher fence exists somewhere (exact value
// unknown, e.g. a replica answered ErrFenced to a shipment): the current
// role is lost at the current fence.
func (r *ReplicatedServer) depose() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.primary {
		return
	}
	// Best-effort durability: even if the file write fails the in-memory
	// depose holds, and the successor's higher fence will fence this server
	// again on any future contact.
	_ = saveFence(r.d.fsys, r.d.Dir(), r.fence, false)
	r.primary = false
	r.deposed = true
	r.publishRoleLocked()
}

// IsPrimary reports whether the server holds the primary role: it was
// started or promoted as primary and no higher fence has deposed it.
func (r *ReplicatedServer) IsPrimary() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.primary && !r.deposed
}

// Fence returns the current fencing epoch.
func (r *ReplicatedServer) Fence() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fence
}

// Watermark returns the replica-side stream position: the replicated records
// applied this reign.
func (r *ReplicatedServer) Watermark() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.watermark
}

// ObserveFence records that a higher fencing epoch exists; the server
// deposes itself if it believed it was primary at a lower one.
func (r *ReplicatedServer) ObserveFence(fence int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if fence <= r.fence {
		return nil
	}
	return r.adoptFenceLocked(fence, false)
}

// Promote adopts the given fence and the primary role, and returns the fence
// it holds after: a failover client (or operator) hands the replica a fence
// strictly above every fence it has seen, and the replica becomes the primary
// for that epoch; any other fence fails with ErrFenced. The stream cursor
// continues from the local watermark: peers that were equally in sync need no
// resync, and any peer whose position differs answers ErrIntegrity on the
// first shipment and is snapshot-synced.
func (r *ReplicatedServer) Promote(fence int64) (int64, error) {
	r.shipMu.Lock()
	defer r.shipMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if fence <= r.fence {
		return r.fence, fmt.Errorf("%w: promotion fence %d not above current %d", ErrFenced, fence, r.fence)
	}
	if err := r.adoptFenceLocked(fence, true); err != nil {
		return r.fence, err
	}
	r.shipped.Store(r.watermark)
	for _, p := range r.peers {
		p.acked.Store(r.watermark)
		p.downAt = r.watermark - int64(r.cfg.RedialEvery) // retry dials immediately
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
		}
	}
	return r.fence, nil
}

// acceptFenceLocked validates the fence on an incoming replication message.
func (r *ReplicatedServer) acceptFenceLocked(fence int64) error {
	switch {
	case fence < r.fence:
		return fmt.Errorf("%w: shipment fence %d below local %d", ErrFenced, fence, r.fence)
	case fence > r.fence:
		// A newer primary exists; adopt its fence (deposing ourselves if we
		// believed we held the role).
		return r.adoptFenceLocked(fence, false)
	case r.primary && !r.deposed:
		// Same fence from another server claiming primaryship: split-brain
		// within one epoch is a configuration error; refuse the stream.
		return fmt.Errorf("%w: two primaries at fence %d", ErrFenced, fence)
	}
	return nil
}

// ApplyReplicated applies a batch of framed WAL records shipped by the primary
// at the given fence and stream position, under the parent span (the zero
// context: the tracer's current span), and returns the new watermark (records
// applied this reign). The whole batch is CRC-verified and decoded before any
// record applies: a torn or bit-flipped stream yields ErrIntegrity with zero
// state change, and the primary responds by pushing a snapshot resync. A
// sequence gap (seq != watermark) is handled the same way — the replica never
// guesses at missing records. Each record then goes through the replica's
// durable layer with replay semantics (a create replaces, a delete of nothing
// succeeds), and what lands in the replica's log is the verified frame as
// received, byte for byte the primary's.
func (r *ReplicatedServer) ApplyReplicated(parent otrace.SpanContext, fence, seq int64, frames [][]byte) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.acceptFenceLocked(fence); err != nil {
		return r.watermark, err
	}
	if seq != r.watermark {
		return r.watermark, fmt.Errorf("%w: replication stream position %d, local watermark %d", ErrIntegrity, seq, r.watermark)
	}
	records := make([]*Op, 0, len(frames))
	for i, frame := range frames {
		payload, err := checkWALFrame(frame)
		if err != nil {
			return r.watermark, fmt.Errorf("%w: replication frame %d of %d failed CRC validation", ErrIntegrity, i, len(frames))
		}
		op, err := decodeWALPayload(payload)
		if err != nil {
			return r.watermark, fmt.Errorf("%w: replication frame %d of %d: %v", ErrIntegrity, i, len(frames), err)
		}
		records = append(records, op)
	}
	asp := r.cfg.Trace.StartChild("repl/apply", parent)
	defer asp.End()
	for i, op := range records {
		if op.Kind != KindPromote { // roles are not replicated
			op.Parent = asp.Context()
			if err := r.d.applyFramed(op, frames[i], true); err != nil {
				r.publishRoleLocked()
				return r.watermark, err
			}
		}
		r.watermark++
		r.applied.Inc()
	}
	r.publishRoleLocked()
	return r.watermark, nil
}

// ApplySync replaces the whole state from a snapshot shipped by the primary
// and repositions the stream cursor at seq: a full-state resync.
func (r *ReplicatedServer) ApplySync(fence, seq int64, snap []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.acceptFenceLocked(fence); err != nil {
		return err
	}
	if err := r.d.ResetFromSnapshot(bytes.NewReader(snap)); err != nil {
		return err
	}
	r.watermark = seq
	r.publishRoleLocked()
	return nil
}

// FetchRepair serves checksum-verified ciphertexts to a peer healing
// corruption: the donor side of repair-from-replica. Any role answers — a
// replica's healthy copy is exactly what a corrupt primary needs — but the
// requester's fence must be current, so a fenced-off ex-primary cannot pull
// state it no longer owns, and the bytes are re-verified against the local
// checksums before they leave (a donor never propagates its own rot; it answers
// ErrIntegrity instead and heals itself through its own scrubber).
func (r *ReplicatedServer) FetchRepair(fence int64, name string, idx []int64) ([][]byte, error) {
	r.mu.Lock()
	if err := r.acceptFenceLocked(fence); err != nil {
		r.mu.Unlock()
		return nil, err
	}
	r.mu.Unlock()
	return r.d.StoredVerified(name, idx)
}

// RepairStored heals corrupt cells on the primary by fetching verified
// bytes from the freshest peer that has them, re-installing locally (WAL
// record included, so the heal survives a restart), and shipping the same
// record so replicas converge. It fails — wrapping ErrIntegrity, the same
// fatal class PR 4 established — when no reachable peer holds a healthy
// copy: self-healing must never degrade fail-loudly into silent corruption.
// The repair's spans start under parent, the span of the op that found the
// corruption (the zero context for the scrubber, whose repairs are roots).
func (r *ReplicatedServer) RepairStored(parent otrace.SpanContext, name string, idx []int64) error {
	r.shipMu.Lock()
	defer r.shipMu.Unlock()
	return r.repairStoredLocked(parent, name, idx)
}

// repairStoredLocked is RepairStored with shipMu already held (a Batch
// repairs mid-batch without releasing the stream order lock). While it runs,
// parent is the tracer's current span, so the FetchRepair RPC nests under
// the op that found the corruption, as do the repair's log append and
// shipment.
func (r *ReplicatedServer) repairStoredLocked(parent otrace.SpanContext, name string, idx []int64) error {
	up := r.cfg.Trace.SetCurrent(parent)
	defer r.cfg.Trace.SetCurrent(up)
	r.mu.Lock()
	if err := r.gateLocked(); err != nil {
		r.mu.Unlock()
		return err
	}
	fence := r.fence
	r.mu.Unlock()

	// Freshest-acked peer first: the peer with the highest confirmed stream
	// position is least likely to be missing the object entirely.
	order := append([]*replicaPeer(nil), r.peers...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].acked.Load() > order[j].acked.Load() })
	lastErr := errors.New("no replicas configured")
	for _, p := range order {
		if p.conn == nil {
			conn, err := r.cfg.Dial(p.addr)
			if err != nil {
				lastErr = err
				continue
			}
			p.conn = conn
		}
		cts, err := p.conn.FetchRepair(fence, name, idx)
		if err != nil {
			if errors.Is(err, ErrFenced) {
				r.depose()
				return fmt.Errorf("%w: deposed during repair of %q", ErrFenced, name)
			}
			lastErr = err
			continue
		}
		rec := &Op{Kind: KindRepair, Name: name, Idx: idx, Cts: cts, Parent: parent}
		frame, err := encodeWALRecord(rec)
		if err != nil {
			return err
		}
		if aerr := r.d.applyFramed(rec, frame, false); aerr != nil {
			// A full disk parks the record rather than appending it; the
			// in-memory install may still have landed, in which case the
			// repair stands for readers now and becomes durable when the
			// parked queue drains. Only a repair that left the cells corrupt
			// is a failure.
			healed := false
			if errors.Is(aerr, ErrDiskFull) {
				_, verr := r.d.StoredVerified(name, idx)
				healed = verr == nil
			}
			if !healed {
				return aerr
			}
		}
		r.repaired.Add(int64(len(idx)))
		r.repairs.Add(int64(len(idx)))
		slog.Warn("store: repaired corrupt cells from replica",
			"object", name, "cells", len(idx), "peer", p.addr)
		r.ship(parent, fence, [][]byte{frame})
		return nil
	}
	return fmt.Errorf("%w: %q cells %v corrupt and no healthy replica copy reachable: %v",
		ErrIntegrity, name, idx, lastErr)
}

// Repairs reports how many cells have been healed from peers since start.
func (r *ReplicatedServer) Repairs() int64 { return r.repaired.Load() }

// MarkDiverged is the replica-side repair path: it poisons the replica's
// stream position so the primary's next shipment fails the sequence check
// and triggers the existing snapshot resync, replacing every local byte
// with the primary's verified state. (The poisoned watermark also demotes
// this replica in failover elections — a known-corrupt replica must not win
// a promotion on freshness.) No-op on a live primary.
func (r *ReplicatedServer) MarkDiverged() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.primary && !r.deposed {
		return
	}
	r.watermark = -1
	r.publishRoleLocked()
	slog.Warn("store: replica marked diverged — awaiting snapshot resync from primary")
}

// ship sends frames to every peer at the fence they were applied under
// (never the current fence: a fence adopted between apply and ship must
// not launder a deposed server's record into the successor's stream — a
// peer at the newer fence refuses the stale shipment instead). Failures
// never fail the client's operation: a peer that cannot be reached is
// marked down and retried at the redial cadence; a peer whose stream
// position diverged is healed with a full snapshot push; a peer that
// answers ErrFenced deposes us. The shipment's spans start under parent, the
// span of the op whose records these are. Caller holds shipMu, never mu.
func (r *ReplicatedServer) ship(parent otrace.SpanContext, fence int64, frames [][]byte) {
	if len(r.peers) == 0 || len(frames) == 0 {
		return
	}
	seq := r.shipped.Load()
	shipped := seq + int64(len(frames))
	r.shipped.Store(shipped)
	connected := int64(0)
	for _, p := range r.peers {
		// One span per peer per shipment: this is the unit an operator
		// wants visible when asking "which replica stalled this level".
		// It is the tracer's current span while it lasts, so the Replicate
		// RPC (and through its wire context, the replica's apply spans)
		// parent under it — one causal chain from the client's mutation to
		// the replica's WAL. shipMu makes it the only shipment in flight.
		ssp := r.cfg.Trace.StartChild("repl/ship:"+p.addr, parent)
		up := r.cfg.Trace.SetCurrent(ssp.Context())
		endShip := func() { r.cfg.Trace.SetCurrent(up); ssp.End() }
		if p.conn == nil {
			if shipped-p.downAt < int64(r.cfg.RedialEvery) {
				endShip()
				continue
			}
			conn, err := r.cfg.Dial(p.addr)
			if err != nil {
				p.downAt = shipped
				r.shipFailures.Inc()
				endShip()
				continue
			}
			p.conn = conn
			// A fresh connection's position is unknown; the seq check on the
			// first shipment sorts it out (ErrIntegrity -> snapshot sync).
		}
		err := p.conn.Replicate(fence, seq, frames)
		switch {
		case err == nil:
			p.acked.Store(shipped)
			r.ships.Inc()
			connected++
		case errors.Is(err, ErrFenced):
			// The peer knows a higher fence: we are no longer the primary.
			r.depose()
			r.shipFailures.Inc()
			endShip()
			return
		case errors.Is(err, ErrIntegrity):
			if r.syncPeer(fence, p) {
				connected++
			}
		default:
			p.conn.Close()
			p.conn = nil
			p.downAt = shipped
			r.shipFailures.Inc()
		}
		endShip()
	}
	r.peersGauge.Set(connected)
	r.lagGauge.Set(r.maxLag())
}

// syncPeer pushes a full snapshot to a diverged peer and reports whether it
// ended the call in sync. Caller holds shipMu.
func (r *ReplicatedServer) syncPeer(fence int64, p *replicaPeer) bool {
	defer r.cfg.Trace.Start("repl/resync:" + p.addr).End()
	shipped := r.shipped.Load()
	snap, err := r.d.SnapshotBytes()
	if err == nil {
		err = p.conn.SyncSnapshot(fence, shipped, snap)
	}
	if err != nil {
		if errors.Is(err, ErrFenced) {
			r.depose()
		}
		p.conn.Close()
		p.conn = nil
		p.downAt = shipped
		r.shipFailures.Inc()
		return false
	}
	p.acked.Store(shipped)
	r.resyncs.Inc()
	return true
}

// maxLag is the stream distance of the slowest configured peer. The peer
// table is fixed at construction and the positions are atomic, so no lock
// is needed — probes stay responsive while a shipment is in flight.
func (r *ReplicatedServer) maxLag() int64 {
	shipped := r.shipped.Load()
	var lag int64
	for _, p := range r.peers {
		if d := shipped - p.acked.Load(); d > lag {
			lag = d
		}
	}
	return lag
}

// ReplicaLag returns the primary-side maximum replication lag in records.
func (r *ReplicatedServer) ReplicaLag() int64 {
	return r.maxLag()
}

// handle serves one client operation. Stats answers on any role — the
// failover layer probes it to find the primary and the freshest replica;
// everything else only on the live primary. Mutations (an epoch mark
// included, so a replica snapshots at the same epochs the primary does and
// the "last epoch snapshot" a resync falls back to exists on both sides) are
// logged and shipped; reveals are part of the adversary's trace at the server
// that observed them, not recoverable state, so they are served like reads
// and not replicated.
func (r *ReplicatedServer) handle(op *Op, res *Result) error {
	switch {
	case op.Kind == KindStats:
		if err := r.d.Do(op, res); err != nil {
			return err
		}
		r.annotate(&res.Stats)
		return nil
	case op.Kind == KindBatch:
		return r.batch(op, res)
	case op.Kind.info().mutates:
		return r.mutate(op)
	}
	return r.read(op, res, r.RepairStored)
}

// apply gates one record onto the live primary and applies it through the
// durable layer, returning the frame to ship and the fence it applied under.
// The record is encoded once, here, before it applies: the durable layer
// appends these bytes and every peer is sent them, and an encoding failure
// rejects the operation outright rather than applying a record that could
// never ship — a divergence the stream position check would never see, since
// shipped would not advance either. Caller holds shipMu.
func (r *ReplicatedServer) apply(op *Op) (frame []byte, fence int64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.gateLocked(); err != nil {
		return nil, 0, err
	}
	if frame, err = encodeWALRecord(op); err != nil {
		return nil, 0, err
	}
	if err := r.d.applyFramed(op, frame, false); err != nil {
		return nil, 0, err
	}
	return frame, r.fence, nil
}

// mutate applies a record and synchronously ships it before acknowledging
// the client — an acknowledged write is on every reachable replica, the
// invariant the failover harness leans on. shipMu spans the whole call so the
// stream order is the WAL order; mu is released before the network calls so a
// slow peer stalls only writers.
func (r *ReplicatedServer) mutate(op *Op) error {
	r.shipMu.Lock()
	defer r.shipMu.Unlock()
	frame, fence, err := r.apply(op)
	if err != nil {
		return err
	}
	r.ship(op.Parent, fence, [][]byte{frame})
	return nil
}

// maxReadRepairs bounds how often one read repairs and reads again. One
// round heals whatever the first read reported; a further round is only
// needed when cells rot again — or others on the same path do — between a
// repair and its re-read, which takes an injector, so a handful is plenty and
// a store that rots faster than that deserves the loud failure.
const maxReadRepairs = 4

// read serves a non-mutating operation, gated onto the primary: a replica's
// state may be mid-batch relative to the primary's, and the client's ORAM
// position map is coupled to the single linearized history only the primary
// serves. A read that hits corrupt stored cells heals them from a peer
// (repair is RepairStored, or its shipMu-held form inside a batch) and reads
// again, for as long as each repair succeeds and the re-read reports fresh
// corruption, up to maxReadRepairs. The client sees ErrIntegrity only when no
// healthy copy exists (the PR 4 fail-loudly contract): with no peers the
// read's own error is returned, and a failed repair returns the repair's
// error — which keeps a disk-full shed retryable (ErrDiskFull) instead of
// laundering it into the fatal ErrIntegrity the read started with.
func (r *ReplicatedServer) read(op *Op, res *Result, repair func(parent otrace.SpanContext, name string, idx []int64) error) error {
	for repairs := 0; ; repairs++ {
		r.mu.Lock()
		err := r.gateLocked()
		r.mu.Unlock()
		if err != nil {
			return err
		}
		err = r.d.Do(op, res)
		var cce *CorruptCellsError
		if !errors.As(err, &cce) || len(r.peers) == 0 || repairs == maxReadRepairs {
			return err
		}
		if err := repair(op.Parent, cce.Object, cce.Idx); err != nil {
			return err
		}
	}
}

// batch applies a Batch's ops one by one through the durable layer (each
// write landing in the WAL) and ships the writes to every replica as a single
// Replicate call, so batching cuts replication round trips exactly as it cuts
// client round trips. Whatever applied before a failing op still ships, to
// keep replicas aligned with what applied.
func (r *ReplicatedServer) batch(op *Op, res *Result) (err error) {
	r.shipMu.Lock()
	defer r.shipMu.Unlock()
	var (
		fence  int64
		frames [][]byte
	)
	flush := func() {
		r.ship(op.Parent, fence, frames)
		frames = nil
	}
	defer flush()
	res.Batch, err = eachBatchOp(op, func(sub *Op, subres *Result) error {
		if !sub.Kind.info().mutates {
			// Mid-batch corruption repairs inline (shipMu is already held).
			// The batch's pending frames ship first so the donor replica
			// reflects every write this batch already applied — repairing
			// against a peer that lags the unshipped writes could install
			// stale bytes.
			return r.read(sub, subres, func(parent otrace.SpanContext, name string, idx []int64) error {
				flush()
				return r.repairStoredLocked(parent, name, idx)
			})
		}
		frame, f, err := r.apply(sub)
		if err != nil {
			return err
		}
		// Every write of one batch applies under one fence: adopting another
		// deposes this server, and the next op's gate ends the batch.
		fence, frames = f, append(frames, frame)
		return nil
	})
	return err
}

func (r *ReplicatedServer) annotate(st *Stats) {
	r.mu.Lock()
	st.Primary = r.primary && !r.deposed
	st.Fence = r.fence
	st.Watermark = r.watermark
	r.mu.Unlock()
	st.ReplicaLag = r.maxLag()
}

// Snapshot forwards to the durable layer (graceful shutdown).
func (r *ReplicatedServer) Snapshot() error { return r.d.Snapshot() }

// Close closes replication connections and the durable layer.
func (r *ReplicatedServer) Close() error {
	r.shipMu.Lock()
	for _, p := range r.peers {
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
		}
	}
	r.shipMu.Unlock()
	return r.d.Close()
}
