// Command fdserver runs the untrusted storage server S: it holds only
// ciphertexts and answers the storage protocol over TCP. Pair it with
// fddiscover -connect (or any securefd.DialTCP client) to reproduce the
// paper's two-machine deployment (§VII-A). The protocol includes fused batch
// frames (one message carrying many cell operations, applied in order),
// so clients that batch pay network round trips per batch, not per cell.
//
//	fdserver -listen :7066
//
// On SIGINT or SIGTERM the server drains: it stops accepting connections,
// lets in-flight requests finish within -grace, then exits. Without
// -data-dir its state lives in memory and ends with the process. With
// -data-dir the server is crash-safe: every mutation is logged to an
// append-only WAL and fsynced before it is acknowledged, client-marked
// epochs become atomic snapshots, shutdown writes a final snapshot, and
// startup recovers the pre-crash state from the newest valid snapshot plus
// the log tail — kill -9 loses nothing. For resilience experiments,
// -fault-rate injects seeded transient storage faults and -drop-rate severs
// live connections mid-call; a client that layers securefd.WithRetry over
// the re-dialing DialTCP transport rides through all of them.
//
// With -metrics-addr the server additionally exposes operator telemetry:
// Prometheus text at /metrics, the same snapshot as JSON at /metrics.json,
// recent distributed-tracing spans as Chrome trace-event JSON at
// /trace.json (Perfetto-loadable), and the Go profiler under
// /debug/pprof/. Everything exported is an operation count, byte size, or
// latency — quantities the storage server observes anyway, so the
// endpoints add nothing to the leakage profile; span contexts ride the
// frame protocol in a fixed-size, always-present header, so enabling
// tracing never changes a frame's length (DESIGN.md §14).
// Logs are human-readable key=value lines by default; -log-json switches
// to one JSON object per line for log shippers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/oblivfd/oblivfd/internal/otrace"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/telemetry"
	"github.com/oblivfd/oblivfd/internal/transport"
)

// config collects the serve options so flags extend without churn.
type config struct {
	listen      string
	latency     time.Duration
	dataDir     string        // durable storage directory (WAL + snapshots)
	grace       time.Duration // drain window for in-flight requests on shutdown
	faultRate   float64       // seeded transient storage error rate
	dropRate    float64       // seeded mid-call connection drop rate
	corruptRate float64       // seeded read-payload corruption rate
	faultSeed   int64
	metricsAddr string // if set, serve /metrics + /metrics.json + /debug/pprof/
	logJSON     bool

	// Distributed tracing (spans exported at /trace.json on -metrics-addr).
	traceSample   int           // record every Nth trace (0 disables tracing)
	traceCapacity int           // span ring-buffer size
	traceSlow     time.Duration // log spans at least this slow (0 = never)

	// Multi-tenant admission control (0 / "" = unlimited or disabled).
	maxSessions  int           // concurrently open sessions
	maxInflight  int           // concurrently executing requests across sessions
	sessionToken string        // shared auth token handshakes must present
	sessionRate  float64       // per-session request rate limit (req/s)
	idleTimeout  time.Duration // evict sessions idle this long

	// Replication (requires -data-dir). A primary ships its WAL to the
	// -replicas peers; a -replica-of server applies that stream and refuses
	// client operations until promoted. A replica may also carry -replicas
	// (its own peer list) so that, once promoted, it ships to the survivors.
	replicas    string        // comma-separated peer addresses to ship to when primary
	replicaOf   string        // primary's address this server replicates (replica role)
	fence       int64         // initial fencing epoch (0 = 1, or whatever FENCE recorded)
	shipTimeout time.Duration // per-shipment deadline on replication calls

	// Background integrity scrubbing (requires -data-dir).
	scrubInterval time.Duration // pause between full sweeps (0 = off)
	scrubRate     int64         // scrub work units per second (cells / KiB)
}

// registerFlags binds fdserver's flags to cfg.
func registerFlags(fs *flag.FlagSet, cfg *config) {
	fs.StringVar(&cfg.listen, "listen", ":7066", "address to listen on")
	fs.DurationVar(&cfg.latency, "latency", 0, "artificial per-operation delay, to model a slower network")
	fs.StringVar(&cfg.dataDir, "data-dir", "", "durable storage directory (WAL + atomic snapshots): crash-safe, recovers on start; without it state lives in memory only")
	fs.DurationVar(&cfg.grace, "grace", 5*time.Second, "drain window for in-flight requests on SIGINT")
	fs.Float64Var(&cfg.faultRate, "fault-rate", 0, "inject transient storage errors at this rate (0..1), for resilience testing")
	fs.Float64Var(&cfg.dropRate, "drop-rate", 0, "sever live connections mid-call at this per-frame rate (0..1)")
	fs.Float64Var(&cfg.corruptRate, "corrupt-rate", 0, "corrupt read payloads at this rate (0..1), modeling a Byzantine server; clients must detect every hit")
	fs.Int64Var(&cfg.faultSeed, "fault-seed", 1, "seed for the deterministic fault/drop schedules")
	fs.StringVar(&cfg.metricsAddr, "metrics-addr", "", "if set, serve Prometheus /metrics, /metrics.json, and /debug/pprof/ on this address")
	fs.BoolVar(&cfg.logJSON, "log-json", false, "log as JSON lines instead of key=value text")
	fs.IntVar(&cfg.traceSample, "trace-sample", 1, "head-sample every Nth trace into the span ring buffer (0 disables tracing)")
	fs.IntVar(&cfg.traceCapacity, "trace-capacity", 4096, "span ring-buffer capacity (must be positive); oldest spans are evicted first")
	fs.DurationVar(&cfg.traceSlow, "trace-slow", 0, "log a structured slow-span event for spans at least this long, sampled or not (0 = never)")
	fs.IntVar(&cfg.maxSessions, "max-sessions", 0, "cap concurrently open client sessions; excess handshakes are refused with a retryable overload error (0 = unlimited)")
	fs.IntVar(&cfg.maxInflight, "max-inflight", 0, "cap requests executing at once across all sessions; excess requests are shed (0 = unlimited)")
	fs.StringVar(&cfg.sessionToken, "session-token", "", "require every session handshake to present this token; sessionless requests are refused while set")
	fs.Float64Var(&cfg.sessionRate, "session-rate", 0, "per-session request rate limit in req/s (0 = unlimited)")
	fs.DurationVar(&cfg.idleTimeout, "idle-timeout", 0, "evict sessions idle this long, freeing their session slots (0 = never)")
	fs.StringVar(&cfg.replicas, "replicas", "", "comma-separated peer addresses to ship the WAL to while primary; on a -replica-of server this takes effect at promotion (requires -data-dir)")
	fs.StringVar(&cfg.replicaOf, "replica-of", "", "address of the primary this server replicates; refuses client ops until promoted (requires -data-dir)")
	fs.Int64Var(&cfg.fence, "fence", 0, "initial fencing epoch; 0 defers to the FENCE file or 1, higher values force-promote past a stale primary")
	fs.DurationVar(&cfg.shipTimeout, "ship-timeout", 5*time.Second, "deadline per replication call; a peer that exceeds it is marked down and resynced by snapshot when it returns")
	fs.DurationVar(&cfg.scrubInterval, "scrub-interval", 0, "background integrity scrub: pause between full sweeps over snapshots, WAL, and stored cells (0 disables; requires -data-dir)")
	fs.Int64Var(&cfg.scrubRate, "scrub-rate", 65536, "scrub rate limit in work units per second (one unit per cell verified or KiB of file scanned; 0 = unlimited)")
}

func main() {
	var cfg config
	registerFlags(flag.CommandLine, &cfg)
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "fdserver:", err)
		os.Exit(1)
	}
}

// run refuses a flag value outside its documented range, rather than clamp
// it or replace it with a default, then serves on the listen address.
func run(cfg config) error {
	switch {
	case !(cfg.faultRate >= 0 && cfg.faultRate <= 1):
		return fmt.Errorf("-fault-rate must be between 0 and 1, got %v", cfg.faultRate)
	case !(cfg.dropRate >= 0 && cfg.dropRate <= 1):
		return fmt.Errorf("-drop-rate must be between 0 and 1, got %v", cfg.dropRate)
	case !(cfg.corruptRate >= 0 && cfg.corruptRate <= 1):
		return fmt.Errorf("-corrupt-rate must be between 0 and 1, got %v", cfg.corruptRate)
	case cfg.shipTimeout <= 0:
		return fmt.Errorf("-ship-timeout must be positive, got %v", cfg.shipTimeout)
	case cfg.traceCapacity <= 0:
		return fmt.Errorf("-trace-capacity must be positive, got %d", cfg.traceCapacity)
	case cfg.traceSample < 0:
		return fmt.Errorf("-trace-sample must be 0 or more, got %d", cfg.traceSample)
	case cfg.scrubRate < 0:
		return fmt.Errorf("-scrub-rate must be 0 or more, got %d", cfg.scrubRate)
	}
	l, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	return serve(l, cfg)
}

// newLogger builds the process logger: text for humans, JSON for shippers.
func newLogger(jsonFormat bool) *slog.Logger {
	if jsonFormat {
		return slog.New(slog.NewJSONHandler(os.Stdout, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stdout, nil))
}

// health is the /healthz and /readyz response body.
type health struct {
	Status         string `json:"status"`
	Role           string `json:"role"` // primary | replica | standalone
	Fence          int64  `json:"fence,omitempty"`
	ReplicationLag int64  `json:"replication_lag,omitempty"`
	Watermark      int64  `json:"watermark,omitempty"`
	Draining       bool   `json:"draining"`
	Degraded       bool   `json:"degraded"` // disk full: read-only, writes shed
	ActiveSessions int    `json:"active_sessions"`
}

// healthSnapshot summarizes liveness and role for the operator endpoints.
func healthSnapshot(durable *store.DurableServer, rep *store.ReplicatedServer, ts *transport.Server) health {
	h := health{
		Status:         "ok",
		Role:           "standalone",
		Draining:       ts.Draining(),
		ActiveSessions: ts.Sessions().Active(),
	}
	if durable != nil && durable.Degraded() {
		h.Degraded = true
		h.Status = "degraded"
	}
	if rep != nil {
		if rep.IsPrimary() {
			h.Role = "primary"
		} else {
			h.Role = "replica"
		}
		h.Fence = rep.Fence()
		h.ReplicationLag = rep.ReplicaLag()
		h.Watermark = rep.Watermark()
	}
	return h
}

// serve runs the server on an established listener until it closes or a
// termination signal drains it.
func serve(l net.Listener, cfg config) error {
	log := newLogger(cfg.logJSON)

	// One registry is shared by every layer: durable storage (WAL/snapshot
	// timings), the service decorators (per-op latency, fault counters),
	// and the RPC server (per-RPC latency, connection and byte counters).
	var reg *telemetry.Registry
	if cfg.metricsAddr != "" {
		reg = telemetry.New()
	}

	// One tracer spans every layer of a request: RPC dispatch, store ops,
	// WAL appends, replication shipping. Its span contexts arrive in the
	// frame protocol's fixed-size header, so client spans and these server
	// spans share trace IDs and merge into one causal tree. Tracing is
	// leakage-neutral by construction (DESIGN.md §14).
	var otr *otrace.Tracer
	if cfg.traceSample > 0 {
		otr = otrace.New(otrace.Config{
			Service:     "fdserver",
			Capacity:    cfg.traceCapacity,
			SampleEvery: cfg.traceSample,
			SlowSpan:    cfg.traceSlow,
			OnSlowSpan: func(r otrace.Record) {
				log.Warn("slow span", "span_name", r.Name, "trace", r.Trace,
					"span", r.Span, "dur", time.Duration(r.Dur).String())
			},
		})
	}

	var srv store.Service = store.NewServer()
	var durable *store.DurableServer
	if cfg.dataDir != "" {
		d, err := store.OpenDir(cfg.dataDir, store.DurableOptions{Metrics: reg, Trace: otr})
		if err != nil {
			return fmt.Errorf("opening data dir %s: %w", cfg.dataDir, err)
		}
		defer d.Close()
		info := d.Recovery()
		st, _ := d.Stats()
		log.Info("recovered durable storage", "dir", cfg.dataDir,
			"snapshot_seq", info.SnapshotSeq, "epoch", info.SnapshotEpoch,
			"wal_replayed", info.WALReplayed, "objects", st.Objects, "bytes", st.StoredBytes)
		if info.TornTail {
			log.Warn("repaired torn WAL tail", "truncated_at", info.WALTruncatedAt)
		}
		durable, srv = d, d
	}

	// Replication wraps the durable store before any decorator so every
	// acknowledged mutation is also the one shipped to the replicas.
	var rep *store.ReplicatedServer
	if cfg.replicas != "" || cfg.replicaOf != "" || cfg.fence > 0 {
		if durable == nil {
			return fmt.Errorf("-replicas, -replica-of and -fence require -data-dir")
		}
		var peers []string
		for _, p := range strings.Split(cfg.replicas, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
		token := cfg.sessionToken
		dial := func(addr string) (store.ReplicaConn, error) {
			return transport.DialWith(addr, transport.ClientConfig{
				Token:       token,
				DialTimeout: 2 * time.Second,
				// Shipments carry the primary's span context so the
				// replica's apply spans join the same causal tree.
				Trace: otr,
				// Short per-call deadline: a hung (not merely dead) peer can
				// stall writers for at most one shipment before it is marked
				// down and skipped until the redial cadence.
				CallTimeout: cfg.shipTimeout,
			})
		}
		r, err := store.Replicated(durable, store.ReplicationConfig{
			Primary: cfg.replicaOf == "",
			Fence:   cfg.fence,
			Peers:   peers,
			Dial:    dial,
			Metrics: reg,
			Trace:   otr,
		})
		if err != nil {
			return fmt.Errorf("enabling replication: %w", err)
		}
		rep, srv = r, r
		role := "primary"
		if !rep.IsPrimary() {
			role = "replica"
		}
		log.Info("replication on", "role", role, "fence", rep.Fence(),
			"replicas", len(peers), "primary", cfg.replicaOf)
	}

	// Background integrity scrubbing sweeps snapshots, the WAL, and every
	// stored cell on a fixed, data-independent schedule, repairing from a
	// replica (or from live memory, for file damage) before foreground
	// reads trip over the corruption. Trace-neutral: DESIGN.md §15.
	if cfg.scrubInterval > 0 {
		if durable == nil {
			return fmt.Errorf("-scrub-interval requires -data-dir")
		}
		scrubber := store.NewScrubber(durable, rep, store.ScrubConfig{
			Interval: cfg.scrubInterval,
			Rate:     cfg.scrubRate,
			Metrics:  reg,
		})
		scrubber.Start()
		defer scrubber.Close()
		log.Info("integrity scrubbing on", "interval", cfg.scrubInterval.String(),
			"rate", cfg.scrubRate, "repair", rep != nil)
	}

	svc := store.WithLatency(srv, cfg.latency)
	if cfg.faultRate > 0 || cfg.corruptRate > 0 {
		svc = store.WithFaults(svc, store.FaultConfig{
			Seed:        cfg.faultSeed,
			ErrorRate:   cfg.faultRate,
			CorruptRate: cfg.corruptRate,
			Metrics:     reg,
		})
		log.Info("fault injection on", "error_rate", cfg.faultRate,
			"corrupt_rate", cfg.corruptRate, "seed", cfg.faultSeed)
	}
	// Outermost decorator: the per-op histograms measure what an RPC
	// dispatch actually costs, injected latency and faults included.
	svc = store.WithMetrics(svc, reg)
	var droppy *transport.FaultyListener
	if cfg.dropRate > 0 {
		droppy = transport.WithConnFaults(l, transport.FaultConfig{Seed: cfg.faultSeed, DropRate: cfg.dropRate})
		log.Info("connection drops on", "drop_rate", cfg.dropRate, "seed", cfg.faultSeed)
	}
	log.Info("fdserver listening (the server sees only ciphertexts and access patterns)",
		"addr", l.Addr().String())

	ts := transport.NewServer(svc)
	ts.SetSessionLimits(store.SessionLimits{
		MaxSessions: cfg.maxSessions,
		MaxInflight: cfg.maxInflight,
		RatePerSec:  cfg.sessionRate,
		IdleTimeout: cfg.idleTimeout,
		Token:       cfg.sessionToken,
	})
	ts.SetMetrics(reg)
	ts.SetTracer(otr)
	if rep != nil {
		ts.SetReplicator(rep)
	}
	if cfg.maxSessions > 0 || cfg.maxInflight > 0 || cfg.sessionRate > 0 ||
		cfg.idleTimeout > 0 || cfg.sessionToken != "" {
		log.Info("admission control on", "max_sessions", cfg.maxSessions,
			"max_inflight", cfg.maxInflight, "session_rate", cfg.sessionRate,
			"idle_timeout", cfg.idleTimeout.String(), "token_required", cfg.sessionToken != "")
	}

	var metricsSrv *http.Server
	if reg != nil {
		ml, err := net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener on %s: %w", cfg.metricsAddr, err)
		}
		mux := telemetry.NewMux(reg)
		mux.Handle("/trace.json", otr.Handler())
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			h := healthSnapshot(durable, rep, ts)
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(h)
		})
		mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
			// Ready means "will accept client operations": not draining,
			// not degraded read-only (disk full), and, when replicated,
			// holding the primary role. Replicas answer 503 so a load
			// balancer only routes writers at the real primary.
			h := healthSnapshot(durable, rep, ts)
			w.Header().Set("Content-Type", "application/json")
			if h.Draining || h.Degraded || (rep != nil && h.Role == "replica") {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			_ = json.NewEncoder(w).Encode(h)
		})
		metricsSrv = &http.Server{Handler: mux}
		go func() {
			if serr := metricsSrv.Serve(ml); serr != nil && serr != http.ErrServerClosed {
				log.Error("metrics server failed", "err", serr)
			}
		}()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			_ = metricsSrv.Shutdown(ctx)
		}()
		log.Info("telemetry endpoint up", "addr", ml.Addr().String(),
			"paths", "/metrics /metrics.json /trace.json /healthz /readyz /debug/pprof/")
	}

	// Drain cleanly on SIGINT or SIGTERM (what init systems and container
	// runtimes send): stop accepting, let in-flight requests finish within
	// the grace window, then close what remains.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		s, ok := <-sig
		if !ok {
			return
		}
		log.Info("signal received: draining", "signal", s.String(),
			"active_conns", ts.ActiveConns(), "active_sessions", ts.Sessions().Active(),
			"grace", cfg.grace.String())
		ts.Shutdown(cfg.grace)
		log.Info("drained", "requests_shed", ts.Sessions().Shed(),
			"handshakes_rejected", ts.Sessions().Rejected())
	}()

	var err error
	if droppy != nil {
		err = ts.Serve(droppy)
	} else {
		err = ts.Serve(l)
	}
	signal.Stop(sig) // no more sends possible after Stop returns
	close(sig)       // unblock the drain goroutine if no signal arrived
	<-drained        // don't exit mid-drain
	if durable != nil {
		// Snapshot at the current epoch so the next start replays no WAL;
		// even without it, the WAL alone already guarantees recovery.
		if serr := durable.Snapshot(); serr != nil {
			return fmt.Errorf("final snapshot: %w", serr)
		}
		log.Info("saved final snapshot", "dir", cfg.dataDir)
	}
	return err
}
