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
// lets in-flight requests finish within -grace, then exits (replacing the
// -snapshot file atomically if configured). With -data-dir the server is
// crash-safe instead: every mutation is logged to an append-only WAL before
// it is acknowledged, client-marked epochs become atomic snapshots, and
// startup recovers the pre-crash state from the newest valid snapshot plus
// the log tail — kill -9 loses nothing. For resilience experiments,
// -fault-rate/-spike-rate inject seeded transient storage faults and
// -drop-rate severs live connections mid-call; a client that layers
// securefd.WithRetry over the re-dialing DialTCP transport rides through all
// of them.
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
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/oblivfd/oblivfd/internal/otrace"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/telemetry"
	"github.com/oblivfd/oblivfd/internal/trace"
	"github.com/oblivfd/oblivfd/internal/transport"
)

// config collects the serve options so flags extend without churn.
type config struct {
	statsEvery   time.Duration
	latency      time.Duration
	snapshotPath string
	dataDir      string        // durable storage directory (WAL + snapshots)
	grace        time.Duration // drain window for in-flight requests on shutdown
	faultRate    float64       // seeded transient storage error rate
	spikeRate    float64       // seeded latency spike rate
	spike        time.Duration // spike magnitude
	dropRate     float64       // seeded mid-call connection drop rate
	corruptRate  float64       // seeded read-payload corruption rate
	faultSeed    int64
	metricsAddr  string // if set, serve /metrics + /metrics.json + /debug/pprof/
	logJSON      bool

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

func main() {
	var cfg config
	listen := flag.String("listen", ":7066", "address to listen on")
	flag.DurationVar(&cfg.statsEvery, "stats", 0, "if > 0, log storage stats at this interval")
	flag.DurationVar(&cfg.latency, "latency", 0, "artificial per-operation delay, to model a slower network")
	flag.StringVar(&cfg.snapshotPath, "snapshot", "", "persistence file: loaded at startup if present, written on shutdown")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "durable storage directory (WAL + atomic snapshots): crash-safe, recovers on start; excludes -snapshot")
	flag.DurationVar(&cfg.grace, "grace", 5*time.Second, "drain window for in-flight requests on SIGINT")
	flag.Float64Var(&cfg.faultRate, "fault-rate", 0, "inject transient storage errors at this rate (0..1), for resilience testing")
	flag.Float64Var(&cfg.spikeRate, "spike-rate", 0, "inject latency spikes at this rate (0..1)")
	flag.DurationVar(&cfg.spike, "spike", 5*time.Millisecond, "latency spike magnitude for -spike-rate")
	flag.Float64Var(&cfg.dropRate, "drop-rate", 0, "sever live connections mid-call at this per-frame rate (0..1)")
	flag.Float64Var(&cfg.corruptRate, "corrupt-rate", 0, "corrupt read payloads at this rate (0..1), modeling a Byzantine server; clients must detect every hit")
	flag.Int64Var(&cfg.faultSeed, "fault-seed", 1, "seed for the deterministic fault/drop schedules")
	flag.StringVar(&cfg.metricsAddr, "metrics-addr", "", "if set, serve Prometheus /metrics, /metrics.json, and /debug/pprof/ on this address")
	flag.BoolVar(&cfg.logJSON, "log-json", false, "log as JSON lines instead of key=value text")
	flag.IntVar(&cfg.traceSample, "trace-sample", 1, "head-sample every Nth trace into the span ring buffer (0 disables tracing)")
	flag.IntVar(&cfg.traceCapacity, "trace-capacity", 4096, "span ring-buffer capacity; oldest spans are evicted first")
	flag.DurationVar(&cfg.traceSlow, "trace-slow", 0, "log a structured slow-span event for spans at least this long, sampled or not (0 = never)")
	flag.IntVar(&cfg.maxSessions, "max-sessions", 0, "cap concurrently open client sessions; excess handshakes are refused with a retryable overload error (0 = unlimited)")
	flag.IntVar(&cfg.maxInflight, "max-inflight", 0, "cap requests executing at once across all sessions; excess requests are shed (0 = unlimited)")
	flag.StringVar(&cfg.sessionToken, "session-token", "", "require every session handshake to present this token; sessionless requests are refused while set")
	flag.Float64Var(&cfg.sessionRate, "session-rate", 0, "per-session request rate limit in req/s (0 = unlimited)")
	flag.DurationVar(&cfg.idleTimeout, "idle-timeout", 0, "evict sessions idle this long, freeing their session slots (0 = never)")
	flag.StringVar(&cfg.replicas, "replicas", "", "comma-separated peer addresses to ship the WAL to while primary; on a -replica-of server this takes effect at promotion (requires -data-dir)")
	flag.StringVar(&cfg.replicaOf, "replica-of", "", "address of the primary this server replicates; refuses client ops until promoted (requires -data-dir)")
	flag.Int64Var(&cfg.fence, "fence", 0, "initial fencing epoch; 0 defers to the FENCE file or 1, higher values force-promote past a stale primary")
	flag.DurationVar(&cfg.shipTimeout, "ship-timeout", 5*time.Second, "deadline per replication call; a peer that exceeds it is marked down and resynced by snapshot when it returns")
	flag.DurationVar(&cfg.scrubInterval, "scrub-interval", 0, "background integrity scrub: pause between full sweeps over snapshots, WAL, and stored cells (0 disables; requires -data-dir)")
	flag.Int64Var(&cfg.scrubRate, "scrub-rate", 65536, "scrub rate limit in work units per second (one unit per cell verified or KiB of file scanned; 0 = unlimited)")
	flag.Parse()

	if err := run(*listen, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "fdserver:", err)
		os.Exit(1)
	}
}

func run(listen string, cfg config) error {
	l, err := net.Listen("tcp", listen)
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

// baseStore is what the command needs from either storage backend beyond the
// Service surface.
type baseStore interface {
	store.Service
	Trace() *trace.Recorder
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

	var srv baseStore
	var durable *store.DurableServer
	var mem *store.Server
	if cfg.dataDir != "" {
		if cfg.snapshotPath != "" {
			return fmt.Errorf("-snapshot and -data-dir are mutually exclusive")
		}
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
	} else {
		mem = store.NewServer()
		if cfg.snapshotPath != "" {
			if f, err := os.Open(cfg.snapshotPath); err == nil {
				err = mem.LoadSnapshot(f)
				f.Close()
				if err != nil {
					return fmt.Errorf("loading snapshot %s: %w", cfg.snapshotPath, err)
				}
				st, _ := mem.Stats()
				log.Info("restored snapshot", "path", cfg.snapshotPath,
					"objects", st.Objects, "bytes", st.StoredBytes)
			} else if !os.IsNotExist(err) {
				return err
			}
		}
		srv = mem
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
		shipTimeout := cfg.shipTimeout
		if shipTimeout <= 0 {
			shipTimeout = 5 * time.Second
		}
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
				CallTimeout: shipTimeout,
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

	svc := store.WithLatency(store.Service(srv), cfg.latency)
	var faulty *store.FaultService
	if cfg.faultRate > 0 || cfg.spikeRate > 0 || cfg.corruptRate > 0 {
		faulty = store.WithFaults(svc, store.FaultConfig{
			Seed:        cfg.faultSeed,
			ErrorRate:   cfg.faultRate,
			SpikeRate:   cfg.spikeRate,
			Spike:       cfg.spike,
			CorruptRate: cfg.corruptRate,
			Metrics:     reg,
		})
		svc = faulty
		log.Info("fault injection on", "error_rate", cfg.faultRate,
			"spike_rate", cfg.spikeRate, "corrupt_rate", cfg.corruptRate,
			"seed", cfg.faultSeed)
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

	if cfg.statsEvery > 0 {
		go func() {
			for range time.Tick(cfg.statsEvery) {
				st, err := srv.Stats()
				if err != nil {
					continue
				}
				attrs := []any{
					"objects", st.Objects, "bytes", st.StoredBytes,
					"ops", srv.Trace().TotalOps(),
				}
				if faulty != nil {
					attrs = append(attrs, "faults_injected", faulty.Injected())
				}
				if droppy != nil {
					attrs = append(attrs, "conns_dropped", droppy.Drops())
				}
				log.Info("stats", attrs...)
			}
		}()
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
	switch {
	case durable != nil:
		// Snapshot at the current epoch so the next start replays no WAL;
		// even without it, the WAL alone already guarantees recovery.
		if serr := durable.Snapshot(); serr != nil {
			return fmt.Errorf("final snapshot: %w", serr)
		}
		log.Info("saved final snapshot", "dir", cfg.dataDir)
	case cfg.snapshotPath != "":
		if serr := saveSnapshot(store.OSFS, cfg.snapshotPath, mem); serr != nil {
			return serr
		}
		log.Info("saved snapshot", "path", cfg.snapshotPath)
	}
	return err
}

// saveSnapshot replaces the -snapshot file with mem's state atomically
// (store.ReplaceFile): a save that fails part way leaves the previous file
// as it was.
func saveSnapshot(fsys store.FS, path string, mem *store.Server) error {
	return store.ReplaceFile(fsys, path, filepath.Base(path)+"-*.tmp", mem.SaveSnapshot)
}
