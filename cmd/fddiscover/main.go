// Command fddiscover runs secure FD discovery on a CSV file (header row
// required) with any of the protocols, printing the discovered minimal
// dependencies with attribute names.
//
//	fddiscover -protocol sort -workers 4 data.csv
//	fddiscover -protocol ex-oram -max-lhs 3 data.csv
//
// By default the storage server runs in-process; -connect points the client
// at a remote fdserver instead, reproducing the paper's two-machine
// deployment end to end, with fddiscover as the resource-limited client C:
//
//	fddiscover -connect localhost:7066 -protocol sort data.csv
//
// -servers points at a replicated fdserver group instead: the client probes
// for the primary and, if it dies mid-run, promotes the freshest replica
// (with a higher fencing epoch) and continues where it left off:
//
//	fddiscover -servers host1:7066,host2:7066,host3:7066 data.csv
//
// With -connect or -servers every storage call runs under the retry layer,
// the one layer that sends a call again: a call that fails on a dropped
// connection, a restarting server or a transient fault is re-sent with
// backoff, up to -retries attempts, and the connection it failed on is
// re-dialed by the next call. A lost -servers primary is one more such
// failure: the client fails over and the retry lands on the new primary.
//
// The in-process server can model a remote deployment: -rtt adds
// per-operation latency, and -fault-rate injects seeded transient storage
// failures that the client rides out with -retries (demonstrating the
// fault-tolerance stack without a network).
//
// -telemetry prints a per-phase breakdown after discovery: the run's span
// totals by name — wall time per lattice level, per candidate
// materialization and (over TCP) per RPC kind — then the counters
// (ORAM accesses, sort stages, retries) and latency quantiles.
// -telemetry-json FILE writes the same breakdown as a JSON snapshot. -log-json
// switches the informational log lines to JSON; the FD lines themselves
// stay plain.
//
// -trace-out records the run as a distributed trace and writes a Chrome
// trace-event JSON artifact (open it at https://ui.perfetto.dev). With
// -connect or -servers, span contexts ride the frame protocol's fixed-size
// header, the servers' spans are fetched back over the TraceDump RPC, and
// the artifact shows one causal tree per trace: lattice level → client RPC
// → server dispatch → WAL append → per-replica shipment.
//
// Long runs can survive crashes on both sides. -data-dir makes the
// in-process server durable (WAL + snapshots); -checkpoint makes the client
// write a recovery file at every completed lattice level (ORAM protocols
// only). After a crash, -resume continues from the last completed level:
//
//	fddiscover -protocol or-oram -data-dir state -checkpoint run.ckpt data.csv
//	fddiscover -data-dir state -resume run.ckpt
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"github.com/oblivfd/oblivfd/internal/otrace"
	"github.com/oblivfd/oblivfd/securefd"
)

// splitAddrs parses a comma-separated address list, dropping empties.
func splitAddrs(s string) []string {
	var addrs []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// options collects the run knobs so flags extend without churn.
type options struct {
	protoName   string
	workers     int
	maxLHS      int
	aggregate   bool
	quiet       bool
	rtt         time.Duration // artificial per-operation latency
	faultRate   float64       // seeded transient fault injection rate
	corruptRate float64       // seeded read-payload corruption rate
	faultSeed   int64
	retries     int    // max attempts per storage call (1 = no retry)
	dataDir     string // durable server state directory
	ckptPath    string // client checkpoint file, written at level boundaries
	resume      string // checkpoint file to continue from
	connect     string // remote fdserver address; empty = in-process server
	servers     string // comma-separated replicated fdserver addresses (failover)
	db          string // database namespace on a multi-tenant server
	token       string // session auth token
	telemetry   bool   // print the phase table, counters and latencies after discovery
	teleJSON    string // write the same breakdown as JSON here
	traceOut    string // write a merged Chrome trace-event artifact here
	logJSON     bool
}

// registerFlags binds fddiscover's flags to o.
func registerFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.protoName, "protocol", "sort", securefd.ProtocolNames())
	fs.IntVar(&o.workers, "workers", 1, "parallelism degree of the sort protocol: sorting-network workers and partitions of one lattice level built concurrently (the ORAM protocols take a level at a time on one goroutine whatever it is)")
	fs.IntVar(&o.maxLHS, "max-lhs", 0, "bound determinant size (0 = unbounded)")
	fs.BoolVar(&o.aggregate, "aggregate", false, "merge FDs per determinant")
	fs.BoolVar(&o.quiet, "quiet", false, "print only the FDs")
	fs.DurationVar(&o.rtt, "rtt", 0, "artificial per-operation storage latency, to model a remote server")
	fs.Float64Var(&o.faultRate, "fault-rate", 0, "inject transient storage faults at this rate (0..1)")
	fs.Float64Var(&o.corruptRate, "corrupt-rate", 0, "corrupt read payloads at this rate (0..1); every hit must abort discovery with an integrity error")
	fs.Int64Var(&o.faultSeed, "fault-seed", 1, "seed for the deterministic fault schedule")
	fs.IntVar(&o.retries, "retries", 0, "max attempts per storage call (0 = default policy, 1 = no retry)")
	fs.StringVar(&o.dataDir, "data-dir", "", "durable server state directory (WAL + snapshots); survives crashes")
	fs.StringVar(&o.ckptPath, "checkpoint", "", "write a client recovery file here at every completed lattice level (or-oram/ex-oram only)")
	fs.StringVar(&o.resume, "resume", "", "continue a crashed run from this checkpoint file (requires -data-dir; no CSV argument)")
	fs.StringVar(&o.connect, "connect", "", "address of a running fdserver to use instead of the in-process server")
	fs.StringVar(&o.servers, "servers", "", "comma-separated addresses of a replicated fdserver group; the client follows the primary across failures (excludes -connect)")
	fs.StringVar(&o.db, "db", "", "with -connect or -servers: database namespace to bind the session to on a multi-tenant server (empty = root)")
	fs.StringVar(&o.token, "token", "", "with -connect or -servers: session auth token, required when the server runs with -session-token")
	fs.BoolVar(&o.telemetry, "telemetry", false, "print per-phase wall time, ORAM access counts, and latency quantiles after discovery")
	fs.StringVar(&o.teleJSON, "telemetry-json", "", "write the run's phase/metric snapshot (per-level wall time, counters, latency histograms) as JSON to this file")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the run's distributed trace (client and server spans merged) as Chrome trace-event JSON to this file")
	fs.BoolVar(&o.logJSON, "log-json", false, "log informational lines as JSON instead of key=value text")
}

func main() {
	var o options
	registerFlags(flag.CommandLine, &o)
	flag.Parse()

	if o.resume != "" {
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: fddiscover -resume <file.ckpt> -data-dir <dir> (the data comes from the recovered server, not a CSV)")
			os.Exit(2)
		}
		if err := runResume(o); err != nil {
			fmt.Fprintln(os.Stderr, "fddiscover:", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fddiscover [flags] <file.csv>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), o); err != nil {
		fmt.Fprintln(os.Stderr, "fddiscover:", err)
		os.Exit(1)
	}
}

// newLogger builds the informational logger; FD output stays on plain stdout.
func newLogger(jsonFormat bool) *slog.Logger {
	if jsonFormat {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

// newRegistry returns the run's registry, or nil when neither -telemetry nor
// -telemetry-json is on (a nil registry turns every instrumentation point
// into a no-op).
func (o options) newRegistry() *securefd.Registry {
	if !o.telemetry && o.teleJSON == "" {
		return nil
	}
	return securefd.NewRegistry()
}

// runResume recovers server and client to the checkpoint's epoch and
// continues discovery from the last completed lattice level, checkpointing
// to the same file as it goes.
func runResume(o options) error {
	log := newLogger(o.logJSON)
	if o.dataDir == "" {
		return fmt.Errorf("-resume requires -data-dir (the durable server state to recover)")
	}
	cp, err := securefd.ReadCheckpointFile(o.resume)
	if err != nil {
		return err
	}
	reg := o.newRegistry()
	tr := o.newTracer()
	db, srv, err := securefd.ResumeFromDir(o.dataDir, o.resume, securefd.DurableOptions{Trace: tr})
	if err != nil {
		return err
	}
	defer srv.Close()
	// Checkpoints carry no telemetry wiring; re-instrument the rebuilt
	// ORAM handles so post-resume accesses are counted.
	db.SetTelemetry(reg)
	db.SetTrace(tr)
	if !o.quiet {
		log.Info("resumed from checkpoint", "path", o.resume, "epoch", cp.Epoch,
			"completed_levels", cp.Epoch, "data_dir", o.dataDir)
	}
	ckpt := o.ckptPath
	if ckpt == "" {
		ckpt = o.resume
	}
	start := time.Now()
	report, err := db.DiscoverResumable(ckpt)
	if err != nil {
		return err
	}
	printReport(db, report, o, start, log)
	if err := reportTelemetry(o, reg, tr, time.Since(start), log); err != nil {
		return err
	}
	if err := writeTrace(o, tr, nil, log); err != nil {
		return err
	}
	if err := srv.Snapshot(); err != nil {
		return err
	}
	return nil
}

// printReport prints the discovered FDs and, unless -quiet, the run summary.
func printReport(db *securefd.Database, report *securefd.Report, o options, start time.Time, log *slog.Logger) {
	fds := report.Minimal
	if o.aggregate {
		fds = report.Aggregated
	}
	for _, fd := range fds {
		fmt.Println(fd.Format(db.Schema()))
	}
	if !o.quiet {
		log.Info("discovery complete", "minimal_fds", len(report.Minimal),
			"elapsed", time.Since(start).Round(time.Millisecond).String(),
			"partitions", report.SetsMaterialized, "checks", report.Checks)
	}
}

// reportTelemetry prints the tracer's phase table and the registry's
// counters and latencies under -telemetry, and writes them as a JSON
// snapshot under -telemetry-json.
func reportTelemetry(o options, reg *securefd.Registry, tr *securefd.Tracer, wall time.Duration, log *slog.Logger) error {
	if o.telemetry {
		fmt.Print(otrace.RenderPhases(tr.Phases(), wall))
		fmt.Print(reg.Breakdown())
	}
	if o.teleJSON == "" {
		return nil
	}
	b, err := reg.MarshalBreakdownJSON(wall, tr.Phases())
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.teleJSON, b, 0o644); err != nil {
		return err
	}
	if !o.quiet {
		log.Info("telemetry snapshot written", "path", o.teleJSON)
	}
	return nil
}

// newTracer returns the run's span recorder, or nil when none of -trace-out,
// -telemetry and -telemetry-json is on (a nil tracer turns every span point
// into a no-op).
func (o options) newTracer() *securefd.Tracer {
	if o.traceOut == "" && !o.telemetry && o.teleJSON == "" {
		return nil
	}
	return securefd.NewTracer(securefd.TracerConfig{Service: "fddiscover", SampleEvery: 1})
}

// writeTrace merges this process's spans with the server-side spans sharing
// their trace IDs (fetched over the TraceDump RPC when dump is non-nil) and
// writes the Chrome trace-event artifact (no-op without -trace-out). An
// unreachable server degrades to a client-only artifact rather than failing
// the run; a ring that wrapped is written as what it still holds, with a
// warning that names how many spans were lost.
func writeTrace(o options, tr *securefd.Tracer, dump func(string) ([]securefd.SpanRecord, error), log *slog.Logger) error {
	if o.traceOut == "" {
		return nil
	}
	recs := tr.Records()
	if n := tr.Recorded(); n > uint64(len(recs)) {
		log.Warn("trace ring wrapped; the artifact holds only the most recent client spans",
			"recorded", n, "kept", len(recs))
	}
	ids := make(map[string]bool, len(recs))
	for _, r := range recs {
		ids[r.Trace] = true
	}
	remoteSpans := 0
	if dump != nil {
		remote, err := dump("")
		if err != nil {
			log.Warn("server trace dump failed; writing client spans only", "err", err)
		} else {
			for _, r := range remote {
				if ids[r.Trace] {
					recs = append(recs, r)
					remoteSpans++
				}
			}
		}
	}
	f, err := os.Create(o.traceOut)
	if err != nil {
		return err
	}
	if err := securefd.WriteChromeTrace(f, recs); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if !o.quiet {
		log.Info("trace written", "path", o.traceOut,
			"spans", len(recs), "server_spans", remoteSpans)
	}
	return nil
}

func run(path string, o options) error {
	switch {
	case !(o.faultRate >= 0 && o.faultRate <= 1):
		return fmt.Errorf("-fault-rate must be between 0 and 1, got %v", o.faultRate)
	case !(o.corruptRate >= 0 && o.corruptRate <= 1):
		return fmt.Errorf("-corrupt-rate must be between 0 and 1, got %v", o.corruptRate)
	}
	log := newLogger(o.logJSON)
	protocol, err := securefd.ParseProtocol(o.protoName)
	if err != nil {
		return err
	}
	rel, err := securefd.ReadCSVFile(path)
	if err != nil {
		return err
	}
	if !o.quiet {
		log.Info("loaded csv", "path", path, "rows", rel.NumRows(), "attrs", rel.NumAttrs())
	}

	reg := o.newRegistry()
	tr := o.newTracer()
	// dumpTrace, when remote, fetches the servers' span rings so the
	// artifact holds both halves of every trace.
	var dumpTrace func(string) ([]securefd.SpanRecord, error)
	var svc securefd.Service
	var durable *securefd.DurableServer
	cfg := securefd.DefaultClientConfig() // for the two remote arms
	cfg.Metrics = reg
	cfg.Database = o.db
	cfg.Token = o.token
	cfg.Trace = tr
	switch {
	case o.servers != "":
		if o.connect != "" {
			return fmt.Errorf("-connect and -servers are mutually exclusive")
		}
		if o.dataDir != "" {
			return fmt.Errorf("-servers and -data-dir are mutually exclusive (the remote fdservers own their storage)")
		}
		addrs := splitAddrs(o.servers)
		if len(addrs) == 0 {
			return fmt.Errorf("-servers: no addresses given")
		}
		fo, err := securefd.DialTCPFailover(addrs, o.workers, cfg)
		if err != nil {
			return fmt.Errorf("connecting to %v: %w", addrs, err)
		}
		defer fo.Close()
		if !o.quiet {
			addr, fence := fo.Primary()
			log.Info("connected to replicated servers", "primary", addr,
				"fence", fence, "servers", len(addrs), "connections", o.workers)
		}
		svc = fo
		dumpTrace = fo.TraceDump
	case o.connect != "":
		if o.dataDir != "" {
			return fmt.Errorf("-connect and -data-dir are mutually exclusive (the remote fdserver owns its storage)")
		}
		pool, err := securefd.DialTCPPool(o.connect, o.workers, cfg)
		if err != nil {
			return fmt.Errorf("connecting to %s: %w", o.connect, err)
		}
		defer pool.Close()
		if !o.quiet {
			log.Info("connected to remote server", "addr", o.connect, "connections", o.workers)
		}
		svc = pool
		dumpTrace = pool.TraceDump
	case o.dataDir != "":
		durable, err = securefd.OpenDir(o.dataDir, securefd.DurableOptions{Trace: tr})
		if err != nil {
			return err
		}
		defer durable.Close()
		svc = durable
	default:
		svc = securefd.NewServer()
	}
	if o.rtt > 0 {
		svc = securefd.WithLatency(svc, o.rtt)
	}
	var faulty *securefd.FaultService
	if o.faultRate > 0 || o.corruptRate > 0 {
		faulty = securefd.WithFaults(svc, securefd.FaultConfig{
			Seed:        o.faultSeed,
			ErrorRate:   o.faultRate,
			CorruptRate: o.corruptRate,
			Metrics:     reg,
		})
		svc = faulty
	}
	var retried *securefd.RetryService
	if o.connect != "" || o.servers != "" || o.faultRate > 0 || o.retries > 0 {
		retried = securefd.WithRetry(svc, securefd.RetryPolicy{MaxAttempts: o.retries, Metrics: reg})
		svc = retried
	}
	// Client-side per-op latency histograms: with -connect they measure
	// the full round trip the protocol actually waits on.
	svc = securefd.WithTelemetry(svc, reg)

	db, err := securefd.Outsource(svc, rel, securefd.Options{
		Protocol:  protocol,
		Workers:   o.workers,
		MaxLHS:    o.maxLHS,
		Telemetry: reg,
		Trace:     tr,
	})
	if err != nil {
		return err
	}
	defer db.Close()

	start := time.Now()
	var report *securefd.Report
	if o.ckptPath != "" {
		report, err = db.DiscoverResumable(o.ckptPath)
	} else {
		report, err = db.Discover()
	}
	if err != nil {
		return err
	}
	printReport(db, report, o, start, log)
	if !o.quiet {
		if faulty != nil || retried != nil {
			st, err := svc.Stats()
			if err == nil {
				log.Info("fault tolerance", "faults_injected", st.FaultsInjected, "retries", st.Retries,
					"reconnects", st.Reconnects)
			}
		}
	}
	if err := reportTelemetry(o, reg, tr, time.Since(start), log); err != nil {
		return err
	}
	if err := writeTrace(o, tr, dumpTrace, log); err != nil {
		return err
	}
	if durable != nil {
		if err := durable.Snapshot(); err != nil {
			return err
		}
	}
	return nil
}
