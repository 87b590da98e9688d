// Command fdclient plays the resource-limited client C: it loads a CSV,
// encrypts it cell by cell, uploads it to a remote fdserver, and drives
// secure FD discovery over TCP. The server never sees a plaintext or a
// data-dependent access pattern.
//
//	fdclient -server localhost:7066 -protocol sort data.csv
//
// Against a replicated group, -servers lists every member; the client finds
// the primary and fails over (promoting the freshest replica) if it dies:
//
//	fdclient -servers host1:7066,host2:7066,host3:7066 data.csv
//
// The run is fault tolerant: every call carries a deadline (-call-timeout);
// a call that fails on a dropped connection, a restarting server or a
// transient server fault is sent again with backoff, up to -retries attempts
// (the one layer that re-sends); and the connection it failed on is re-dialed
// by the next call. With -servers a lost primary is one more such failure.
// Counters are reported at the end.
//
// -telemetry <file> writes the run's phase/metric snapshot as JSON: span
// totals by name from the run's tracer (per lattice level, per candidate
// materialization, per RPC kind) next to the registry's counters and
// latency histograms — the same breakdown fddiscover prints with its
// -telemetry flag.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/oblivfd/oblivfd/securefd"
)

// options collects the run knobs so flags extend without churn.
type options struct {
	protoName   string
	workers     int
	maxLHS      int
	pool        int           // parallel TCP connections
	retries     int           // max attempts per storage call (0 = default)
	callTimeout time.Duration // per-call deadline
	db          string        // database namespace on a multi-tenant server
	token       string        // session auth token
	servers     string        // comma-separated replicated fdserver addresses
	telemetry   string        // write the phase/metric snapshot JSON here
}

func main() {
	var o options
	server := flag.String("server", "localhost:7066", "fdserver address")
	flag.StringVar(&o.servers, "servers", "", "comma-separated addresses of a replicated fdserver group; the client follows the primary across failures (overrides -server)")
	flag.StringVar(&o.protoName, "protocol", "sort", "sort|or-oram|ex-oram")
	flag.IntVar(&o.workers, "workers", 1, "sorting parallelism degree")
	flag.IntVar(&o.maxLHS, "max-lhs", 0, "bound determinant size (0 = unbounded)")
	flag.IntVar(&o.pool, "pool", 0, "parallel TCP connections (0 = one per worker)")
	flag.IntVar(&o.retries, "retries", 0, "max attempts per storage call (0 = default policy, 1 = no retry)")
	flag.DurationVar(&o.callTimeout, "call-timeout", 0, "per-call deadline (0 = default)")
	flag.StringVar(&o.db, "db", "", "database namespace to bind the session to on a multi-tenant server (empty = root)")
	flag.StringVar(&o.token, "token", "", "session auth token, required when the server runs with -session-token")
	flag.StringVar(&o.telemetry, "telemetry", "", "write the run's phase/metric snapshot (per-level wall time, RPC latency quantiles) as JSON to this file")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fdclient [flags] <file.csv>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := run(*server, o, flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "fdclient:", err)
		os.Exit(1)
	}
}

func run(server string, o options, path string) error {
	protocol, err := securefd.ParseProtocol(o.protoName)
	if err != nil {
		return err
	}
	rel, err := securefd.ReadCSVFile(path)
	if err != nil {
		return err
	}

	// The registry instruments every layer — transport RPC latency, retry
	// counters, ORAM and sort counts — and the tracer times the lattice
	// phases and RPCs, exactly like fddiscover's -telemetry.
	var reg *securefd.Registry
	var tr *securefd.Tracer
	if o.telemetry != "" {
		reg = securefd.NewRegistry()
		tr = securefd.NewTracer(securefd.TracerConfig{Service: "fdclient", SampleEvery: 1})
	}

	cfg := securefd.DefaultClientConfig()
	if o.callTimeout > 0 {
		cfg.CallTimeout = o.callTimeout
	}
	cfg.Database = o.db
	cfg.Token = o.token
	cfg.Metrics = reg
	cfg.Trace = tr
	poolSize := o.pool
	if poolSize <= 0 {
		poolSize = o.workers
	}
	var conn securefd.Service
	var closeConn func() error
	if o.servers != "" {
		var addrs []string
		for _, a := range strings.Split(o.servers, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		fo, err := securefd.DialTCPFailover(addrs, poolSize, cfg)
		if err != nil {
			return err
		}
		primary, fence := fo.Primary()
		server = fmt.Sprintf("%s (fence %d, %d servers)", primary, fence, len(addrs))
		conn, closeConn = fo, fo.Close
	} else {
		pool, err := securefd.DialTCPPool(server, poolSize, cfg)
		if err != nil {
			return err
		}
		conn, closeConn = pool, pool.Close
	}
	defer closeConn()
	var svc securefd.Service = securefd.WithRetry(conn, securefd.RetryPolicy{MaxAttempts: o.retries, Metrics: reg})
	// Client-side per-op latency histograms measure the full round trip the
	// protocol actually waits on, retries included.
	svc = securefd.WithTelemetry(svc, reg)

	fmt.Printf("uploading %d×%d cells encrypted to %s…\n", rel.NumRows(), rel.NumAttrs(), server)
	wallStart := time.Now()
	start := wallStart
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
	fmt.Printf("uploaded in %s; discovering…\n", time.Since(start).Round(time.Millisecond))

	start = time.Now()
	report, err := db.Discover()
	if err != nil {
		return err
	}
	for _, fd := range report.Minimal {
		fmt.Println(fd.Format(rel.Schema()))
	}
	fmt.Printf("\n%d minimal FDs via %s over TCP in %s\n",
		len(report.Minimal), protocol, time.Since(start).Round(time.Millisecond))
	if st, err := svc.Stats(); err == nil && (st.Retries > 0 || st.Reconnects > 0) {
		fmt.Printf("fault tolerance: %d retries, %d reconnects\n", st.Retries, st.Reconnects)
	}
	if reg != nil {
		b, err := reg.MarshalBreakdownJSON(time.Since(wallStart), tr.Phases())
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.telemetry, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("telemetry snapshot written to %s\n", o.telemetry)
	}
	return nil
}
