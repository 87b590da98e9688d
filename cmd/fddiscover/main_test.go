package main

import (
	"bytes"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/oblivfd/oblivfd/internal/transport"
	"github.com/oblivfd/oblivfd/securefd"
)

func writeCSV(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "emp.csv")
	csv := "Position,Department\nEngineer,R&D\nEngineer,R&D\nSales,Market\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// quietOpts returns a baseline options value for tests.
func quietOpts(proto string) options {
	return options{protoName: proto, workers: 2, quiet: true}
}

func TestRunAllProtocols(t *testing.T) {
	path := writeCSV(t)
	for _, proto := range []string{"sort", "or-oram", "ex-oram", "plaintext", "enclave"} {
		if err := run(path, quietOpts(proto)); err != nil {
			t.Errorf("run(%s): %v", proto, err)
		}
	}
}

func TestRunAggregateAndMaxLHS(t *testing.T) {
	path := writeCSV(t)
	o := options{protoName: "plaintext", workers: 1, maxLHS: 1, aggregate: true}
	if err := run(path, o); err != nil {
		t.Errorf("run with aggregate: %v", err)
	}
}

// TestRunWithFaultsAndRetry: -fault-rate plus the default retry policy
// completes discovery despite injected transient failures.
func TestRunWithFaultsAndRetry(t *testing.T) {
	o := quietOpts("sort")
	o.faultRate = 0.1
	o.faultSeed = 4
	o.rtt = 10 * time.Microsecond
	if err := run(writeCSV(t), o); err != nil {
		t.Errorf("run with 10%% faults and retries: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("missing.csv", quietOpts("sort")); err == nil {
		t.Error("missing file accepted")
	}
	if err := run(writeCSV(t), quietOpts("bogus")); err == nil {
		t.Error("unknown protocol accepted")
	}
}

// TestRunWithTelemetry: -telemetry attaches a registry through every layer
// and prints a breakdown; the run must still succeed for each protocol.
func TestRunWithTelemetry(t *testing.T) {
	path := writeCSV(t)
	for _, proto := range []string{"sort", "or-oram", "ex-oram"} {
		o := quietOpts(proto)
		o.telemetry = true
		if err := run(path, o); err != nil {
			t.Errorf("run(%s) with telemetry: %v", proto, err)
		}
	}
}

// captureStdout runs fn and returns what it printed to stdout (the FD lines).
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	err = fn()
	os.Stdout = stdout
	w.Close()
	return <-out, err
}

// TestRunConnect: -connect drives discovery over the TCP transport against
// a server in another goroutine, with telemetry recording RPC latency; and
// against a server whose listener severs 2 % of frames, the retry layer
// -connect always runs under still returns the plaintext FD set.
func TestRunConnect(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ts := securefd.NewTCPServer(securefd.NewServer())
	go func() { _ = ts.Serve(l) }()
	defer ts.Shutdown(time.Second)

	o := quietOpts("sort")
	o.connect = l.Addr().String()
	o.telemetry = true
	if err := run(writeCSV(t), o); err != nil {
		t.Errorf("run over TCP: %v", err)
	}

	o = quietOpts("sort")
	o.connect = l.Addr().String()
	o.dataDir = t.TempDir()
	if err := run(writeCSV(t), o); err == nil {
		t.Error("-connect with -data-dir accepted; want mutual-exclusion error")
	}

	csv := filepath.Join(t.TempDir(), "rnd.csv")
	if err := securefd.WriteCSVFile(csv, securefd.GenerateRND(4, 64, 3)); err != nil {
		t.Fatal(err)
	}
	want, err := captureStdout(t, func() error { return run(csv, quietOpts("plaintext")) })
	if err != nil || want == "" {
		t.Fatalf("plaintext reference: %q, %v", want, err)
	}
	fl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	drops := transport.WithConnFaults(fl, transport.FaultConfig{Seed: 5, DropRate: 0.02})
	fts := securefd.NewTCPServer(securefd.NewServer())
	go func() { _ = fts.Serve(drops) }()
	defer fts.Shutdown(time.Second)
	o = quietOpts("sort")
	o.connect = fl.Addr().String()
	got, err := captureStdout(t, func() error { return run(csv, o) })
	if err != nil {
		t.Fatalf("run over a dropping connection: %v", err)
	}
	if got != want {
		t.Errorf("FDs over a dropping connection:\n%s\nwant the plaintext set:\n%s", got, want)
	}
	if drops.Drops() == 0 {
		t.Error("no connection was dropped; the retry path was not exercised")
	}
}

// TestWriteTraceWarnsWhenRingWrapped: when the tracer recorded more spans
// than its ring still holds, writeTrace writes what is left and logs a
// warning naming both numbers, instead of a bare span count that hides the
// loss.
func TestWriteTraceWarnsWhenRingWrapped(t *testing.T) {
	for _, tc := range []struct {
		spans int
		warn  bool
	}{{10, true}, {4, false}} {
		tr := securefd.NewTracer(securefd.TracerConfig{Service: "fddiscover", Capacity: 4, SampleEvery: 1})
		for i := 0; i < tc.spans; i++ {
			tr.StartRoot("rpc/ReadPath").End()
		}
		var logged bytes.Buffer
		o := options{quiet: true, traceOut: filepath.Join(t.TempDir(), "run.trace.json")}
		if err := writeTrace(o, tr, nil, slog.New(slog.NewTextHandler(&logged, nil))); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(o.traceOut); err != nil {
			t.Fatalf("%d spans: artifact not written: %v", tc.spans, err)
		}
		out := logged.String()
		if !tc.warn {
			if out != "" {
				t.Errorf("%d spans in a 4-record ring: unexpected log %q", tc.spans, out)
			}
			continue
		}
		for _, want := range []string{"level=WARN", "recorded=10", "kept=4"} {
			if !strings.Contains(out, want) {
				t.Errorf("%d spans in a 4-record ring: log %q lacks %q", tc.spans, out, want)
			}
		}
	}
}
