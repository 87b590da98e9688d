package main

import (
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

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

// TestRunConnect: -connect drives discovery over the TCP transport against
// a server in another goroutine, with telemetry recording RPC latency.
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
}
