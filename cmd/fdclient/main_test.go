package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/transport"
)

func writeCSV(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.csv")
	csv := "a,b\n1,x\n1,x\n2,y\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestClientAgainstServer(t *testing.T) {
	backend := store.NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = transport.Serve(l, backend) }()

	o := options{protoName: "sort", workers: 2}
	if err := run(l.Addr().String(), o, writeCSV(t)); err != nil {
		t.Errorf("run: %v", err)
	}
	// The server must have seen ciphertext uploads and reveals.
	if backend.Trace().TotalOps() == 0 {
		t.Error("server saw no operations")
	}
	if len(backend.Reveals()) == 0 {
		t.Error("server log holds no FD decisions")
	}
}

// TestClientAgainstFaultyServer: the default fdclient stack (pooled
// re-dialing connections under the retry layer) completes against a server injecting
// transient faults and connection drops.
func TestClientAgainstFaultyServer(t *testing.T) {
	backend := store.WithFaults(store.NewServer(), store.FaultConfig{Seed: 2, ErrorRate: 0.05})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fl := transport.WithConnFaults(l, transport.FaultConfig{Seed: 3, DropRate: 0.01})
	go func() { _ = transport.Serve(fl, backend) }()

	o := options{protoName: "sort", workers: 2, retries: 8, callTimeout: 5 * time.Second}
	if err := run(l.Addr().String(), o, writeCSV(t)); err != nil {
		t.Errorf("run against faulty server: %v", err)
	}
}

// TestClientTelemetrySnapshot: -telemetry writes the run's tracer phases —
// lattice levels, candidates and the client's RPCs — next to the registry's
// counters and latency histograms.
func TestClientTelemetrySnapshot(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = transport.Serve(l, store.NewServer()) }()

	o := options{protoName: "sort", workers: 1, telemetry: filepath.Join(t.TempDir(), "tel.json")}
	if err := run(l.Addr().String(), o, writeCSV(t)); err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := os.ReadFile(o.telemetry)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		WallNS     int64                      `json:"wall_ns"`
		Counters   map[string]int64           `json:"counters"`
		Histograms map[string]json.RawMessage `json:"histograms"`
		Phases     []struct {
			Name  string `json:"name"`
			Count int64  `json:"count"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("invalid snapshot: %v\n%s", err, b)
	}
	phases := map[string]int64{}
	rpcs := 0
	for _, p := range doc.Phases {
		phases[p.Name] = p.Count
		if strings.HasPrefix(p.Name, "rpc/") {
			rpcs++
		}
	}
	if phases["lattice/level-00"] != 1 || phases["candidate/single"] != 1 || rpcs == 0 {
		t.Errorf("phases = %v, want lattice/level-00, candidate/single and rpc/* rows", phases)
	}
	if doc.WallNS <= 0 || doc.Counters["oblivfd_sort_stages_total"] == 0 || len(doc.Histograms) == 0 {
		t.Errorf("snapshot lacks wall time, sort stage counter or histograms:\n%s", b)
	}
}

func TestClientErrors(t *testing.T) {
	if err := run("127.0.0.1:1", options{protoName: "sort", workers: 1}, "x.csv"); err == nil {
		t.Error("dead server accepted")
	}
	if err := run("127.0.0.1:1", options{protoName: "bogus", workers: 1}, "x.csv"); err == nil {
		t.Error("unknown protocol accepted")
	}
}
