package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/oblivfd/oblivfd/internal/clidoc"
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

// TestRunRefusesOutOfRangeRates: a fault or corruption rate outside 0..1,
// and a negative worker count, retry count, RTT or determinant bound, is
// refused at startup by name, never clamped; each end of every range is
// accepted.
func TestRunRefusesOutOfRangeRates(t *testing.T) {
	csv := writeCSV(t)
	for _, c := range []struct{ flag, v string }{
		{"fault-rate", "-0.01"}, {"fault-rate", "2"}, {"fault-rate", "NaN"},
		{"corrupt-rate", "-1"}, {"corrupt-rate", "1.5"},
		{"workers", "-1"}, {"retries", "-1"}, {"rtt", "-1ms"}, {"max-lhs", "-1"},
	} {
		var o options
		fs := flag.NewFlagSet("fddiscover", flag.ContinueOnError)
		registerFlags(fs, &o)
		if err := fs.Parse([]string{"-quiet", "-" + c.flag, c.v}); err != nil {
			t.Fatal(err)
		}
		err := run(csv, o)
		if want := "-" + c.flag + " must be"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-%s %s: run = %v, want an error containing %q", c.flag, c.v, err, want)
		}
	}
	for _, args := range [][]string{
		{"-fault-rate", "1", "-corrupt-rate", "1"},
		{"-workers", "0", "-retries", "0", "-rtt", "0", "-max-lhs", "0"},
	} {
		var o options
		fs := flag.NewFlagSet("fddiscover", flag.ContinueOnError)
		registerFlags(fs, &o)
		if err := fs.Parse(append([]string{"-quiet", "-protocol", "plaintext"}, args...)); err != nil {
			t.Fatal(err)
		}
		if _, err := captureStdout(t, func() error { return run(csv, o) }); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}

// TestRunWorkersZeroIsOnePerCore: -workers 0 resolves to GOMAXPROCS before
// anything is built, so a -connect run dials one pool connection per core
// (and hands the engine as many workers), where the flag's default of 1
// dials one.
func TestRunWorkersZeroIsOnePerCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	csv := writeCSV(t)
	for _, c := range []struct{ workers, conns int }{{0, 3}, {1, 1}} {
		nl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		l := &countingListener{Listener: nl}
		ts := securefd.NewTCPServer(securefd.NewServer())
		go func() { _ = ts.Serve(l) }()
		o := quietOpts("sort")
		o.workers, o.connect = c.workers, nl.Addr().String()
		_, err = captureStdout(t, func() error { return run(csv, o) })
		ts.Shutdown(time.Second)
		nl.Close()
		if err != nil {
			t.Fatalf("-workers %d: %v", c.workers, err)
		}
		if got := int(l.accepted.Load()); got != c.conns {
			t.Errorf("-workers %d at GOMAXPROCS 3: %d connections, want %d", c.workers, got, c.conns)
		}
	}
}

// countingListener counts the connections it accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestRunConnectErrors: -connect refuses a server that does not answer and
// an unknown protocol.
func TestRunConnectErrors(t *testing.T) {
	o := quietOpts("sort")
	o.connect = "127.0.0.1:1"
	if err := run(writeCSV(t), o); err == nil {
		t.Error("dead server accepted")
	}
	o = quietOpts("bogus")
	o.connect = "127.0.0.1:1"
	if err := run(writeCSV(t), o); err == nil {
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

// TestRunResumeWithTelemetry: a -checkpoint run that a tampered read aborts
// part-way up the lattice leaves a checkpoint behind, and -resume …
// -telemetry finishes it from there with the plaintext FD set and prints
// non-zero ORAM and integrity counters: the resumed run's accesses, among
// them those to the ORAMs the checkpoint rebuilt.
func TestRunResumeWithTelemetry(t *testing.T) {
	var csv strings.Builder
	csv.WriteString("A,B,C,D\n")
	for i := range 24 { // small domains: three lattice levels, FDs at each
		fmt.Fprintf(&csv, "%d,%d,%d,%d\n", i%2, i%3, i/2%3, i%4)
	}
	path := filepath.Join(t.TempDir(), "dom.csv")
	if err := os.WriteFile(path, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := captureStdout(t, func() error { return run(path, quietOpts("plaintext")) })
	if err != nil {
		t.Fatal(err)
	}
	// checkpointed runs ex-oram with -checkpoint into a fresh data directory,
	// reading through corruption seeded by seed when it is not zero, and
	// returns the options it ran with and the epoch its checkpoint holds.
	checkpointed := func(seed int64) (options, int64) {
		o := quietOpts("ex-oram")
		o.dataDir, o.ckptPath = t.TempDir(), filepath.Join(t.TempDir(), "run.ckpt")
		if seed != 0 {
			o.corruptRate, o.faultSeed = 0.03, seed
		}
		if _, err := captureStdout(t, func() error { return run(path, o) }); (err != nil) != (seed != 0) {
			return o, -1
		}
		cp, err := securefd.ReadCheckpointFile(o.ckptPath)
		if err != nil {
			return o, -1
		}
		return o, cp.Epoch
	}
	_, last := checkpointed(0)
	if last < 2 {
		t.Fatalf("an uninterrupted run's last checkpoint is at epoch %d, want a lattice of several levels", last)
	}
	for seed := int64(1); ; seed++ {
		if seed > 64 {
			t.Fatal("no fault seed aborts the run between its first and its last checkpoint")
		}
		o, epoch := checkpointed(seed)
		if epoch < 1 || epoch >= last {
			continue
		}
		r := quietOpts("")
		r.dataDir, r.resume, r.telemetry = o.dataDir, o.ckptPath, true
		out, err := captureStdout(t, func() error { return runResume(r) })
		if err != nil {
			t.Fatalf("resuming seed %d's run from epoch %d: %v", seed, epoch, err)
		}
		if !strings.HasPrefix(out, want) {
			t.Errorf("resumed run printed\n%s\nwant the plaintext FD set\n%s", out, want)
		}
		for _, name := range []string{"oblivfd_oram_path_reads_total", "oblivfd_integrity_checks_total"} {
			var v int64
			for _, line := range strings.Split(out, "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[0] == name {
					v, _ = strconv.ParseInt(f[1], 10, 64)
				}
			}
			if v == 0 {
				t.Errorf("-resume -telemetry printed no non-zero %s:\n%s", name, out)
			}
		}
		return
	}
}

// TestRunResumeAppliesServiceFlags: -resume builds a fresh run's service
// stack, so -fault-rate injects faults the retry layer rides out — the
// resumed run reports them and still prints the plaintext FD set — and an
// out-of-range rate is refused by name, as a fresh run refuses it.
func TestRunResumeAppliesServiceFlags(t *testing.T) {
	path, want := rndWithReference(t)
	o := quietOpts("or-oram")
	o.dataDir, o.ckptPath = t.TempDir(), filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := captureStdout(t, func() error { return run(path, o) }); err != nil {
		t.Fatal(err)
	}
	r := quietOpts("")
	r.dataDir, r.resume, r.telemetry = o.dataDir, o.ckptPath, true
	r.faultRate = 2
	if err := runResume(r); err == nil || !strings.Contains(err.Error(), "-fault-rate must be") {
		t.Errorf("-resume -fault-rate 2 = %v, want the fresh run's refusal", err)
	}
	r.faultRate, r.faultSeed = 0.05, 3
	out, err := captureStdout(t, func() error { return runResume(r) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, want) {
		t.Errorf("resumed run printed\n%s\nwant the plaintext FD set\n%s", out, want)
	}
	var faults int64
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "oblivfd_faults_injected_total" {
			faults, _ = strconv.ParseInt(f[1], 10, 64)
		}
	}
	if faults == 0 {
		t.Errorf("-resume -fault-rate 0.05 injected no faults:\n%s", out)
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

// serveTCP serves backend on a loopback listener, dropping connections as
// drops says (none when zero), for the life of the test.
func serveTCP(t *testing.T, backend securefd.Service, drops transport.FaultConfig) (addr string, l *transport.FaultyListener) {
	t.Helper()
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nl.Close() })
	l = transport.WithConnFaults(nl, drops)
	ts := securefd.NewTCPServer(backend)
	go func() { _ = ts.Serve(l) }()
	t.Cleanup(func() { ts.Shutdown(time.Second) })
	return nl.Addr().String(), l
}

// rndWithReference writes a 64×4 random relation and returns its path and
// the FD lines the plaintext protocol prints for it.
func rndWithReference(t *testing.T) (path, want string) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "rnd.csv")
	if err := securefd.WriteCSVFile(path, securefd.GenerateRND(4, 64, 3)); err != nil {
		t.Fatal(err)
	}
	want, err := captureStdout(t, func() error { return run(path, quietOpts("plaintext")) })
	if err != nil || want == "" {
		t.Fatalf("plaintext reference: %q, %v", want, err)
	}
	return path, want
}

// TestRunConnect: -connect drives discovery over the TCP transport against
// a server in another goroutine, with telemetry recording RPC latency; and
// against a server whose listener severs 2 % of frames, the retry layer
// -connect always runs under still returns the plaintext FD set.
func TestRunConnect(t *testing.T) {
	addr, _ := serveTCP(t, securefd.NewServer(), transport.FaultConfig{})

	o := quietOpts("sort")
	o.connect = addr
	o.telemetry = true
	if err := run(writeCSV(t), o); err != nil {
		t.Errorf("run over TCP: %v", err)
	}

	o = quietOpts("sort")
	o.connect = addr
	o.dataDir = t.TempDir()
	if err := run(writeCSV(t), o); err == nil {
		t.Error("-connect with -data-dir accepted; want mutual-exclusion error")
	}

	csv, want := rndWithReference(t)
	addr, drops := serveTCP(t, securefd.NewServer(), transport.FaultConfig{Seed: 5, DropRate: 0.02})
	o = quietOpts("sort")
	o.connect = addr
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

// TestRunConnectServerView: a -connect run leaves the server a log of the
// ciphertext operations it served and of the FD decisions it was shown.
func TestRunConnectServerView(t *testing.T) {
	backend := securefd.NewServer()
	addr, _ := serveTCP(t, backend, transport.FaultConfig{})
	o := quietOpts("sort")
	o.connect = addr
	if err := run(writeCSV(t), o); err != nil {
		t.Fatalf("run over TCP: %v", err)
	}
	if backend.Trace().TotalOps() == 0 {
		t.Error("server saw no operations")
	}
	if len(backend.Reveals()) == 0 {
		t.Error("server log holds no FD decisions")
	}
}

// TestRunConnectFaultyServer: against a server whose store fails 5 % of its
// operations and whose listener severs 1 % of frames, a -connect run still
// returns the plaintext FD set.
func TestRunConnectFaultyServer(t *testing.T) {
	csv, want := rndWithReference(t)
	faulty := securefd.WithFaults(securefd.NewServer(), securefd.FaultConfig{Seed: 2, ErrorRate: 0.05})
	addr, drops := serveTCP(t, faulty, transport.FaultConfig{Seed: 3, DropRate: 0.01})
	o := quietOpts("sort")
	o.connect = addr
	o.retries = 8
	got, err := captureStdout(t, func() error { return run(csv, o) })
	if err != nil {
		t.Fatalf("run against a faulty server: %v", err)
	}
	if got != want {
		t.Errorf("FDs against a faulty server:\n%s\nwant the plaintext set:\n%s", got, want)
	}
	if faulty.Injected() == 0 || drops.Drops() == 0 {
		t.Errorf("%d store faults, %d drops; want both paths exercised", faulty.Injected(), drops.Drops())
	}
}

// TestRunTelemetryJSON: -telemetry-json writes the run's tracer phases —
// lattice levels, candidates and the client's RPCs — next to the registry's
// counters and latency histograms.
func TestRunTelemetryJSON(t *testing.T) {
	addr, _ := serveTCP(t, securefd.NewServer(), transport.FaultConfig{})
	o := quietOpts("sort")
	o.workers = 1
	o.connect = addr
	o.teleJSON = filepath.Join(t.TempDir(), "tel.json")
	if err := run(writeCSV(t), o); err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := os.ReadFile(o.teleJSON)
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

// TestREADMEFlags: README.md documents every flag fddiscover registers and
// names none that it does not.
func TestREADMEFlags(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("fddiscover", flag.ContinueOnError)
	registerFlags(fs, new(options))
	undocumented, unknown := clidoc.Drift(string(readme), "fddiscover", fs)
	if len(undocumented) > 0 {
		t.Errorf("fddiscover flags missing from README.md: %v", undocumented)
	}
	if len(unknown) > 0 {
		t.Errorf("README.md names fddiscover flags that are not registered: %v", unknown)
	}
}
