package main

import (
	"errors"
	"flag"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/oblivfd/oblivfd/internal/clidoc"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/transport"
)

func TestServeAcceptsClients(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- serve(l, config{}) }()

	c, err := transport.Dial(l.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := c.CreateArray("a", 4); err != nil {
		t.Fatalf("CreateArray: %v", err)
	}
	if err := c.WriteCells("a", []int64{0}, [][]byte{{1, 2}}); err != nil {
		t.Fatalf("WriteCells: %v", err)
	}
	got, err := c.ReadCells("a", []int64{0})
	if err != nil || len(got) != 1 || len(got[0]) != 2 {
		t.Fatalf("ReadCells = %v, %v", got, err)
	}
	c.Close()
	l.Close()

	select {
	case err := <-done:
		if err != nil {
			t.Errorf("serve returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("serve did not return after listener close")
	}
}

func TestServeWithLatency(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = serve(l, config{latency: 2 * time.Millisecond}) }()

	c, err := transport.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if err := c.CreateArray("a", 1); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 2*time.Millisecond {
		t.Errorf("latency not applied: call took %v", d)
	}
}

// TestServeWithFaultInjection: -fault-rate faults surface to the client as
// store.ErrTransient (retryable), and a retry-wrapped client rides them out.
func TestServeWithFaultInjection(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = serve(l, config{faultRate: 1, faultSeed: 3}) }()

	c, err := transport.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateArray("a", 1); !errors.Is(err, store.ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient through the -fault-rate server", err)
	}
}

// TestServeWithConnDrops: -drop-rate severs connections mid-call; a client
// under the retry layer — which sends a dropped call again while the client
// re-dials for it — still completes every operation.
func TestServeWithConnDrops(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = serve(l, config{dropRate: 0.05, faultSeed: 9}) }()

	c, err := transport.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	svc := store.WithRetry(c, store.RetryPolicy{MaxAttempts: 8, InitialBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond})
	if err := svc.CreateArray("a", 16); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := svc.WriteCells("a", []int64{int64(i % 16)}, [][]byte{{byte(i)}}); err != nil {
			t.Fatalf("write %d through -drop-rate server: %v", i, err)
		}
	}
	if c.Reconnects() == 0 {
		t.Error("no reconnects at 5% drop rate over 101 calls")
	}
}

// parseFlags returns the config fdserver builds from args.
func parseFlags(t *testing.T, args ...string) config {
	t.Helper()
	var cfg config
	fs := flag.NewFlagSet("fdserver", flag.ContinueOnError)
	registerFlags(fs, &cfg)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestRunBadAddress(t *testing.T) {
	if err := run(parseFlags(t, "-listen", "256.256.256.256:0")); err == nil {
		t.Error("bad listen address accepted")
	}
}

// TestRunRefusesNonPositiveShipTimeout: -ship-timeout 0 (or less) is refused
// at startup by name, never replaced by the default.
func TestRunRefusesNonPositiveShipTimeout(t *testing.T) {
	for _, v := range []string{"0", "-1s"} {
		err := run(parseFlags(t, "-listen", "127.0.0.1:0", "-ship-timeout", v))
		if err == nil || !strings.Contains(err.Error(), "-ship-timeout") {
			t.Errorf("-ship-timeout %s: run = %v, want an error naming the flag", v, err)
		}
	}
}

// TestRunRefusesOutOfRangeFlags: a rate outside 0..1, a ring of no spans, a
// negative sampling, scrub or session rate (or a NaN one), and a negative
// duration, session or in-flight cap or fence are refused at startup by name,
// never clamped or read as "off" or a default; the ends of each range, 0 for
// the flags where 0 means off, are accepted.
func TestRunRefusesOutOfRangeFlags(t *testing.T) {
	for _, c := range []struct{ flag, v string }{
		{"fault-rate", "-0.01"}, {"fault-rate", "2"}, {"fault-rate", "NaN"},
		{"drop-rate", "-1"}, {"drop-rate", "1.5"},
		{"corrupt-rate", "-0.5"}, {"corrupt-rate", "2"},
		{"trace-capacity", "0"}, {"trace-capacity", "-4096"},
		{"trace-sample", "-1"},
		{"scrub-rate", "-1"},
		{"latency", "-1ms"},
		{"grace", "-1s"},
		{"max-sessions", "-1"},
		{"max-inflight", "-1"},
		{"session-rate", "-1"}, {"session-rate", "NaN"},
		{"idle-timeout", "-1m"},
		{"scrub-interval", "-1s"},
		{"fence", "-1"},
		{"trace-slow", "-1ms"},
	} {
		err := run(parseFlags(t, "-listen", "127.0.0.1:0", "-"+c.flag, c.v))
		if want := "-" + c.flag + " must be"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-%s %s: run = %v, want an error containing %q", c.flag, c.v, err, want)
		}
	}
	// At the ends of the ranges run gets as far as the (bad) listen address.
	for _, args := range [][]string{
		{"-fault-rate", "1", "-drop-rate", "1", "-corrupt-rate", "1"},
		{"-fault-rate", "0", "-drop-rate", "0", "-corrupt-rate", "0"},
		{"-trace-sample", "0", "-trace-capacity", "1", "-scrub-rate", "0"},
		{"-latency", "0", "-grace", "0", "-max-sessions", "0", "-max-inflight", "0",
			"-session-rate", "0", "-idle-timeout", "0", "-scrub-interval", "0", "-fence", "0", "-trace-slow", "0"},
	} {
		err := run(parseFlags(t, append([]string{"-listen", "256.256.256.256:0"}, args...)...))
		if err == nil || strings.Contains(err.Error(), "must be") {
			t.Errorf("%v: run = %v, want the listen address refused", args, err)
		}
	}
}

// TestDataDirPersistence: shutdown writes a final snapshot, and state
// written before it is visible after a restart on the same -data-dir.
func TestDataDirPersistence(t *testing.T) {
	cfg := config{dataDir: t.TempDir()}

	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- serve(l1, cfg) }()
	c1, err := transport.Dial(l1.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.CreateArray("persist", 2); err != nil {
		t.Fatal(err)
	}
	if err := c1.WriteCells("persist", []int64{1}, [][]byte{{42}}); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	l1.Close()
	if err := <-done; err != nil {
		t.Fatalf("first serve: %v", err)
	}
	// Shutdown wrote a final snapshot, so the restart replays no log.
	if snaps, _ := filepath.Glob(filepath.Join(cfg.dataDir, "snap-*.snap")); len(snaps) != 1 {
		t.Fatalf("snapshots after shutdown = %v, want one", snaps)
	}

	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done2 := make(chan error, 1)
	go func() { done2 <- serve(l2, cfg) }()
	c2, err := transport.Dial(l2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.ReadCells("persist", []int64{1})
	if err != nil {
		t.Fatalf("ReadCells after restart: %v", err)
	}
	if len(got) != 1 || len(got[0]) != 1 || got[0][0] != 42 {
		t.Errorf("restored cell = %v, want [42]", got)
	}
	// The second server writes its final snapshot on the way out; wait for
	// that before TempDir's cleanup removes the directory under it.
	c2.Close()
	l2.Close()
	if err := <-done2; err != nil {
		t.Fatalf("second serve: %v", err)
	}
}

// TestREADMEFlags: README.md documents every flag fdserver registers and
// names none that it does not.
func TestREADMEFlags(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("fdserver", flag.ContinueOnError)
	registerFlags(fs, new(config))
	undocumented, unknown := clidoc.Drift(string(readme), "fdserver", fs)
	if len(undocumented) > 0 {
		t.Errorf("fdserver flags missing from README.md: %v", undocumented)
	}
	if len(unknown) > 0 {
		t.Errorf("README.md names fdserver flags that are not registered: %v", unknown)
	}
}
