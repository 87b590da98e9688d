package store

import (
	"strings"
	"testing"

	"github.com/oblivfd/oblivfd/internal/otrace"
	"github.com/oblivfd/oblivfd/internal/telemetry"
)

// openReplicated opens a durable server in a temp dir and wraps it in
// replication with the given config extras applied.
func openReplicated(t *testing.T, cfg ReplicationConfig) *ReplicatedServer {
	t.Helper()
	d, err := OpenDir(t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Replicated(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestRoleGaugesOnReplica: satellite check that replicas — not just the
// primary's ship() path — publish role, fence, and watermark gauges, and
// keep them fresh across apply, promotion, and deposition.
func TestRoleGaugesOnReplica(t *testing.T) {
	reg := telemetry.New()
	rep := openReplicated(t, ReplicationConfig{Primary: false, Metrics: reg})

	role := reg.Gauge("oblivfd_replication_role")
	fence := reg.Gauge("oblivfd_replication_fence")
	watermark := reg.Gauge("oblivfd_replication_watermark")
	if role.Value() != 0 {
		t.Fatalf("replica role gauge = %d, want 0", role.Value())
	}
	if fence.Value() != 1 {
		t.Fatalf("initial fence gauge = %d, want 1", fence.Value())
	}

	// Applying a shipped frame advances the watermark gauge.
	frame, err := encodeWALRecord(&Op{Kind: KindCreateArray, Name: "a", N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.ApplyReplicated(otrace.SpanContext{}, 1, 0, [][]byte{frame}); err != nil {
		t.Fatal(err)
	}
	if watermark.Value() != 1 {
		t.Fatalf("watermark gauge = %d, want 1", watermark.Value())
	}

	// Promotion flips the role gauge and bumps the fence gauge.
	if _, err := rep.Promote(5); err != nil {
		t.Fatal(err)
	}
	if role.Value() != 1 {
		t.Fatalf("promoted role gauge = %d, want 1", role.Value())
	}
	if fence.Value() != 5 {
		t.Fatalf("promoted fence gauge = %d, want 5", fence.Value())
	}

	// A higher fence from a successor deposes this server: role drops back.
	if err := rep.ObserveFence(9); err != nil {
		t.Fatal(err)
	}
	if role.Value() != 0 {
		t.Fatalf("deposed role gauge = %d, want 0", role.Value())
	}
	if fence.Value() != 9 {
		t.Fatalf("deposed fence gauge = %d, want 9", fence.Value())
	}
}

// TestPrimaryRoleGauge: the primary publishes role=1 from construction and
// drops to 0 when fenced out by a successor.
func TestPrimaryRoleGauge(t *testing.T) {
	reg := telemetry.New()
	p := openReplicated(t, ReplicationConfig{Primary: true, Metrics: reg})
	role := reg.Gauge("oblivfd_replication_role")
	if role.Value() != 1 {
		t.Fatalf("primary role gauge = %d, want 1", role.Value())
	}
	if err := p.ObserveFence(3); err != nil {
		t.Fatal(err)
	}
	if role.Value() != 0 {
		t.Fatalf("fenced-out primary role gauge = %d, want 0", role.Value())
	}
	if reg.Gauge("oblivfd_replication_fence").Value() != 3 {
		t.Fatalf("fence gauge = %d, want 3", reg.Gauge("oblivfd_replication_fence").Value())
	}
}

// TestReplicationShipSpans: a traced primary records one repl/ship span per
// peer shipment and replicas record repl/apply spans, so a merged artifact
// shows where replication time goes.
func TestReplicationShipSpans(t *testing.T) {
	rtr := otrace.New(otrace.Config{Service: "replica", SampleEvery: 1})
	replica := openReplicated(t, ReplicationConfig{Primary: false, Trace: rtr})

	ptr := otrace.New(otrace.Config{Service: "primary", SampleEvery: 1})
	d, err := OpenDir(t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Replicated(d, ReplicationConfig{
		Primary:     true,
		Peers:       []string{"replica-0"},
		RedialEvery: 1,
		Trace:       ptr,
		Dial:        func(string) (ReplicaConn, error) { return loopConn{replica}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	if err := p.CreateArray("a", 4); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteCells("a", []int64{0}, [][]byte{{1}}); err != nil {
		t.Fatal(err)
	}

	ships := 0
	for _, r := range ptr.Records() {
		if strings.HasPrefix(r.Name, "repl/ship:") {
			if r.Name != "repl/ship:replica-0" {
				t.Fatalf("ship span names peer %q", r.Name)
			}
			ships++
		}
	}
	if ships == 0 {
		t.Fatalf("primary recorded no repl/ship spans: %v", recordNames(ptr.Records()))
	}
	applies := 0
	for _, r := range rtr.Records() {
		if r.Name == "repl/apply" {
			applies++
		}
	}
	if applies == 0 {
		t.Fatalf("replica recorded no repl/apply spans: %v", recordNames(rtr.Records()))
	}
}

func recordNames(recs []otrace.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Name
	}
	return out
}
