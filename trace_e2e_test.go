package oblivfd

// End-to-end acceptance check for the distributed-tracing subsystem: a
// discovery run against a replicated 2-server pair over real TCP must yield
// a merged span set in which a lattice-level span causally contains the
// client's transport RPC spans, which contain the primary's dispatch and
// WAL-append spans and its per-peer replication shipments, while the
// replica records the matching apply spans. The per-layer properties live
// in internal/otrace (ring, IDs), internal/transport (constant-size header,
// TraceDump), internal/store (ship/apply spans); this is the composition
// check that the halves actually join into one causal tree.

import (
	"strings"
	"testing"
	"time"

	"github.com/oblivfd/oblivfd/internal/otrace"
	"github.com/oblivfd/oblivfd/securefd"
)

func TestDistributedTraceCausalTree(t *testing.T) {
	nodes := newCluster(t, 2, nodeSetup{trace: true})
	client := otrace.New(otrace.Config{
		Service: "fddiscover", Capacity: 1 << 16, SampleEvery: 1,
	})
	cfg := securefd.DefaultClientConfig()
	cfg.DialTimeout = time.Second
	cfg.Trace = client
	fo, err := securefd.DialTCPFailover([]string{nodes[0].addr, nodes[1].addr}, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fo.Close()

	// Workers: 1 keeps the whole traversal on the discover goroutine, where
	// the lattice-level bindings parent every RPC the level issues.
	db, err := securefd.Outsource(fo, crashRelation(t), securefd.Options{
		Protocol: securefd.ProtocolSort,
		Workers:  1,
		MaxLHS:   2,
		Trace:    client,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Discover(); err != nil {
		t.Fatal(err)
	}

	// Merge exactly as fddiscover -trace-out does: local records plus every
	// reachable server's ring, filtered to the client's trace IDs.
	recs := client.Records()
	clientTraces := map[string]bool{}
	for _, r := range recs {
		clientTraces[r.Trace] = true
	}
	remote, err := fo.TraceDump("")
	if err != nil {
		t.Fatalf("TraceDump: %v", err)
	}
	for _, r := range remote {
		if clientTraces[r.Trace] {
			recs = append(recs, r)
		}
	}

	spans := map[string]otrace.Record{}
	for _, r := range recs {
		spans[r.Span] = r
	}
	// ancestor walks the parent chain looking for a span whose name has the
	// given prefix, the "causally contains" relation of the acceptance
	// criterion.
	ancestor := func(r otrace.Record, prefix string) (otrace.Record, bool) {
		for p, ok := spans[r.Parent]; ok; p, ok = spans[p.Parent] {
			if strings.HasPrefix(p.Name, prefix) {
				return p, true
			}
		}
		return otrace.Record{}, false
	}

	var rpcUnderLevel, serverUnderRPC, walUnderServer, shipUnderLevel int
	shipPeers := map[string]bool{}
	applySpans := 0
	for _, r := range recs {
		switch {
		case strings.HasPrefix(r.Name, "rpc/"):
			if _, ok := ancestor(r, "lattice/level-"); ok {
				rpcUnderLevel++
			}
		case strings.HasPrefix(r.Name, "server/"):
			if _, ok := ancestor(r, "rpc/"); ok {
				serverUnderRPC++
			}
		case r.Name == "wal/append":
			if _, ok := ancestor(r, "server/"); ok {
				walUnderServer++
			}
		case strings.HasPrefix(r.Name, "repl/ship:"):
			shipPeers[strings.TrimPrefix(r.Name, "repl/ship:")] = true
			if _, ok := ancestor(r, "lattice/level-"); ok {
				shipUnderLevel++
			}
		case r.Name == "repl/apply":
			if _, ok := ancestor(r, "repl/ship:"); ok {
				applySpans++
			}
		}
	}
	if rpcUnderLevel == 0 {
		t.Error("no transport RPC span is contained in a lattice-level span")
	}
	if serverUnderRPC == 0 {
		t.Error("no server dispatch span is contained in a client RPC span")
	}
	if walUnderServer == 0 {
		t.Error("no WAL-append span is contained in a server dispatch span")
	}
	if shipUnderLevel == 0 {
		t.Error("no replication-ship span is contained in a lattice-level span")
	}
	if !shipPeers[nodes[1].addr] {
		t.Errorf("ship spans name peers %v, want %s", shipPeers, nodes[1].addr)
	}
	if applySpans == 0 {
		t.Error("the replica recorded no repl/apply spans contained in a shipment span")
	}
	if t.Failed() {
		byName := map[string]int{}
		for _, r := range recs {
			byName[r.Name]++
		}
		t.Logf("span census: %v", byName)
	}
}
