package oblivfd

// The replicated cluster every chaos suite at this level runs against:
// failover_test.go kills its primary, scrub_test.go rots and repairs it,
// trace_e2e_test.go traces it.

import (
	"net"
	"testing"
	"time"

	"github.com/oblivfd/oblivfd/internal/otrace"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/transport"
	"github.com/oblivfd/oblivfd/securefd"
)

// clusterNode is one member of a test cluster.
type clusterNode struct {
	addr string
	dir  string
	rep  *store.ReplicatedServer
	ts   *transport.Server
	sc   *store.Scrubber // nil unless the node was set up with scrub
}

// nodeSetup is what a suite may change about one node before it boots.
type nodeSetup struct {
	// durable opens the node's directory: a crash-injection point, a faulty
	// filesystem.
	durable store.DurableOptions
	// scrub runs a background scrubber on an aggressive interval.
	scrub bool
	// trace instruments the node the way fdserver wires a process tracer:
	// store, replication (shipments carry the primary's span context) and RPC
	// dispatch all share it.
	trace *otrace.Tracer
	// drops, when its DropRate is set, serves the node behind a listener
	// that severs connections mid-call on that seeded schedule.
	drops transport.FaultConfig
}

// newCluster boots 1 primary (node 0) + (n-1) replicas over real TCP sockets,
// every node configured with all others as replication peers. perNode, if not
// nil, adjusts each node's setup.
func newCluster(t *testing.T, n int, perNode func(i int, s *nodeSetup)) []*clusterNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		var s nodeSetup
		if perNode != nil {
			perNode(i, &s)
		}
		s.durable.Trace = s.trace
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		dir := t.TempDir()
		d, err := store.OpenDir(dir, s.durable)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := store.Replicated(d, store.ReplicationConfig{
			Primary:     i == 0,
			Peers:       peers,
			RedialEvery: 1,
			Dial: func(addr string) (store.ReplicaConn, error) {
				return transport.DialWith(addr, transport.ClientConfig{
					DialTimeout: time.Second, Trace: s.trace,
				})
			},
			Trace: s.trace,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := transport.NewServer(rep)
		ts.SetReplicator(rep)
		ts.SetTracer(s.trace)
		l := listeners[i]
		if s.drops.DropRate > 0 {
			l = transport.WithConnFaults(l, s.drops)
		}
		go func() { _ = ts.Serve(l) }()
		nodes[i] = &clusterNode{addr: addrs[i], dir: dir, rep: rep, ts: ts}
		if s.scrub {
			sc := store.NewScrubber(d, rep, store.ScrubConfig{Interval: 200 * time.Millisecond})
			sc.Start()
			nodes[i].sc = sc
			t.Cleanup(sc.Close)
		}
		t.Cleanup(func() { ts.Shutdown(0); rep.Close() })
	}
	return nodes
}

// dial connects to the whole cluster and layers the retry policy a real
// deployment would use, so a promotion, a repair or a disk-full shed mid-call
// looks like one more transient fault.
func dial(t *testing.T, nodes []*clusterNode, maxAttempts int) (*transport.FailoverPool, securefd.Service) {
	t.Helper()
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.addr
	}
	cfg := securefd.DefaultClientConfig()
	cfg.DialTimeout = time.Second
	f, err := securefd.DialTCPFailover(addrs, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, securefd.WithRetry(f, securefd.RetryPolicy{
		MaxAttempts:    maxAttempts,
		InitialBackoff: time.Millisecond,
		MaxBackoff:     20 * time.Millisecond,
	})
}
