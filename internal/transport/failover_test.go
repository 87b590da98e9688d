package transport

import (
	"bytes"
	"errors"
	"net"
	"testing"

	"github.com/oblivfd/oblivfd/internal/store"
)

// replNode is one member of an in-process replicated cluster: a durable
// store wrapped with a replication role, served over a real TCP socket.
type replNode struct {
	addr string
	dir  string
	rep  *store.ReplicatedServer
	ts   *Server
}

// kill closes the node's listener and every live connection, simulating the
// server process dying mid-run.
func (n *replNode) kill() { n.ts.Shutdown(0) }

// startReplCluster boots n nodes (node 0 primary, the rest replicas), each
// configured with every other node as a replication peer so whoever ends up
// primary ships to the survivors.
func startReplCluster(t *testing.T, n int) []*replNode {
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
	dial := func(addr string) (store.ReplicaConn, error) {
		return DialWith(addr, ClientConfig{})
	}
	nodes := make([]*replNode, n)
	for i := range nodes {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		dir := t.TempDir()
		d, err := store.OpenDir(dir, store.DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := store.Replicated(d, store.ReplicationConfig{
			Primary:     i == 0,
			Peers:       peers,
			RedialEvery: 1,
			Dial:        dial,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := NewServer(rep)
		ts.SetReplicator(rep)
		go func(l net.Listener) { _ = ts.Serve(l) }(listeners[i])
		nodes[i] = &replNode{addr: addrs[i], dir: dir, rep: rep, ts: ts}
		t.Cleanup(func() { ts.Shutdown(0); rep.Close() })
	}
	return nodes
}

func clusterAddrs(nodes []*replNode) []string {
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.addr
	}
	return addrs
}

func TestFailoverPoolSurvivesPrimaryDeath(t *testing.T) {
	nodes := startReplCluster(t, 3)
	f, err := DialFailover(clusterAddrs(nodes), 2, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if addr, fence := f.Primary(); addr != nodes[0].addr || fence != 1 {
		t.Fatalf("initial primary = %s fence %d, want %s fence 1", addr, fence, nodes[0].addr)
	}

	if err := f.CreateArray("a", 8); err != nil {
		t.Fatal(err)
	}
	want := [][]byte{{1, 2}, {3}}
	if err := f.WriteCells("a", []int64{0, 5}, want); err != nil {
		t.Fatal(err)
	}

	nodes[0].kill()

	// The next operations ride through the failover: the pool promotes the
	// freshest replica at fence 2, the retry layer sends the failed call
	// again there, and the replicated data is all there.
	svc := retried(f)
	got, err := svc.ReadCells("a", []int64{0, 5})
	if err != nil {
		t.Fatalf("read after primary death: %v", err)
	}
	if !bytes.Equal(got[0], want[0]) || !bytes.Equal(got[1], want[1]) {
		t.Fatalf("cells after failover = %v, want %v", got, want)
	}
	if err := svc.WriteCells("a", []int64{7}, [][]byte{{9}}); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
	if n := f.Failovers(); n < 1 {
		t.Errorf("failovers = %d, want >= 1", n)
	}
	addr, fence := f.Primary()
	if addr == nodes[0].addr || fence != 2 {
		t.Errorf("post-failover primary = %s fence %d, want a replica at fence 2", addr, fence)
	}
	st, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Primary || st.Fence != 2 || st.Failovers < 1 {
		t.Errorf("stats after failover = %+v", st)
	}

	// The new primary ships to the remaining replica; after one more write
	// the survivor's watermark moves.
	var survivor *replNode
	for _, n := range nodes[1:] {
		if n.addr != addr {
			survivor = n
		}
	}
	if survivor.rep.Watermark() == 0 {
		t.Error("surviving replica never received the new primary's stream")
	}
}

func TestFencedExPrimaryCannotServe(t *testing.T) {
	nodes := startReplCluster(t, 3)
	f, err := DialFailover(clusterAddrs(nodes), 1, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.CreateArray("a", 4); err != nil {
		t.Fatal(err)
	}
	nodes[0].kill()
	if err := retried(f).WriteCells("a", []int64{0}, [][]byte{{1}}); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
	if err := nodes[0].rep.Close(); err != nil {
		t.Fatal(err)
	}

	// The ex-primary restarts with its old flags and old fence, oblivious to
	// the promotion that happened while it was dead.
	d, err := store.OpenDir(nodes[0].dir, store.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := store.Replicated(d, store.ReplicationConfig{Primary: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := NewServer(rep)
	ts.SetReplicator(rep)
	go func() { _ = ts.Serve(l) }()
	defer ts.Shutdown(0)

	// A fence-aware client refuses it — and the refusal teaches the
	// ex-primary the newer fence, deposing it durably.
	_, fence := f.Primary()
	if fence != 2 {
		t.Fatalf("cluster fence = %d, want 2", fence)
	}
	if _, err := DialPoolWith(l.Addr().String(), 1, ClientConfig{Fence: fence}); !errors.Is(err, store.ErrFenced) {
		t.Fatalf("fence-aware dial of ex-primary = %v, want ErrFenced", err)
	}
	if rep.IsPrimary() {
		t.Fatal("ex-primary still claims the role after observing the newer fence")
	}

	// Even a legacy fence-less client cannot make it apply writes now.
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteCells("a", []int64{0}, [][]byte{{0xBB}}); !errors.Is(err, store.ErrFenced) {
		t.Fatalf("write to fenced ex-primary = %v, want ErrFenced", err)
	}
}

func TestFailoverPoolPlainServerPassthrough(t *testing.T) {
	// A failover pool pointed at an unreplicated server (seed-era deployment)
	// behaves like an ordinary pool: no fence, no promotion attempts.
	backend := store.NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = Serve(l, backend) }()
	defer l.Close()
	f, err := DialFailover([]string{l.Addr().String()}, 1, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, fence := f.Primary(); fence != 0 {
		t.Fatalf("plain-server fence = %d, want 0", fence)
	}
	if err := f.CreateArray("p", 2); err != nil {
		t.Fatal(err)
	}
	if n, err := f.ArrayLen("p"); err != nil || n != 2 {
		t.Fatalf("ArrayLen = %d, %v", n, err)
	}
}

// serveRep exposes one replicated store over TCP with the replication
// handshake wired, returning its address.
func serveRep(t *testing.T, rep *store.ReplicatedServer, limits store.SessionLimits) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ts := NewServer(rep)
	ts.SetSessionLimits(limits)
	ts.SetReplicator(rep)
	go func() { _ = ts.Serve(l) }()
	t.Cleanup(func() { ts.Shutdown(0); rep.Close() })
	return l.Addr().String()
}

// replicaAt builds a replica-role server positioned at the given fencing
// epoch and stream watermark, the coordinates the promotion logic ranks by.
func replicaAt(t *testing.T, fence, watermark int64) *store.ReplicatedServer {
	t.Helper()
	d, err := store.OpenDir(t.TempDir(), store.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := store.Replicated(d, store.ReplicationConfig{Primary: false})
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := store.NewServer().SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := rep.ApplySync(fence, watermark, snap.Bytes()); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestPromotionPrefersNewestFence: watermarks are per-reign stream
// positions, so a replica stranded in an older fencing epoch must lose the
// promotion to a newest-fence survivor even when its watermark is
// numerically far higher — promoting the stranded one would resurrect a
// superseded history fork.
func TestPromotionPrefersNewestFence(t *testing.T) {
	staleAddr := serveRep(t, replicaAt(t, 1, 100), store.SessionLimits{})
	freshAddr := serveRep(t, replicaAt(t, 2, 5), store.SessionLimits{})

	f, err := DialFailover([]string{staleAddr, freshAddr}, 1, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	addr, fence := f.Primary()
	if addr != freshAddr {
		t.Fatalf("promoted %s (old reign, watermark 100), want %s (newest fence)", addr, freshAddr)
	}
	if fence != 3 {
		t.Errorf("promotion fence = %d, want 3 (above every fence seen)", fence)
	}
}

// TestUnauthenticatedHelloCannotFence: the fence claim in a handshake is
// state-changing (it can durably depose the primary), so on a
// token-protected server it must be refused with ErrUnauthorized before the
// fence is acted on — reaching the port must not be enough to fence the
// cluster off.
func TestUnauthenticatedHelloCannotFence(t *testing.T) {
	d, err := store.OpenDir(t.TempDir(), store.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := store.Replicated(d, store.ReplicationConfig{Primary: true})
	if err != nil {
		t.Fatal(err)
	}
	addr := serveRep(t, rep, store.SessionLimits{Token: "s3cret"})

	if _, err := DialWith(addr, ClientConfig{Fence: 99, Token: "wrong"}); !errors.Is(err, store.ErrUnauthorized) {
		t.Fatalf("bad-token fence-bearing dial = %v, want ErrUnauthorized", err)
	}
	if !rep.IsPrimary() || rep.Fence() != 1 {
		t.Fatalf("unauthenticated hello changed the role: primary=%v fence=%d", rep.IsPrimary(), rep.Fence())
	}

	// The genuine token still exercises the fence-aware handshake: a higher
	// client fence deposes the stale primary exactly as before.
	if _, err := DialWith(addr, ClientConfig{Fence: 99, Token: "s3cret"}); !errors.Is(err, store.ErrFenced) {
		t.Fatalf("authenticated fence-bearing dial = %v, want ErrFenced", err)
	}
	if rep.IsPrimary() || rep.Fence() != 99 {
		t.Fatalf("authenticated higher fence did not depose: primary=%v fence=%d", rep.IsPrimary(), rep.Fence())
	}
}
