package oblivfd

// The harness every suite at this level runs on. serveTCP puts a Service
// behind a loopback listener, newCluster boots a replicated cluster of them,
// dialPool and dial connect the way fddiscover -connect and -servers do, and a
// scenario is one outsource-discover run checked against the plaintext
// oracle (or against the error it must end in). The decorators at the bottom
// observe a run without unfusing its batches, so what they observe is the
// program users run.

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/oblivfd/oblivfd/internal/baseline"
	"github.com/oblivfd/oblivfd/internal/otrace"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/transport"
	"github.com/oblivfd/oblivfd/securefd"
)

// crashRelation is small but deep enough to cross several lattice levels
// (several checkpoint epochs).
func crashRelation(t *testing.T) *securefd.Relation {
	t.Helper()
	schema, err := securefd.NewSchema("A", "B", "C", "D")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := securefd.FromRows(schema, []securefd.Row{
		{"a1", "b1", "c1", "d1"},
		{"a1", "b1", "c2", "d1"},
		{"a2", "b2", "c1", "d1"},
		{"a2", "b2", "c3", "d2"},
		{"a3", "b1", "c2", "d2"},
		{"a3", "b1", "c1", "d1"},
		{"a4", "b2", "c3", "d2"},
		{"a4", "b2", "c2", "d1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

var (
	// sortOpts is the Sort discovery the chaos, failover, scrub and
	// multi-tenant scenarios run: two workers, determinants of up to two
	// attributes.
	sortOpts = securefd.Options{Protocol: securefd.ProtocolSort, Workers: 2, MaxLHS: 2}
	// crashOpts is the Or-ORAM discovery the crash and tamper scenarios run.
	crashOpts = securefd.Options{Protocol: securefd.ProtocolORAM}
	// crashRuns are the discoveries the crash scenarios kill and resume:
	// crashOpts, and Sort on two workers, which a checkpoint records.
	crashRuns = []securefd.Options{crashOpts, {Protocol: securefd.ProtocolSort, Workers: 2}}
)

// oracles memoizes the oracle per relation: it walks the whole lattice,
// whatever MaxLHS cuts, and several scenarios discover one relation.
var oracles sync.Map // *securefd.Relation → []relation.FD

// oracle is the plaintext TANE oracle's FD set of rel, cut to determinants
// of at most maxLHS attributes when maxLHS is set, as Options.MaxLHS cuts
// discovery.
func oracle(rel *securefd.Relation, maxLHS int) []relation.FD {
	all, ok := oracles.Load(rel)
	if !ok {
		all, _ = oracles.LoadOrStore(rel, baseline.MinimalFDs(rel))
	}
	var cut []relation.FD
	for _, fd := range all.([]relation.FD) {
		if maxLHS <= 0 || fd.LHS.Size() <= maxLHS {
			cut = append(cut, fd)
		}
	}
	return cut
}

// errAny is a scenario's want when any error will do: a client with no
// fault tolerance fails on whichever fault it meets first.
var errAny = errors.New("any error")

// scenario is one outsource-discover-compare run.
type scenario struct {
	rel  *securefd.Relation // nil: crashRelation
	opts securefd.Options
	// ckpt, when set, makes the run resumable, checkpointed at every level.
	ckpt string
	// mid runs between upload and discovery: the damage a scenario lands
	// once the data is up.
	mid func(db *securefd.Database)
	// then runs after a discovery that met want, before the database
	// closes.
	then func(db *securefd.Database, rep *securefd.Report)
	// want is the error the run must end in (errors.Is), or nil for the
	// oracle's FD set.
	want error
}

// run outsources through svc, discovers, closes the database and requires
// sc.want, returning the report (nil unless discovery succeeded) and the
// error. It reports through t.Errorf only, so concurrent clients may share t.
func (sc scenario) run(t *testing.T, svc securefd.Service) (*securefd.Report, error) {
	t.Helper()
	rel := sc.rel
	if rel == nil {
		rel = crashRelation(t)
	}
	db, err := securefd.Outsource(svc, rel, sc.opts)
	var rep *securefd.Report
	if err == nil {
		defer db.Close()
		if sc.mid != nil {
			sc.mid(db)
		}
		if sc.ckpt != "" {
			rep, err = db.DiscoverResumable(sc.ckpt)
		} else {
			rep, err = db.Discover()
		}
	}
	switch {
	case sc.want == nil && err != nil:
		t.Errorf("discovery: %v", err)
		return nil, err
	case sc.want == nil && !relation.FDSetEqual(rep.Minimal, oracle(rel, sc.opts.MaxLHS)):
		t.Errorf("FDs = %v, want oracle %v", rep.Minimal, oracle(rel, sc.opts.MaxLHS))
	case sc.want == errAny && err == nil:
		t.Error("discovery succeeded; want it to fail")
	case sc.want != nil && sc.want != errAny && !errors.Is(err, sc.want):
		t.Errorf("err = %v, want errors.Is(%v)", err, sc.want)
	case sc.then != nil && db != nil:
		sc.then(db, rep)
	}
	return rep, err
}

// listen opens a loopback listener.
func listen(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return l
}

// serving is what serveTCP may add to a plain listener.
type serving struct {
	l      net.Listener          // nil: a fresh loopback listener
	drops  transport.FaultConfig // severs connections mid-call when DropRate is set
	limits store.SessionLimits
	rep    *store.ReplicatedServer // answers replication frames and fences handshakes
	trace  *otrace.Tracer
}

// endpoint is one served Service.
type endpoint struct {
	addr  string
	ts    *transport.Server
	drops *transport.FaultyListener // nil unless serving.drops was set
}

// serveTCP serves svc over TCP until the test ends.
func serveTCP(t *testing.T, svc store.Service, s serving) endpoint {
	t.Helper()
	l := s.l
	if l == nil {
		l = listen(t)
	}
	e := endpoint{addr: l.Addr().String(), ts: transport.NewServer(svc)}
	if s.drops.DropRate > 0 {
		e.drops = transport.WithConnFaults(l, s.drops)
		l = e.drops
	}
	e.ts.SetSessionLimits(s.limits)
	if s.rep != nil {
		e.ts.SetReplicator(s.rep)
	}
	e.ts.SetTracer(s.trace)
	go func() { _ = e.ts.Serve(l) }()
	t.Cleanup(func() { e.ts.Shutdown(0) })
	return e
}

// serveChaos serves a fresh store under the chaos fault mix: 3 % transient
// errors and 3 % latency spikes at the storage layer, 2 % of frames severing
// their connection at the transport layer, all on schedules seeded by seed.
func serveChaos(t *testing.T, seed int64) (*store.FaultService, endpoint) {
	faulty := store.WithFaults(store.NewServer(), store.FaultConfig{
		Seed:      seed,
		ErrorRate: 0.03,
		SpikeRate: 0.03,
		Spike:     200 * time.Microsecond,
	})
	return faulty, serveTCP(t, faulty, serving{drops: transport.FaultConfig{Seed: seed + 1, DropRate: 0.02}})
}

// retry layers the retry policy a deployment would use over svc, so a
// transient fault, a shed, a promotion, a repair or a disk-full window
// mid-call is one more retry.
func retry(svc store.Service, attempts int) *store.RetryService {
	return store.WithRetry(svc, store.RetryPolicy{
		MaxAttempts:    attempts,
		InitialBackoff: time.Millisecond,
		MaxBackoff:     20 * time.Millisecond,
		Seed:           9,
	})
}

// dialPool connects to one server as fddiscover -connect does — a re-dialing
// pool of conns connections in namespace db — under the retry policy.
func dialPool(t *testing.T, addr string, conns int, db string, attempts int) *store.RetryService {
	t.Helper()
	cfg := transport.ClientConfig{CallTimeout: 10 * time.Second, DialTimeout: 2 * time.Second, Database: db}
	pool, err := transport.DialPoolWith(addr, conns, cfg)
	if err != nil {
		t.Fatalf("dial %s as %q: %v", addr, db, err)
	}
	t.Cleanup(func() { pool.Close() })
	return retry(pool, attempts)
}

// clusterNode is one member of a test cluster.
type clusterNode struct {
	endpoint
	dir string
	rep *store.ReplicatedServer
	sc  *store.Scrubber // nil unless the cluster was set up with scrub
}

// nodeSetup is what a scenario may change about its cluster before it boots.
type nodeSetup struct {
	// primary opens node 0's directory: a crash-injection point, a faulty
	// filesystem.
	primary store.DurableOptions
	// drops, when its DropRate is set, serves node 0 behind a listener that
	// severs connections mid-call on that seeded schedule.
	drops transport.FaultConfig
	// scrub runs a background scrubber on every node, on an aggressive
	// interval.
	scrub bool
	// trace gives every node a process tracer of its own, wired the way
	// fdserver wires one: store, replication (shipments carry the primary's
	// span context) and RPC dispatch all share it.
	trace bool
}

// newCluster boots 1 primary (node 0) + (n-1) replicas over real TCP sockets,
// every node configured with all others as replication peers.
func newCluster(t *testing.T, n int, s nodeSetup) []*clusterNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		listeners[i] = listen(t)
		addrs[i] = listeners[i].Addr().String()
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		var tr *otrace.Tracer
		if s.trace {
			tr = otrace.New(otrace.Config{Service: fmt.Sprintf("fdserver-%d", i), Capacity: 1 << 16, SampleEvery: 1})
		}
		var opts store.DurableOptions
		serve := serving{l: listeners[i], trace: tr}
		if i == 0 {
			opts, serve.drops = s.primary, s.drops
		}
		opts.Trace = tr
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		dir := t.TempDir()
		d, err := store.OpenDir(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := store.Replicated(d, store.ReplicationConfig{
			Primary:     i == 0,
			Peers:       peers,
			RedialEvery: 1,
			Dial: func(addr string) (store.ReplicaConn, error) {
				return transport.DialWith(addr, transport.ClientConfig{DialTimeout: time.Second, Trace: tr})
			},
			Trace: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rep.Close() })
		serve.rep = rep
		nodes[i] = &clusterNode{endpoint: serveTCP(t, rep, serve), dir: dir, rep: rep}
		if s.scrub {
			nodes[i].sc = store.NewScrubber(d, rep, store.ScrubConfig{Interval: 200 * time.Millisecond})
			nodes[i].sc.Start()
			t.Cleanup(nodes[i].sc.Close)
		}
	}
	return nodes
}

// dial connects to the whole cluster as fddiscover -servers does — a failover
// pool of two connections a server — under the retry policy.
func dial(t *testing.T, nodes []*clusterNode, attempts int) (*transport.FailoverPool, securefd.Service) {
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
	return f, retry(f, attempts)
}

// openDir opens a durable server on dir.
func openDir(t *testing.T, dir string, opts securefd.DurableOptions) *securefd.DurableServer {
	t.Helper()
	srv, err := securefd.OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// count is how many of op's operations — op itself, or each op of a batch —
// are of one of kinds.
func count(op *store.Op, kinds ...store.Kind) (n int64) {
	if op.Kind != store.KindBatch && slices.Contains(kinds, op.Kind) {
		n++
	}
	for i := range op.Ops {
		if slices.Contains(kinds, op.Ops[i].Kind()) {
			n++
		}
	}
	return n
}

// writes are the operations a crash point counts.
var writes = []store.Kind{store.KindWriteCells, store.KindWritePath}

// meter observes where, in WAL-append and client-write counts, each
// checkpoint epoch lands: the coordinates crash points are placed in (a run
// that never checkpointed has nothing to resume).
type meter struct {
	store.Adapter
	opts           securefd.Options // the discovery measured
	srv            *securefd.DurableServer
	writes         atomic.Int64 // a Sort run's workers write concurrently
	appendsAtEpoch map[int64]int64
	writesAtEpoch  map[int64]int64
}

func newMeter(srv *securefd.DurableServer) *meter {
	m := &meter{srv: srv, appendsAtEpoch: make(map[int64]int64), writesAtEpoch: make(map[int64]int64)}
	m.Adapter = store.Adapt(func(op *store.Op, res *store.Result) error {
		m.writes.Add(count(op, writes...))
		if err := store.Invoke(srv, op, res); err != nil || op.Kind != store.KindCheckpoint {
			return err
		}
		m.appendsAtEpoch[op.Value] = srv.WALAppends()
		m.writesAtEpoch[op.Value] = m.writes.Load()
		return nil
	})
	return m
}

// measure runs a clean resumable discovery with opts on a durable server
// through a meter: the report a crashed run must reproduce, and the
// coordinates to crash it at.
func measure(t *testing.T, opts securefd.Options) (*securefd.Report, *meter) {
	t.Helper()
	dir := t.TempDir()
	srv := openDir(t, dir, securefd.DurableOptions{})
	defer srv.Close()
	m := newMeter(srv)
	m.opts = opts
	rep, err := scenario{opts: opts, ckpt: filepath.Join(dir, "run.ckpt")}.run(t, m)
	if err != nil {
		t.FailNow()
	}
	return rep, m
}

var errClientCrash = errors.New("simulated client crash")

// dying simulates a client crash: the call carrying the nth write a meter
// counts is forwarded to svc (its mutations land, as they would if the
// process died after the server applied them but before the ack was
// processed) and then reported as errClientCrash, aborting the discovery.
func dying(svc store.Service, n int64) store.Service {
	var left atomic.Int64 // a Sort run's workers write concurrently
	left.Store(n)
	return store.Adapt(func(op *store.Op, res *store.Result) error {
		if err := store.Invoke(svc, op, res); err != nil {
			return err
		}
		if left.Add(-count(op, writes...)) <= 0 {
			return errClientCrash
		}
		return nil
	})
}

// readCounter counts successful payload reads — ReadCells and ReadPath, one
// per op inside a batch too, as FaultConfig.CorruptAfterReads does — so
// tamper points can be placed deterministically: the storage call sequence
// of a discovery run is a pure function of the relation and options, so a
// clean run's read count maps corruption offsets onto every phase of a
// tampered run.
type readCounter struct {
	store.Adapter
	reads int64
}

func newReadCounter(svc store.Service) *readCounter {
	r := &readCounter{}
	r.Adapter = store.Adapt(func(op *store.Op, res *store.Result) error {
		if err := store.Invoke(svc, op, res); err != nil {
			return err
		}
		r.reads += count(op, store.KindReadCells, store.KindReadPath)
		return nil
	})
	return r
}

// TestDecoratorsKeepBatchesFused: an Or-ORAM discovery takes as many rounds
// through each decorator the crash and tamper scenarios observe it with as it
// takes without one. A decorator that is no store.Batcher splits every fused
// round into one round per op, and the scenario then tests another program
// than the one users run.
func TestDecoratorsKeepBatchesFused(t *testing.T) {
	rounds := func(wrap func(*securefd.DurableServer) store.Service) int64 {
		srv := openDir(t, t.TempDir(), securefd.DurableOptions{})
		defer srv.Close()
		rc := store.WithRoundCounter(wrap(srv))
		scenario{opts: crashOpts}.run(t, rc)
		return rc.Rounds()
	}
	want := rounds(func(srv *securefd.DurableServer) store.Service { return srv })
	for name, wrap := range map[string]func(*securefd.DurableServer) store.Service{
		"meter":       func(srv *securefd.DurableServer) store.Service { return newMeter(srv) },
		"dying":       func(srv *securefd.DurableServer) store.Service { return dying(srv, 1<<62) },
		"readCounter": func(srv *securefd.DurableServer) store.Service { return newReadCounter(srv) },
	} {
		if got := rounds(wrap); got != want {
			t.Errorf("%s: %d rounds, want the %d of a run without it", name, got, want)
		}
	}
	t.Logf("%d rounds through every decorator", want)
}
