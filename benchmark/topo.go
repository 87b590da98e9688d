package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/transport"
)

type topoKind int

const (
	topoMem  topoKind = iota // engine → seam → store.Server, one process, no wire
	topoTCP                  // engine → seam → transport.Client ⇄ transport.Server → [seam] → store.Server
	topoRepl                 // as topoTCP, the store a durable primary shipping to one durable replica over TCP
)

// topology is one running client-plus-servers arrangement. Everything in it
// is built from the layers' public constructors; the benchmark's own pieces
// are the seams and the I/O wrappers.
type topology struct {
	client *seam // outermost: what the engine is handed
	server *seam // innermost seam: nil unless traced and on TCP; on topoMem it is client

	conn     *transport.Client
	listener *countListener
	primary  *store.ReplicatedServer
	fs       *countFS // primary's

	shipBatches, shipBytes atomic.Int64

	dataDir string
	stop    []func() error // run in reverse order
}

// dialCfg keeps the transport's defaults but fails fast: a dead loopback
// server is a bug in the benchmark, not something to ride out.
func dialCfg() transport.ClientConfig {
	cfg := transport.DefaultClientConfig()
	cfg.DialTimeout = 2 * time.Second
	return cfg
}

// serve starts a transport.Server on a loopback listener and registers its
// shutdown, which waits for the accept loop to return.
func (t *topology) serve(ts *transport.Server, count bool) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	if count {
		t.listener = &countListener{Listener: l}
		l = t.listener
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = ts.Serve(l)
	}()
	t.stop = append(t.stop, func() error {
		ts.Shutdown(0)
		wg.Wait()
		return nil
	})
	return l.Addr().String(), nil
}

// openNode opens one durable, replicated store in its own directory.
func (t *topology) openNode(name string, fs *countFS, cfg store.ReplicationConfig) (*store.ReplicatedServer, error) {
	dir := filepath.Join(t.dataDir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d, err := store.OpenDir(dir, store.DurableOptions{FS: fs})
	if err != nil {
		return nil, err
	}
	rep, err := store.Replicated(d, cfg)
	if err != nil {
		d.Close()
		return nil, err
	}
	t.stop = append(t.stop, rep.Close)
	return rep, nil
}

// startTopology builds the arrangement. tr is nil on an untraced run, which
// then has exactly one seam (the counting one) and no I/O wrappers beyond the
// fsync-eliding FS. dataRoot is where topoRepl keeps its two data
// directories; they are removed on close. wrap, nil outside tests, is put
// around the store itself, beneath every seam.
func startTopology(kind topoKind, tr *tracer, dataRoot string, wrap func(store.Service) store.Service) (t *topology, err error) {
	t = &topology{}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	traced := tr != nil

	var backend store.Service
	switch kind {
	case topoMem, topoTCP:
		backend = store.NewServer()
	case topoRepl:
		if err := os.MkdirAll(dataRoot, 0o755); err != nil {
			return nil, err
		}
		if t.dataDir, err = os.MkdirTemp(dataRoot, "data-"); err != nil {
			return nil, err
		}
		t.stop = append(t.stop, func() error { return os.RemoveAll(t.dataDir) })
		replica, err := t.openNode("replica", newCountFS(tr, "replica-fs"), store.ReplicationConfig{})
		if err != nil {
			return nil, err
		}
		rts := transport.NewServer(replica)
		rts.SetReplicator(replica)
		raddr, err := t.serve(rts, false)
		if err != nil {
			return nil, err
		}
		nmShip := tr.name("ship/replicate")
		t.fs = newCountFS(tr, "fs")
		t.primary, err = t.openNode("primary", t.fs, store.ReplicationConfig{
			Primary: true, Peers: []string{raddr}, RedialEvery: 1,
			Dial: func(addr string) (store.ReplicaConn, error) {
				c, err := transport.DialWith(addr, dialCfg())
				if err != nil {
					return nil, err
				}
				return &shipConn{ReplicaConn: c, tr: tr, nm: nmShip, batches: &t.shipBatches, bytes: &t.shipBytes}, nil
			},
		})
		if err != nil {
			return nil, err
		}
		backend = t.primary
	default:
		return nil, fmt.Errorf("unknown topology %d", kind)
	}
	if wrap != nil {
		backend = wrap(backend)
	}

	if kind == topoMem {
		t.client = newSeam(backend, tr, "store")
		t.server = t.client
		return t, nil
	}
	if traced {
		t.server = newSeam(backend, tr, "store")
		backend = t.server
	}
	ts := transport.NewServer(backend)
	if t.primary != nil {
		ts.SetReplicator(t.primary)
	}
	addr, err := t.serve(ts, traced)
	if err != nil {
		return nil, err
	}
	if t.conn, err = transport.DialWith(addr, dialCfg()); err != nil {
		return nil, err
	}
	t.stop = append(t.stop, t.conn.Close)
	t.client = newSeam(t.conn, tr, "transport")
	return t, nil
}

// counts reads the client seam, the server seam (zero when there is none)
// and the bytes the client-facing listener has moved (likewise).
func (t *topology) counts() (client, server seamCounts, wire int64) {
	client = t.client.counts()
	if t.server != nil {
		server = t.server.counts()
	}
	if t.listener != nil {
		wire = t.listener.rx.Load() + t.listener.tx.Load()
	}
	return client, server, wire
}

// close stops everything the topology started, newest first, and waits.
func (t *topology) close() error {
	var first error
	for i := len(t.stop) - 1; i >= 0; i-- {
		if err := t.stop[i](); err != nil && first == nil {
			first = err
		}
	}
	t.stop = nil
	return first
}
