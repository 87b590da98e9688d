package main

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"github.com/oblivfd/oblivfd/internal/store"
)

// countFS is the benchmark's store.FS, handed to the durable store through
// DurableOptions.FS. It forwards everything to the real filesystem except
// fsync, which it counts and does not issue: in this sandbox an fsync costs
// what the host's disk costs at that moment (the same discovery took
// 18–27 s with it and 1.4 s without), which is the sandbox's latency and not
// the program's. Writes still go through write(2) into files under the
// benchmark's own output directory, and their time is the WAL's share.
type countFS struct {
	store.FS
	tr              *tracer
	nmWrite, nmSync uint16
	walBytes        atomic.Int64
	walSyncs        atomic.Int64
	snapBytes       atomic.Int64
	snapshots       atomic.Int64 // snapshot files renamed into place
}

func newCountFS(tr *tracer, layer string) *countFS {
	return &countFS{FS: store.OSFS, tr: tr, nmWrite: tr.name(layer + "/write"), nmSync: tr.name(layer + "/sync")}
}

func (c *countFS) wrap(f store.File, err error) (store.File, error) {
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c, wal: filepath.Base(f.Name()) == "wal.log"}, nil
}

func (c *countFS) Open(name string) (store.File, error) { return c.wrap(c.FS.Open(name)) }

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	return c.wrap(c.FS.OpenFile(name, flag, perm))
}

func (c *countFS) CreateTemp(dir, pattern string) (store.File, error) {
	return c.wrap(c.FS.CreateTemp(dir, pattern))
}

func (c *countFS) Rename(oldpath, newpath string) error {
	if strings.HasSuffix(newpath, ".snap") {
		c.snapshots.Add(1)
	}
	return c.FS.Rename(oldpath, newpath)
}

type countFile struct {
	store.File
	fs  *countFS
	wal bool
}

func (f *countFile) Write(p []byte) (int, error) {
	rec := f.fs.tr.begin(f.fs.nmWrite)
	n, err := f.File.Write(p)
	f.fs.tr.end(rec)
	if f.wal {
		f.fs.walBytes.Add(int64(n))
	} else {
		f.fs.snapBytes.Add(int64(n))
	}
	return n, err
}

// Sync counts the fsync the store asked for and returns without issuing it.
func (f *countFile) Sync() error {
	f.fs.tr.end(f.fs.tr.begin(f.fs.nmSync))
	if f.wal {
		f.fs.walSyncs.Add(1)
	}
	return nil
}

// shipConn times and counts the primary's replication RPCs; it is what
// ReplicationConfig.Dial returns.
type shipConn struct {
	store.ReplicaConn
	tr      *tracer
	nm      uint16
	batches *atomic.Int64
	bytes   *atomic.Int64
}

func (c *shipConn) Replicate(fence, seq int64, frames [][]byte) error {
	c.batches.Add(1)
	c.bytes.Add(sumLen(frames))
	defer c.tr.end(c.tr.begin(c.nm))
	return c.ReplicaConn.Replicate(fence, seq, frames)
}

// countListener counts the bytes of every accepted connection, both ways:
// the wire size of the client's traffic as the server's socket sees it.
type countListener struct {
	net.Listener
	rx, tx atomic.Int64
}

func (l *countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: c, l: l}, nil
}

type countConn struct {
	net.Conn
	l *countListener
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.rx.Add(int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.tx.Add(int64(n))
	return n, err
}
