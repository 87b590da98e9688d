package main

import (
	"sync/atomic"

	"github.com/oblivfd/oblivfd/internal/store"
)

// seam is the benchmark's own store.Service decorator. One sits between the
// engine and whatever the engine talks to (the client seam, where
// discover_rounds and discover_comm_mb are counted on every run), and on a
// traced TCP run a second one sits between transport.Server and the store
// (the server seam). It forwards store.Batcher: a decorator that did not
// would make obsort's fused GetRanges fall back to one call per range and
// change the round count it is there to measure.
type seam struct {
	svc store.Service
	tr  *tracer
	// Span names, one per Service method, interned at construction.
	nm [numOps]uint16

	rounds       atomic.Int64 // calls crossing the seam; a fused Batch is one
	readOps      atomic.Int64 // ReadCells + ReadPath, batch ops counted singly
	writeOps     atomic.Int64 // WriteCells + WritePath + WriteBuckets, likewise
	cellsRead    atomic.Int64
	cellsWritten atomic.Int64
	bytesIn      atomic.Int64 // ciphertext bytes returned to the caller
	bytesOut     atomic.Int64 // ciphertext bytes handed to the callee
}

const (
	opCreateArray = iota
	opArrayLen
	opReadCells
	opWriteCells
	opCreateTree
	opReadPath
	opWritePath
	opWriteBuckets
	opDelete
	opReveal
	opCheckpoint
	opStats
	opBatch
	numOps
)

var opNames = [numOps]string{
	"CreateArray", "ArrayLen", "ReadCells", "WriteCells", "CreateTree", "ReadPath",
	"WritePath", "WriteBuckets", "Delete", "Reveal", "Checkpoint", "Stats", "Batch",
}

// newSeam wraps svc. Spans are named "<layer>/<op>"; tr may be nil.
func newSeam(svc store.Service, tr *tracer, layer string) *seam {
	s := &seam{svc: svc, tr: tr}
	for i, n := range opNames {
		s.nm[i] = tr.name(layer + "/" + n)
	}
	return s
}

// enter opens one call across the seam: one round, one span.
func (s *seam) enter(op int) bool {
	s.rounds.Add(1)
	return s.tr.begin(s.nm[op])
}

// exit closes the call enter opened.
func (s *seam) exit(recorded bool) { s.tr.end(recorded) }

// seamCounts is a copy of the counters; subtracting two gives one phase.
type seamCounts struct {
	rounds, readOps, writeOps, cellsRead, cellsWritten, bytesIn, bytesOut int64
}

func (s *seam) counts() seamCounts {
	return seamCounts{
		rounds: s.rounds.Load(), readOps: s.readOps.Load(), writeOps: s.writeOps.Load(),
		cellsRead: s.cellsRead.Load(), cellsWritten: s.cellsWritten.Load(),
		bytesIn: s.bytesIn.Load(), bytesOut: s.bytesOut.Load(),
	}
}

func (a seamCounts) sub(b seamCounts) seamCounts {
	return seamCounts{
		rounds: a.rounds - b.rounds, readOps: a.readOps - b.readOps, writeOps: a.writeOps - b.writeOps,
		cellsRead: a.cellsRead - b.cellsRead, cellsWritten: a.cellsWritten - b.cellsWritten,
		bytesIn: a.bytesIn - b.bytesIn, bytesOut: a.bytesOut - b.bytesOut,
	}
}

func sumLen(cts [][]byte) int64 {
	var n int64
	for _, c := range cts {
		n += int64(len(c))
	}
	return n
}

func (s *seam) read(cts [][]byte) {
	s.readOps.Add(1)
	s.cellsRead.Add(int64(len(cts)))
	s.bytesIn.Add(sumLen(cts))
}

func (s *seam) wrote(cts [][]byte) {
	s.writeOps.Add(1)
	s.cellsWritten.Add(int64(len(cts)))
	s.bytesOut.Add(sumLen(cts))
}

// Batch implements store.Batcher. When the inner service cannot fuse, each
// op crosses the seam on its own and is counted as its own round.
func (s *seam) Batch(ops []store.BatchOp) ([][][]byte, error) {
	b, ok := s.svc.(store.Batcher)
	if !ok {
		out := make([][][]byte, len(ops))
		for i, op := range ops {
			if op.Write {
				if err := s.WriteCells(op.Name, op.Idx, op.Cts); err != nil {
					return nil, err
				}
				continue
			}
			cts, err := s.ReadCells(op.Name, op.Idx)
			if err != nil {
				return nil, err
			}
			out[i] = cts
		}
		return out, nil
	}
	rec := s.enter(opBatch)
	res, err := b.Batch(ops)
	s.exit(rec)
	if err == nil {
		for i, op := range ops {
			if op.Write {
				s.wrote(op.Cts)
			} else {
				s.read(res[i])
			}
		}
	}
	return res, err
}

func (s *seam) CreateArray(name string, n int) error {
	defer s.exit(s.enter(opCreateArray))
	return s.svc.CreateArray(name, n)
}

func (s *seam) ArrayLen(name string) (int, error) {
	defer s.exit(s.enter(opArrayLen))
	return s.svc.ArrayLen(name)
}

func (s *seam) ReadCells(name string, idx []int64) ([][]byte, error) {
	rec := s.enter(opReadCells)
	cts, err := s.svc.ReadCells(name, idx)
	s.exit(rec)
	if err == nil {
		s.read(cts)
	}
	return cts, err
}

func (s *seam) WriteCells(name string, idx []int64, cts [][]byte) error {
	rec := s.enter(opWriteCells)
	err := s.svc.WriteCells(name, idx, cts)
	s.exit(rec)
	if err == nil {
		s.wrote(cts)
	}
	return err
}

func (s *seam) CreateTree(name string, levels, slotsPerBucket int) error {
	defer s.exit(s.enter(opCreateTree))
	return s.svc.CreateTree(name, levels, slotsPerBucket)
}

func (s *seam) ReadPath(name string, leaf uint32) ([][]byte, error) {
	rec := s.enter(opReadPath)
	cts, err := s.svc.ReadPath(name, leaf)
	s.exit(rec)
	if err == nil {
		s.read(cts)
	}
	return cts, err
}

func (s *seam) WritePath(name string, leaf uint32, slots [][]byte) error {
	rec := s.enter(opWritePath)
	err := s.svc.WritePath(name, leaf, slots)
	s.exit(rec)
	if err == nil {
		s.wrote(slots)
	}
	return err
}

func (s *seam) WriteBuckets(name string, bucketStart int, slots [][]byte) error {
	rec := s.enter(opWriteBuckets)
	err := s.svc.WriteBuckets(name, bucketStart, slots)
	s.exit(rec)
	if err == nil {
		s.wrote(slots)
	}
	return err
}

func (s *seam) Delete(name string) error {
	defer s.exit(s.enter(opDelete))
	return s.svc.Delete(name)
}

func (s *seam) Reveal(tag string, value int64) error {
	defer s.exit(s.enter(opReveal))
	return s.svc.Reveal(tag, value)
}

func (s *seam) Checkpoint(epoch int64) error {
	defer s.exit(s.enter(opCheckpoint))
	return s.svc.Checkpoint(epoch)
}

func (s *seam) Stats() (store.Stats, error) {
	defer s.exit(s.enter(opStats))
	return s.svc.Stats()
}

var (
	_ store.Service = (*seam)(nil)
	_ store.Batcher = (*seam)(nil)
)
