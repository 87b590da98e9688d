package store

import "sync/atomic"

// Batching lets concurrent protocol workers coalesce independent cell
// operations into one logical round trip. A batch is a flat list of
// ReadCells/WriteCells operations; the semantics are exactly "apply the ops
// in order", so a batch is observationally identical to issuing its ops one
// by one — only the number of wire round trips (and injected latency
// delays) changes.
//
// Leakage note: the server sees the same per-cell accesses either way — the
// in-memory Server records one trace event per cell index regardless of
// call granularity — so batching changes timing, never the access trace.

// BatchOp is one cell operation inside a batch. Write selects WriteCells
// (Cts carries the ciphertexts); otherwise the op is a ReadCells.
type BatchOp struct {
	Write bool
	Name  string
	Idx   []int64
	Cts   [][]byte // writes only
}

// Batcher is the optional extension a Service implements when it can take a
// whole batch in one call. Results are per-op: reads return their
// ciphertexts, writes return nil. Every Handler-backed service is one (a
// layer that must see each cell operation on its own splits the batch
// itself, see eachBatchOp); DoBatch degrades to per-op calls through a
// service that is not.
type Batcher interface {
	Batch(ops []BatchOp) ([][][]byte, error)
}

// Batch implements Batcher for the in-memory server: ops apply in order
// under the server's own per-call locking. Trace events are recorded per
// cell index by ReadCells/WriteCells exactly as for unbatched calls.
func (s *Server) Batch(ops []BatchOp) ([][][]byte, error) {
	return eachBatchOp(ops, func(op *Op, res *Result) error { return Invoke(s, op, res) })
}

// RoundCounter counts logical storage round trips: every Service call is
// one round, and a fused Batch is one round regardless of how many ops it
// carries. The scaling benchmark uses it to report how many rounds (and
// hence how much injected RTT) a discovery run pays.
type RoundCounter struct {
	Adapter
	svc    Service
	rounds atomic.Int64
}

// WithRoundCounter wraps svc with a round counter; safe for concurrent
// workers.
func WithRoundCounter(svc Service) *RoundCounter {
	c := &RoundCounter{svc: svc}
	c.Adapter = Adapt(c.handle)
	return c
}

// Rounds returns the number of logical round trips counted so far.
func (c *RoundCounter) Rounds() int64 { return c.rounds.Load() }

// handle counts op as one round. If the inner service cannot fuse a batch,
// each of its ops is its own round and is counted as such — the counter
// never reports fewer rounds than the backend actually served.
func (c *RoundCounter) handle(op *Op, res *Result) (err error) {
	if op.Kind == KindBatch {
		if _, fuses := c.svc.(Batcher); !fuses {
			res.Batch, err = eachBatchOp(op.Ops, c.handle)
			return err
		}
	}
	c.rounds.Add(1)
	return Invoke(c.svc, op, res)
}
