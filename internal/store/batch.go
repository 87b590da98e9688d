package store

import "sync/atomic"

// Batching lets a caller coalesce independent operations into one logical
// round trip: concurrent protocol workers their cell reads, an ORAM client
// its rounds' fetches and write-backs, one cell op per tree. A batch is a
// flat list of ReadCells/WriteCells operations, on arrays and trees alike;
// the semantics are exactly "apply the ops in order", so a batch is
// observationally identical to issuing its ops one by one — only the number
// of wire round trips (and injected latency delays) changes.
//
// Leakage note: the server sees the same per-cell accesses either way — the
// in-memory Server records one trace event per cell index (a tree's as a tree
// cell event) regardless of call granularity — so batching changes timing,
// never the access trace. What a batch holds is the caller's to keep
// data-independent: an ORAM round's cell op on a tree names the top levels
// whole and each path below them, a set of positions whose count is a
// function of the batch size and the tree's depth and whose members are a
// function of those and the uniform leaves (trace.TreeRound).

// BatchOp is one operation inside a batch, on the cells of an array or a tree
// by flat position (Idx). Write selects the writing form, whose ciphertexts
// Cts carries; otherwise the op is a read, whose answer holds len(Idx)
// ciphertexts — the count a TCP client cuts a batch's flat answer by.
type BatchOp struct {
	Write bool
	Name  string
	Idx   []int64
	Cts   [][]byte // writes only
}

// Kind is the Service operation b stands for.
func (b *BatchOp) Kind() Kind {
	if b.Write {
		return KindWriteCells
	}
	return KindReadCells
}

// Batcher is the optional extension a Service implements when it can take a
// whole batch in one call. Results are per-op: reads return their
// ciphertexts, writes return nil. Every Handler-backed service is one (a
// layer that must see each operation on its own splits the batch
// itself, see eachBatchOp); DoBatch degrades to per-op calls through a
// service that is not.
type Batcher interface {
	Batch(ops []BatchOp) ([][][]byte, error)
}

// Batch implements Batcher for the in-memory server: ops apply in order
// under the server's own per-call locking. Trace events are recorded per
// cell index by the typed methods exactly as for unbatched calls.
func (s *Server) Batch(ops []BatchOp) ([][][]byte, error) {
	return eachBatchOp(&Op{Kind: KindBatch, Ops: ops}, func(op *Op, res *Result) error { return Invoke(s, op, res) })
}

// RoundCounter counts logical storage round trips: every Service call is
// one round, and a fused Batch is one round regardless of how many ops it
// carries. The round-count tests and BenchmarkEngineStepLoopback use it as
// their round meter.
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
			res.Batch, err = eachBatchOp(op, c.handle)
			return err
		}
	}
	c.rounds.Add(1)
	return Invoke(c.svc, op, res)
}
