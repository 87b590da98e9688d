package store

import "sync/atomic"

// Batching lets a caller coalesce independent operations into one logical
// round trip: concurrent protocol workers their cell reads, an ORAM client
// its rounds' fetches and write-backs, one cell op per tree, a set-up its
// creates beside the first writes to what they create, a lattice level its
// reveals. A batch is a flat list of ReadCells/WriteCells operations, on
// arrays and trees alike, and of the three operations that touch no cell:
// CreateArray, CreateTree and Reveal. The semantics are exactly "apply the
// ops in order", so a batch is observationally identical to issuing its ops
// one by one — only the number of wire round trips (and injected latency
// delays) changes.
//
// Leakage note: the server sees the same per-cell accesses either way — the
// in-memory Server records one trace event per cell index (a tree's as a tree
// cell event), one per create and one per reveal, regardless of call
// granularity — so batching changes timing, never the access trace. What a
// batch holds is the caller's to keep data-independent: an ORAM round's cell
// op on a tree names the top levels whole and each path below them, a set of
// positions whose count is a function of the batch size and the tree's depth
// and whose members are a function of those and the uniform leaves
// (trace.TreeRound); a set-up's batches are cut by a byte budget from the
// public shapes of what they create (oram.SetupAll).

// BatchOp is one operation inside a batch. Its zero form is a cell op, on
// the cells of an array or a tree by flat position (Idx): Write selects the
// writing form, whose ciphertexts Cts carries; otherwise the op is a read,
// whose answer holds len(Idx) ciphertexts — the count a TCP client cuts a
// batch's flat answer by. CreateArrayOp, CreateTreeOp and RevealOp build the
// other forms, which answer nothing.
type BatchOp struct {
	Write bool
	form  byte // a create or reveal form's flag (batchCreateArray …); 0 for a cell op
	Name  string
	Idx   []int64
	Cts   [][]byte // writes only
	// n is an array's cells, a tree's levels or a reveal's value, and slots
	// a tree's slots per bucket.
	n, slots int64
}

// CreateArrayOp is CreateArray(name, cells) as a batched op.
func CreateArrayOp(name string, cells int) BatchOp {
	return BatchOp{form: batchCreateArray, Name: name, n: int64(cells)}
}

// CreateTreeOp is CreateTree(name, levels, slotsPerBucket) as a batched op.
func CreateTreeOp(name string, levels, slotsPerBucket int) BatchOp {
	return BatchOp{form: batchCreateTree, Name: name, n: int64(levels), slots: int64(slotsPerBucket)}
}

// RevealOp is Reveal(tag, value) as a batched op.
func RevealOp(tag string, value int64) BatchOp {
	return BatchOp{form: batchReveal, Name: tag, n: value}
}

// A batched op's flag byte names its form. A cell op's is 0 or batchWrite;
// the forms that touch no cell have one each. After the flag come the fields
// of the Service operation the form stands for, in its AppendFields layout.
const (
	batchWrite       = 1
	batchCreateArray = 4
	batchCreateTree  = 5
	batchReveal      = 6
	numBatchForms    = 7
)

// batchKinds is the Service operation each form stands for. Flags 2 and 3
// once named a tree path by leaf; NumKinds marks them refused, like every
// flag from numBatchForms on.
var batchKinds = [numBatchForms]Kind{
	KindReadCells, KindWriteCells, NumKinds, NumKinds, KindCreateArray, KindCreateTree, KindReveal,
}

// flag is b's flag byte.
func (b *BatchOp) flag() byte {
	if b.form != 0 {
		return b.form
	}
	if b.Write {
		return batchWrite
	}
	return 0
}

// Kind is the Service operation b stands for.
func (b *BatchOp) Kind() Kind { return batchKinds[b.flag()] }

// Op is the Service operation b stands for.
func (b *BatchOp) Op() Op {
	op := Op{Kind: b.Kind(), Name: b.Name, Idx: b.Idx}
	switch op.Kind {
	case KindWriteCells:
		op.Cts = b.Cts
	case KindCreateArray:
		op.N = int(b.n)
	case KindCreateTree:
		op.Levels, op.Slots = int(b.n), int(b.slots)
	case KindReveal:
		op.Value = b.n
	}
	return op
}

// batchOpOf is the batched op of the given flag that stands for op, as
// decoded.
func batchOpOf(flag byte, op *Op) BatchOp {
	switch flag {
	case batchCreateArray:
		return CreateArrayOp(op.Name, op.N)
	case batchCreateTree:
		return CreateTreeOp(op.Name, op.Levels, op.Slots)
	case batchReveal:
		return RevealOp(op.Name, op.Value)
	}
	return BatchOp{Write: flag == batchWrite, Name: op.Name, Idx: op.Idx, Cts: op.Cts}
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
