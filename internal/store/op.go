package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"github.com/oblivfd/oblivfd/internal/otrace"
	"github.com/oblivfd/oblivfd/internal/wire"
)

// The storage seam, reified. Service is what protocol code calls: one typed
// method per operation. Behind it every implementation — the in-memory
// Server included — is a single Handler, a function from one Op to its
// Result, so a cross-cutting layer (timing, fault injection, retry,
// namespacing, durability, replication, the TCP proxy) is written once, not
// once per method. Exactly two pieces of code know the whole method set:
// Adapter turns a Handler into a Service, and Invoke turns an Op back into
// the one typed call on a Service that is not Handler-backed (a decorator
// written outside this module). AppendFields and ReadFields are
// the one byte layout of each operation's fields: a TCP request carries it
// after its header, and a write-ahead log record after its kind (wal.go).

// Kind names one operation crossing the client/server seam. The numbers are
// the wire encoding of a request's kind (internal/transport pins them), so
// kinds are only ever appended, and the first byte of a write-ahead log
// record's payload after its version is a Kind too. Thirteen are Service
// operations; the rest are control messages the transport server answers
// itself (session handshake, replication, trace dump) and never reach a
// Service. Two of those also name log records no client sends: Promote the
// fencing epoch a server adopted, Repair the ciphertexts a self-heal
// installed (see wal.go).
type Kind uint8

const (
	KindCreateArray Kind = iota
	KindArrayLen
	KindReadCells
	KindWriteCells
	KindCreateTree
	KindReadPath
	KindWritePath
	KindWriteBuckets
	KindDelete
	KindReveal
	KindStats
	KindCheckpoint
	KindBatch
	KindHello     // session handshake: Name = database namespace, Value = client's fence
	KindReplicate // primary -> replica: framed WAL records (Value = fence, Cts)
	KindSync      // primary -> replica: full snapshot resync (Value = fence, Cts[0])
	KindPromote   // failover client -> replica: adopt fence and primary role (Value = fence)
	KindTraceDump // operator: fetch the server's span ring (Name = trace-ID filter)
	KindRepair    // peer -> peer: fetch verified ciphertexts (Value = fence, Name, N reserved, Idx)
	NumKinds
)

// kindInfo is everything a layer needs to know about a kind without
// switching on it.
type kindInfo struct {
	// name is the Service method's name: the op label on every per-operation
	// metric, the suffix of rpc/ and server/ span names, the operation named
	// in retry and fault-injection errors.
	name string
	// service marks the Service operations, the kinds Invoke can run.
	service bool
	// mutates marks the operations that change recoverable storage state:
	// the durable layer logs them and the replicated one ships them.
	mutates bool
	// failAfter marks the operations a fault injector may fail after the
	// backend applied them (a lost response), because repeating them is
	// harmless: reads, writes that carry their exact ciphertexts, a Reveal of
	// an already-public value, re-marking an epoch. Creates and deletes are
	// only ever failed before applying — a lost acknowledgement for those is
	// the resend-reconciliation problem applied solves, not the fault
	// model's.
	failAfter bool
	// applied, when set, is the verdict that a *re-sent* operation of this
	// kind gets exactly when the first attempt applied and only its
	// acknowledgement was lost. See Kind.Applied.
	applied error
}

var kinds = [NumKinds]kindInfo{
	KindCreateArray:  {name: "CreateArray", service: true, mutates: true, applied: ErrObjectExists},
	KindArrayLen:     {name: "ArrayLen", service: true, failAfter: true},
	KindReadCells:    {name: "ReadCells", service: true, failAfter: true},
	KindWriteCells:   {name: "WriteCells", service: true, mutates: true, failAfter: true},
	KindCreateTree:   {name: "CreateTree", service: true, mutates: true, applied: ErrObjectExists},
	KindReadPath:     {name: "ReadPath", service: true, failAfter: true},
	KindWritePath:    {name: "WritePath", service: true, mutates: true, failAfter: true},
	KindWriteBuckets: {name: "WriteBuckets", service: true, mutates: true, failAfter: true},
	KindDelete:       {name: "Delete", service: true, mutates: true, applied: ErrUnknownObject},
	KindReveal:       {name: "Reveal", service: true, failAfter: true},
	KindStats:        {name: "Stats", service: true, failAfter: true},
	KindCheckpoint:   {name: "Checkpoint", service: true, mutates: true, failAfter: true},
	KindBatch:        {name: "Batch", service: true, failAfter: true},
	KindHello:        {name: "Hello"},
	KindReplicate:    {name: "Replicate"},
	KindSync:         {name: "Sync"},
	KindPromote:      {name: "Promote"},
	KindTraceDump:    {name: "TraceDump"},
	KindRepair:       {name: "Repair"},
}

func (k Kind) info() kindInfo {
	if k < NumKinds {
		return kinds[k]
	}
	return kindInfo{}
}

func (k Kind) String() string {
	if name := k.info().name; name != "" {
		return name
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Applied reports whether err, the verdict on an operation of this kind that
// was sent again after a failure, proves the earlier attempt applied: a
// re-sent create answering "already exists", a re-sent delete answering
// "unknown object". RetryService is the only layer that sends an operation
// again, so it is the only reader: it reconciles such a verdict to success.
// The TCP client, the pool and the failover pool send each call once and
// report a lost connection or server as the retryable ErrUnavailable. The
// inference holds because each database namespace has a single writing
// client (see RetryService), so nobody else can have created or deleted the
// object in between.
func (k Kind) Applied(err error) bool {
	sentinel := k.info().applied
	return sentinel != nil && errors.Is(err, sentinel)
}

// Op is one reified operation. Which fields a kind uses:
//
//	CreateArray:  Name, N (cells)
//	ArrayLen:     Name
//	ReadCells:    Name, Idx
//	WriteCells:   Name, Idx, Cts
//	CreateTree:   Name, Levels, Slots
//	ReadPath:     Name, Leaf
//	WritePath:    Name, Leaf, Cts
//	WriteBuckets: Name, N (bucketStart), Cts
//	Delete:       Name
//	Reveal:       Name (tag), Value
//	Stats:        DB
//	Checkpoint:   Value (epoch), DB
//	Batch:        Ops
//
// DB is the database namespace a Checkpoint or Stats acts on ("" = root).
// It never crosses the wire — a connection's namespace is bound by its
// session handshake — so only server-side layers set it (Namespaced), and
// only the write-ahead log records it.
//
// Parent is the span the op runs under: the transport server sets it to the
// request's server/<op> span, and the layers below start theirs (wal/append,
// store/snapshot, repl/ship) under it. It is in memory only — no frame and
// no log record carries it — and the zero context means "the tracer's
// current span" (otrace.Tracer.StartChild).
type Op struct {
	Kind   Kind
	Name   string
	N      int
	Levels int
	Slots  int
	Leaf   uint32
	Value  int64
	Idx    []int64
	Cts    [][]byte
	Ops    []BatchOp
	DB     string
	Parent otrace.SpanContext
}

// AppendFields appends the fields op's kind uses but DB, in the order the Op
// comment lists them, in the internal/wire layout. Nothing is optional and
// nothing is self-describing: the reader knows the kind. A kind that is no
// Service operation appends nothing. A batched op is its flag byte, then the
// fields of the operation it stands for.
func AppendFields(b []byte, op *Op) []byte {
	if op.Kind != KindBatch {
		return appendFields(b, op)
	}
	b = binary.AppendUvarint(b, uint64(len(op.Ops)))
	for i := range op.Ops {
		b = append(b, op.Ops[i].flag())
		sub := op.Ops[i].Op()
		b = appendFields(b, &sub)
	}
	return b
}

// appendFields is AppendFields for every kind but Batch.
func appendFields(b []byte, op *Op) []byte {
	switch op.Kind {
	case KindCreateArray, KindWriteBuckets:
		b = wire.PutString(b, op.Name)
		b = binary.AppendVarint(b, int64(op.N))
	case KindArrayLen, KindDelete:
		b = wire.PutString(b, op.Name)
	case KindReadCells, KindWriteCells:
		b = wire.PutString(b, op.Name)
		b = wire.PutIndices(b, op.Idx)
	case KindCreateTree:
		b = wire.PutString(b, op.Name)
		b = binary.AppendVarint(b, int64(op.Levels))
		b = binary.AppendVarint(b, int64(op.Slots))
	case KindReadPath, KindWritePath:
		b = wire.PutString(b, op.Name)
		b = binary.AppendUvarint(b, uint64(op.Leaf))
	case KindReveal:
		b = wire.PutString(b, op.Name)
		b = binary.AppendVarint(b, op.Value)
	case KindCheckpoint:
		b = binary.AppendVarint(b, op.Value)
	}
	switch op.Kind {
	case KindWriteCells, KindWritePath, KindWriteBuckets:
		b = wire.PutRun(b, op.Cts) // a write is its target's fields, then its run
	}
	return b
}

// ReadFields reads the fields AppendFields wrote for op.Kind into op. Every
// ciphertext gets its own allocation: the server keeps written cells one by
// one. A failure sticks in r, which the caller finishes.
func ReadFields(r *wire.Reader, op *Op) {
	if op.Kind != KindBatch {
		readFields(r, op)
		return
	}
	// An op is at least its flag byte, a name length and an index count or a
	// create's or reveal's first number.
	if n := r.Count(); n > r.Len()/3 {
		r.Fail("%d batch ops in %d bytes", n, r.Len())
	} else if n > 0 {
		op.Ops = make([]BatchOp, n)
	}
	for i := range op.Ops {
		flag := r.Byte()
		if flag >= numBatchForms || batchKinds[flag] == NumKinds {
			r.Fail("batch op flag %d", flag)
			return
		}
		sub := Op{Kind: batchKinds[flag]}
		readFields(r, &sub)
		op.Ops[i] = batchOpOf(flag, &sub)
	}
}

// readFields is ReadFields for every kind but Batch.
func readFields(r *wire.Reader, op *Op) {
	switch op.Kind {
	case KindCreateArray, KindWriteBuckets:
		op.Name = r.String()
		op.N = r.Int()
	case KindArrayLen, KindDelete:
		op.Name = r.String()
	case KindReadCells, KindWriteCells:
		op.Name = r.String()
		op.Idx = r.Indices()
	case KindCreateTree:
		op.Name = r.String()
		op.Levels = r.Int()
		op.Slots = r.Int()
	case KindReadPath, KindWritePath:
		op.Name = r.String()
		op.Leaf = r.Uint32()
	case KindReveal:
		op.Name = r.String()
		op.Value = r.Varint()
	case KindStats:
	case KindCheckpoint:
		op.Value = r.Varint()
	default:
		r.Fail("unknown request kind %d", op.Kind)
	}
	switch op.Kind {
	case KindWriteCells, KindWritePath, KindWriteBuckets:
		op.Cts = r.Run(false)
	}
}

// Result is what an Op returns besides its error: ArrayLen's N, a read's
// Cts, a Batch's per-op results (reads their ciphertexts, writes nil), Stats.
type Result struct {
	N     int
	Cts   [][]byte
	Batch [][][]byte
	Stats Stats
}

// Handler serves one operation, filling res. A handler must not retain op or
// res past its return; on error the caller ignores whatever res holds.
type Handler func(op *Op, res *Result) error

// call is one in-flight Op with its Result. Handlers are reached through a
// func value, so an Op built on the caller's stack would escape to the heap
// on every call; the typed facade borrows one of these instead.
type call struct {
	op  Op
	res Result
}

var calls = sync.Pool{New: func() any { return new(call) }}

// run serves op through h on a borrowed call and returns a copy of its
// result, zeroed on error.
func run(h Handler, op Op) (Result, error) {
	c := calls.Get().(*call)
	c.op = op
	err := h(&c.op, &c.res)
	res := c.res
	*c = call{}
	calls.Put(c)
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// Adapter is the typed facade over a Handler: it implements Service and
// Batcher by building the Op each method stands for. Decorators either
// return one (WithLatency, WithMetrics, Namespaced) or embed one so their
// named type keeps its accessors (RetryService.Retries,
// FaultService.Injected, transport.Client.Reconnects, …); the in-memory
// Server embeds one too.
type Adapter struct{ h Handler }

// Adapt returns the typed facade of h.
func Adapt(h Handler) Adapter { return Adapter{h: h} }

var (
	_ Service = Adapter{}
	_ Batcher = Adapter{}
)

// Do serves op as it stands. Invoke prefers it to the typed methods, so an
// Op travels a stack of adapters without being taken apart and rebuilt at
// each layer.
func (a Adapter) Do(op *Op, res *Result) error { return a.h(op, res) }

// CreateArray implements Service.
func (a Adapter) CreateArray(name string, n int) error {
	_, err := run(a.h, Op{Kind: KindCreateArray, Name: name, N: n})
	return err
}

// ArrayLen implements Service.
func (a Adapter) ArrayLen(name string) (int, error) {
	res, err := run(a.h, Op{Kind: KindArrayLen, Name: name})
	return res.N, err
}

// ReadCells implements Service.
func (a Adapter) ReadCells(name string, idx []int64) ([][]byte, error) {
	res, err := run(a.h, Op{Kind: KindReadCells, Name: name, Idx: idx})
	return res.Cts, err
}

// WriteCells implements Service.
func (a Adapter) WriteCells(name string, idx []int64, cts [][]byte) error {
	_, err := run(a.h, Op{Kind: KindWriteCells, Name: name, Idx: idx, Cts: cts})
	return err
}

// CreateTree implements Service.
func (a Adapter) CreateTree(name string, levels, slotsPerBucket int) error {
	_, err := run(a.h, Op{Kind: KindCreateTree, Name: name, Levels: levels, Slots: slotsPerBucket})
	return err
}

// ReadPath implements Service.
func (a Adapter) ReadPath(name string, leaf uint32) ([][]byte, error) {
	res, err := run(a.h, Op{Kind: KindReadPath, Name: name, Leaf: leaf})
	return res.Cts, err
}

// WritePath implements Service.
func (a Adapter) WritePath(name string, leaf uint32, slots [][]byte) error {
	_, err := run(a.h, Op{Kind: KindWritePath, Name: name, Leaf: leaf, Cts: slots})
	return err
}

// WriteBuckets implements Service.
func (a Adapter) WriteBuckets(name string, bucketStart int, slots [][]byte) error {
	_, err := run(a.h, Op{Kind: KindWriteBuckets, Name: name, N: bucketStart, Cts: slots})
	return err
}

// Delete implements Service.
func (a Adapter) Delete(name string) error {
	_, err := run(a.h, Op{Kind: KindDelete, Name: name})
	return err
}

// Reveal implements Service.
func (a Adapter) Reveal(tag string, value int64) error {
	_, err := run(a.h, Op{Kind: KindReveal, Name: tag, Value: value})
	return err
}

// Checkpoint implements Service.
func (a Adapter) Checkpoint(epoch int64) error {
	_, err := run(a.h, Op{Kind: KindCheckpoint, Value: epoch})
	return err
}

// Stats implements Service.
func (a Adapter) Stats() (Stats, error) {
	res, err := run(a.h, Op{Kind: KindStats})
	return res.Stats, err
}

// Batch implements Batcher.
func (a Adapter) Batch(ops []BatchOp) ([][][]byte, error) {
	res, err := run(a.h, Op{Kind: KindBatch, Ops: ops})
	return res.Batch, err
}

// Invoke runs op on svc: handed over whole when svc is Handler-backed, as
// the one typed call it stands for otherwise. On a typed-only service a Batch
// on one that is no Batcher degrades to its ops one by one (the first error
// aborts it, earlier writes stay applied, same as serial issuance), and a
// Checkpoint or Stats in a named namespace is an error — no typed call names
// a namespace, and a silent cross-tenant root operation would be worse.
func Invoke(svc Service, op *Op, res *Result) (err error) {
	if d, ok := svc.(interface{ Do(*Op, *Result) error }); ok {
		return d.Do(op, res)
	}
	switch op.Kind {
	case KindCreateArray:
		return svc.CreateArray(op.Name, op.N)
	case KindArrayLen:
		res.N, err = svc.ArrayLen(op.Name)
	case KindReadCells:
		res.Cts, err = svc.ReadCells(op.Name, op.Idx)
	case KindWriteCells:
		return svc.WriteCells(op.Name, op.Idx, op.Cts)
	case KindCreateTree:
		return svc.CreateTree(op.Name, op.Levels, op.Slots)
	case KindReadPath:
		res.Cts, err = svc.ReadPath(op.Name, op.Leaf)
	case KindWritePath:
		return svc.WritePath(op.Name, op.Leaf, op.Cts)
	case KindWriteBuckets:
		return svc.WriteBuckets(op.Name, op.N, op.Cts)
	case KindDelete:
		return svc.Delete(op.Name)
	case KindReveal:
		return svc.Reveal(op.Name, op.Value)
	case KindStats:
		if op.DB != "" {
			return fmt.Errorf("store: backend %T cannot report namespace %q", svc, op.DB)
		}
		res.Stats, err = svc.Stats()
	case KindCheckpoint:
		if op.DB != "" {
			return fmt.Errorf("store: backend %T cannot checkpoint namespace %q", svc, op.DB)
		}
		return svc.Checkpoint(op.Value)
	case KindBatch:
		if b, ok := svc.(Batcher); ok {
			res.Batch, err = b.Batch(op.Ops)
		} else {
			res.Batch, err = eachBatchOp(op, func(sub *Op, subres *Result) error { return Invoke(svc, sub, subres) })
		}
	default:
		err = fmt.Errorf("store: %v is not a Service operation", op.Kind)
	}
	return err
}

// eachBatchOp applies batch's ops in order, each as the Service operation it
// stands for (BatchOp.Kind) through h, under the batch's parent span, and
// collects the per-op results. It is what a layer that must see every
// operation singly (the fault injector's schedule, the WAL's one record per
// mutation) does with a Batch.
func eachBatchOp(batch *Op, h Handler) ([][][]byte, error) {
	out := make([][][]byte, len(batch.Ops))
	c := calls.Get().(*call)
	defer func() {
		*c = call{}
		calls.Put(c)
	}()
	for i := range batch.Ops {
		c.op = batch.Ops[i].Op()
		c.op.Parent = batch.Parent
		c.res.Cts = nil
		if err := h(&c.op, &c.res); err != nil {
			return nil, err
		}
		out[i] = c.res.Cts
	}
	return out, nil
}

// DoBatch applies ops through svc in one call: fused when svc can, op by op
// otherwise (see Invoke).
func DoBatch(svc Service, ops []BatchOp) ([][][]byte, error) {
	res, err := run(func(op *Op, res *Result) error { return Invoke(svc, op, res) }, Op{Kind: KindBatch, Ops: ops})
	return res.Batch, err
}

// CheckpointIn marks an epoch in the given namespace on any Service.
func CheckpointIn(svc Service, db string, epoch int64) error {
	return Invoke(svc, &Op{Kind: KindCheckpoint, Value: epoch, DB: db}, &Result{})
}

// StatsIn reports namespace-scoped stats on any Service.
func StatsIn(svc Service, db string) (Stats, error) {
	var res Result
	err := Invoke(svc, &Op{Kind: KindStats, DB: db}, &res)
	return res.Stats, err
}
