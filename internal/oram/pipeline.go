package oram

import (
	"fmt"

	"github.com/oblivfd/oblivfd/internal/store"
)

// An Access is one oblivious access for a Pipeline to run: Fn is handed the
// value stored under Key in Store and decides what stays there.
type Access struct {
	Store *ORAM
	Key   string
	Fn    UpdateFunc
}

// Pipeline runs batches of accesses with their server calls fused. An access
// is two calls with client work between them — fetch a path, write it back —
// and the leaf is known before the fetch, so the fetches of a Do share one
// round trip, and the write-backs share the next, along with the fetches of
// whatever the caller does next — the next accesses to the same trees
// included, and cell ops at public addresses the caller hands over beside
// them. Each tree a Do names is one cell read, its write-back one cell write
// of the same positions (see placer.lay), in the order the Do first names
// the trees, and the caller's ops follow:
//
//	p.Do([]Access{a, b, a})      one round: ReadCells A (2 paths), ReadCells B (1 path)
//	p.Do([]Access{c, b}, x, y)   one round: WriteCells A, WriteCells B, ReadCells C, ReadCells B, x, y
//	p.Flush(z)                   one round: WriteCells C, WriteCells B, z
//
// where A, B and C are the trees of a, b and c, and x, y and z cell ops. The
// accesses of one Do to one tree are a batch (Stefanov et al., "Path ORAM",
// CCS 2013; Sahin et al., "TaoStore", S&P 2016): the batch's first access to
// a live key fetches the key's path, a repeat or a miss a fresh uniform leaf,
// so the server sees r independent uniform leaves per tree per round whatever
// keys repeat; the round reads the top ⌈log₂ r⌉ levels of the tree once and
// each path below them, the client takes the round in, runs the functions in
// call order, remaps each key it touched once, evicts into the round's
// buckets and owes the write-back of the same positions, a bucket that r
// paths share sealed once and written by each. A batch of one is a serial access, draw for draw.
// What a round holds is decided by the caller's sequence of Do and Flush,
// never by anything fetched, and the ops of a round apply in the order given,
// so a tree's write-back lands before its next fetch in the same round reads
// it. Through a service that cannot take a batch every op is its own call, in
// that same order.
//
// When a round fails — after whatever retrying the service itself does; a
// batch of fetches and of write-backs carrying their exact ciphertexts is
// safe to send again — every handle with a write-back in it is left refusing
// further accesses (see ORAM.settle), the error names the cause, and the
// pipeline is empty again. A pipeline is not safe for concurrent use, and a
// handle takes part in one batch at a time.
type Pipeline struct {
	svc   store.Service
	wrote int             // write-backs leading the next round, one per handle in owing
	owing []*ORAM         // the handles whose write-backs those are
	begun []*ORAM         // the handles this Do's fetches are for, in order of first mention
	index []int           // this Do's accesses' places in their handles' batches
	ops   []store.BatchOp // the next round: the wrote write-backs, then fetches, then the caller's ops
}

// NewPipeline returns an empty pipeline over the service its stores live on.
func NewPipeline(svc store.Service) *Pipeline { return &Pipeline{svc: svc} }

// An AccessError is a Do error that one of the call's accesses caused: it was
// refused before anything was sent, or its fetched path did not verify — for
// a bucket of the top levels, which a round reads once for all its paths, the
// batch's first access. Index says which, so a caller that built the call from
// a list can name the structure; the message is the cause's.
type AccessError struct {
	Index int
	Err   error
}

func (e *AccessError) Error() string { return e.Err.Error() }
func (e *AccessError) Unwrap() error { return e.Err }

// Do runs one round — the write-backs still owed by earlier accesses, the
// fetches of these, then extra — and then serves the accesses in the order
// given, so a later one's function may use what an earlier one's found, or
// left, in the same store or another. It returns extra's answers, in order
// (nil for a write). The accesses' own write-backs wait for the next Do or
// Flush. A store may be named any number of times; a store whose write-back
// this pipeline still owes may be named too: its fetches follow the
// write-back in the round, so these Fns see what the earlier accesses left.
// extra names cells at public addresses, never a store's tree, and what it
// answers is the caller's to check.
//
// A call that cannot be sent — a handle that is unusable or owes a write-back
// to another pipeline or to a direct access, a key too wide — is refused
// whole before any access begins: nothing has touched the wire, so the
// pipeline is exactly as it was and what it owes can still be flushed.
func (p *Pipeline) Do(accesses []Access, extra ...store.BatchOp) ([][][]byte, error) {
	for i, a := range accesses {
		if err := a.Store.ready(a.Key, p); err != nil {
			return nil, &AccessError{i, err}
		}
	}
	p.index = p.index[:0]
	for i, a := range accesses {
		o := a.Store
		if o.cur.stage == idle {
			p.begun = append(p.begun, o)
		}
		k, err := o.begin(a.Key, p, i)
		if err != nil { // ready said it could
			return nil, p.abandon(err)
		}
		p.index = append(p.index, k)
	}
	for _, o := range p.begun {
		o.idx = o.pl.lay(o.idx)
		p.ops = append(p.ops, store.BatchOp{Name: o.name, Idx: o.idx})
	}
	p.ops = append(p.ops, extra...)
	res, err := p.round()
	if err != nil {
		return nil, err
	}
	fetched, answers := res[:len(p.begun)], res[len(p.begun):]
	for j, o := range p.begun {
		if at, err := o.absorb(fetched[j]); err != nil {
			return nil, p.abandon(&AccessError{at, err})
		}
	}
	for i, a := range accesses {
		if err := a.Store.apply(p.index[i], a.Fn); err != nil {
			return nil, p.abandon(&AccessError{i, err})
		}
	}
	for _, o := range p.begun {
		if err := o.finish(); err != nil {
			return nil, p.abandon(&AccessError{o.cur.ops[0].at, err})
		}
	}
	for _, o := range p.begun {
		p.ops = append(p.ops, store.BatchOp{Write: true, Name: o.name, Idx: o.idx, Cts: o.outBuf})
		o.owe(p)
	}
	p.wrote, p.owing, p.begun = p.wrote+len(p.begun), append(p.owing, p.begun...), p.begun[:0]
	return answers, nil
}

// Flush sends the write-backs still owed, and extra after them in the same
// round: a Do of no accesses. After it the stores are as a serial run of the
// same accesses leaves them.
func (p *Pipeline) Flush(extra ...store.BatchOp) error {
	_, err := p.Do(nil, extra...)
	return err
}

// round sends p.ops as one batch, settles the write-backs it carried and
// returns what the rest of the batch answered: each begun tree's fetched
// round, in the order begun, then the extra ops' answers.
func (p *Pipeline) round() ([][][]byte, error) {
	if len(p.ops) == 0 {
		return nil, nil
	}
	res, err := store.DoBatch(p.svc, p.ops)
	if err != nil {
		return nil, p.abandon(fmt.Errorf("oram: %w", err))
	}
	if len(res) != len(p.ops) {
		return nil, p.abandon(fmt.Errorf("oram: batch of %d ops answered with %d results", len(p.ops), len(res)))
	}
	for _, o := range p.owing {
		o.settle(nil)
	}
	res = res[p.wrote:]
	p.reset()
	return res, nil
}

// abandon closes every batch in flight with err and returns it.
func (p *Pipeline) abandon(err error) error {
	for _, o := range p.owing {
		o.settle(err)
	}
	for _, o := range p.begun {
		o.end(err) // a handle that has only begun carries on
	}
	p.reset()
	p.begun = p.begun[:0]
	return err
}

// reset empties the next round, dropping the ciphertexts it referenced.
func (p *Pipeline) reset() {
	clear(p.ops)
	p.wrote, p.owing, p.ops = 0, p.owing[:0], p.ops[:0]
}
