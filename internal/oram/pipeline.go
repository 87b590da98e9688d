package oram

import (
	"fmt"

	"github.com/oblivfd/oblivfd/internal/store"
)

// An Access is one oblivious access for a Pipeline to run: Fn is handed the
// value stored under Key in Store and decides what stays there. Landed, if
// set, runs once the access's write-back is on the server — before the
// pipeline serves anything fetched in the same round — and never for a
// write-back that was lost.
type Access struct {
	Store  *ORAM
	Key    string
	Fn     UpdateFunc
	Landed func()
}

// Pipeline runs accesses to different stores with their server calls fused.
// An access is two calls with client work between them — fetch a path, write
// it back — and the leaf is known before the fetch, so the fetches of accesses
// to different trees can share one round trip, and the write-backs can share
// the next, along with the fetches of whatever the caller does next — the
// next accesses to the same trees included:
//
//	p.Do(a, b)   one round: ReadPath a, ReadPath b
//	p.Do(c, a)   one round: WritePath a, WritePath b, ReadPath c, ReadPath a
//	p.Flush()    one round: WritePath c, WritePath a
//
// What the server sees of each tree is what it sees when the same accesses
// run one after the other — ReadPath(leaf), then WritePath(leaf) of freshly
// sealed buckets, per access — and the ops of a round apply in the order
// given, so a tree's write-back lands before its next fetch in the same round
// reads it; only the framing differs, and what a round holds is decided by
// the caller's sequence of Do and Flush, never by anything fetched. Through a
// service that cannot take a batch every op is its own call, in that same
// order.
//
// When a round fails — after whatever retrying the service itself does; a
// batch of fetches and of write-backs carrying their exact ciphertexts is
// safe to send again — every handle with a write-back in it is left refusing
// further accesses (see ORAM.settle), the error names the cause, and the
// pipeline is empty again. A pipeline is not safe for concurrent use, and a
// handle takes part in one access at a time.
type Pipeline struct {
	svc    store.Service
	staged []Access        // served; their write-backs lead the next round
	begun  []*ORAM         // this round's fetches, in order
	ops    []store.BatchOp // the next round: staged write-backs, then fetches
}

// NewPipeline returns an empty pipeline over the service its stores live on.
func NewPipeline(svc store.Service) *Pipeline { return &Pipeline{svc: svc} }

// An AccessError is a Do error that one of the call's accesses caused: it was
// refused before anything was sent, or its fetched path did not verify. Index
// says which, so a caller that built the call from a list can name the
// structure; the message is the cause's.
type AccessError struct {
	Index int
	Err   error
}

func (e *AccessError) Error() string { return e.Err.Error() }
func (e *AccessError) Unwrap() error { return e.Err }

// Do runs one round — the write-backs still owed by earlier accesses and the
// fetches of these — and then serves the accesses in the order given, so a
// later one's function may use what an earlier one's found. Their own
// write-backs wait for the next Do or Flush. A store whose write-back this
// pipeline still owes may be named: its fetch follows the write-back in the
// round, and the earlier access's Landed runs before this one's Fn.
//
// A call that cannot be sent — a store named twice, a handle that is unusable
// or owes a write-back to another pipeline or to a direct access, a key too
// wide — is refused whole before any access begins: nothing has touched the
// wire, so the pipeline is exactly as it was and what it owes can still be
// flushed.
func (p *Pipeline) Do(accesses ...Access) error {
	for i, a := range accesses {
		for _, b := range accesses[:i] {
			if a.Store == b.Store {
				return &AccessError{i, fmt.Errorf("oram: one store named twice in a round (keys %q and %q)", b.Key, a.Key)}
			}
		}
		if err := a.Store.ready(a.Key, p); err != nil {
			return &AccessError{i, err}
		}
	}
	for _, a := range accesses {
		o := a.Store
		leaf, err := o.begin(a.Key, p)
		if err != nil { // ready said it could
			return p.abandon(err)
		}
		p.begun = append(p.begun, o)
		p.ops = append(p.ops, store.BatchOp{Path: true, Name: o.name, Leaf: leaf, N: o.levels})
	}
	fetched, err := p.round()
	if err != nil {
		return err
	}
	for i, a := range accesses {
		o := a.Store
		out, err := o.serve(fetched[i], a.Fn)
		if err != nil {
			return p.abandon(&AccessError{i, err})
		}
		p.ops = append(p.ops, store.BatchOp{Write: true, Path: true, Name: o.name, Leaf: o.cur.leaf, Cts: out})
		p.staged = append(p.staged, a)
		o.owe(p)
	}
	p.begun = p.begun[:0]
	return nil
}

// Flush sends the write-backs still owed, and extra after them in the same
// round. After it the stores are as a serial run of the same accesses leaves
// them.
func (p *Pipeline) Flush(extra ...store.BatchOp) error {
	p.ops = append(p.ops, extra...)
	_, err := p.round()
	return err
}

// round sends p.ops as one batch, settles the write-backs it carried, runs
// their Landed hooks and returns what the rest of the batch answered: the
// fetched paths, in the order begun.
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
	for _, a := range p.staged {
		a.Store.settle(nil)
		if a.Landed != nil {
			a.Landed()
		}
	}
	res = res[len(p.staged):]
	p.staged, p.ops = p.staged[:0], p.ops[:0]
	return res, nil
}

// abandon closes every access in flight with err and returns it. No Landed
// hook runs.
func (p *Pipeline) abandon(err error) error {
	for _, a := range p.staged {
		a.Store.settle(err)
	}
	for _, o := range p.begun {
		o.end(err) // a no-op for one already served, which is in staged too
	}
	p.staged, p.begun, p.ops = p.staged[:0], p.begun[:0], p.ops[:0]
	return err
}
