package core

import (
	"errors"
	"fmt"
	"slices"

	"github.com/oblivfd/oblivfd/internal/otrace"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
)

// describeIntegrity annotates an engine error that originated in failed
// verification with the lattice level that tripped it, so the operator sees
// *where* in the search the store returned tampered data; the engines have put
// the attribute set in already (describeSet). Non-integrity errors pass through
// unchanged.
func describeIntegrity(err error, level int) error {
	if !errors.Is(err, store.ErrIntegrity) {
		return err
	}
	return fmt.Errorf("core: integrity failure at lattice level %d: %w", level, err)
}

// describeSet is the engines' half of that: where a verification failure
// arises, it is given the structure it arose in — the attribute set being
// built or the cover being read.
func describeSet(err error, where string) error {
	if !errors.Is(err, store.ErrIntegrity) {
		return err
	}
	return fmt.Errorf("%s: %w", where, err)
}

// This file is the database level (§IV-A): the top-down levelwise search of
// TANE (Huhtala et al., the paper's [23]) over the attribute-set containment
// lattice, with its C⁺ candidate pruning and key pruning. The plan decides it
// from its state and the cardinalities it is handed alone — no engine — so its
// schedule is a function of (m, n, the discovered FDs), exactly the allowed
// leakage L(DB), and every node is requested as the union of two previously
// materialized subsets (Property 1). Discover executes the plan one for one.
//
// The set level is the line marked "set-level check" below: the client
// compares two cardinalities it alone can decrypt and (optionally) reveals
// only the boolean to the server.

// Options configures Discover.
type Options struct {
	// KeepPartitions retains every materialized partition on the server;
	// without it each set is released once the level above it is built, and
	// nothing Discover built outlives it (a later Validate builds and releases
	// its own chain). Required for dynamic use (insert/delete) afterwards.
	KeepPartitions bool
	// MaxLHS bounds the size of left-hand sides searched; 0 means no
	// bound (search the full lattice).
	MaxLHS int
	// Reveal, if non-nil, is invoked once per lattice level with the
	// level's set-level decisions, each a candidate FD and whether it
	// holds, in the order they were made — the protocol's only disclosure
	// to the server beyond the access pattern. A level that decides
	// nothing makes no call.
	Reveal func(decisions []Decision)
	// Checkpoint, if non-nil, is invoked at every lattice level boundary
	// (after the level's partitions are materialized and the level below
	// released) with the traversal's parameters and cardinalities so far, a
	// state the run no longer touches. The callback typically captures the
	// engine state alongside, marks the recovery epoch on the server, and
	// persists everything to a client-local file
	// (securefd.Database.DiscoverResumable wires exactly that). A callback
	// error aborts discovery.
	Checkpoint func(ls *LatticeState) error
	// Resume, if non-nil, continues a previous run from its checkpointed
	// frontier, replayed from the state's cardinalities, instead of starting
	// at level 1. The engine must hold the frontier's partitions
	// (core.ResumeEngine rebuilds it) at those cardinalities, or the state is
	// refused as ErrCorruptCheckpoint; keeping nothing, it releases the other
	// sets it holds. MaxLHS and KeepPartitions are taken from the state, not
	// from this Options value, so the resumed run cannot diverge from the
	// original; the caller's Options is not modified.
	Resume *LatticeState
	// Trace, if non-nil, records causal spans for the traversal: one root
	// "discover" span, a child "lattice/level-NN" per level, and under it
	// one "candidate/single" or "candidate/union" span around each
	// Materialize call — a whole level's partitions. Span NN covers the
	// ascent from level NN: level-00 builds the singletons from ∅, level-NN
	// checks level NN and builds level NN+1. The running span is the
	// tracer's current span (otrace.Tracer.SetCurrent), so transport RPC
	// spans from every worker (and, through the wire context, server-side
	// store and replication spans) nest causally under it; the tracer's
	// Phases total them per name. A tracer follows one traversal at a time:
	// give concurrent Discover calls a tracer each. Spans observe only wall
	// time over server-visible work — no oblivious accesses of their own and
	// no change to any frame's size (DESIGN.md §9, §14).
	Trace *otrace.Tracer
}

// Decision is one set-level decision: a candidate FD and whether it holds.
type Decision struct {
	FD    relation.FD
	Holds bool
}

// Result is the outcome of a discovery run.
type Result struct {
	// Minimal holds the minimal functional dependencies: X → A with
	// singleton RHS, where no proper subset of X determines A. Every
	// valid FD of the database is implied by this set.
	Minimal []relation.FD
	// Cardinalities caches |π_X| for every materialized set (client-side
	// knowledge; the server never sees these values).
	Cardinalities map[relation.AttrSet]int
	// SetsMaterialized counts attribute sets whose partition was computed.
	SetsMaterialized int
	// Checks counts set-level validations performed.
	Checks int
}

// Discover runs secure FD discovery over an engine covering m attributes.
// The engine is handed the plan's requests and releases and nothing else:
// partitions are materialized level by level and, unless
// opts.KeepPartitions is set, each set is released once no request needs it.
func Discover(engine Engine, m int, opts *Options) (*Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	if m < 1 || m > relation.MaxAttrs {
		return nil, fmt.Errorf("core: attribute count %d out of range", m)
	}
	if opts.MaxLHS < 0 {
		return nil, fmt.Errorf("core: MaxLHS %d is negative (0 searches every determinant size)", opts.MaxLHS)
	}
	n := engine.NumRows()
	if n < 1 {
		return nil, fmt.Errorf("core: empty database")
	}
	p := newPlan(m, n, opts.MaxLHS, opts.KeepPartitions)
	if opts.Resume != nil {
		var err error
		if p, err = resumePlan(opts.Resume, m, n, engine.Cardinality); err != nil {
			return nil, err
		}
	}

	// Causal spans: one root for the whole traversal, one child per level.
	// The running span is the tracer's current span, so everything the
	// engine does for it — client RPC spans from every worker, and through
	// the wire context the server's own spans — links under it. Nil tracer:
	// every call below is a no-op. An aborting error path leaves the running
	// level's span unrecorded while the deferred cleanup still ends the root
	// and restores the tracer's current span.
	otr := opts.Trace
	dsp := otr.Start("discover")
	outer := otr.SetCurrent(dsp.Context())
	defer func() {
		otr.SetCurrent(outer)
		dsp.End()
	}()

	release := func(sets []relation.AttrSet) error {
		for _, x := range sets {
			if err := engine.Release(x); err != nil {
				return err
			}
		}
		return nil
	}
	for !p.done() {
		l := p.nextLevel
		lsp := otr.Start(fmt.Sprintf("lattice/level-%02d", l))
		otr.SetCurrent(lsp.Context())
		s := p.check()
		if err := release(s.before); err != nil {
			return nil, err
		}
		if opts.Reveal != nil && len(s.decided) > 0 {
			opts.Reveal(s.decided)
		}
		if len(s.reqs) > 0 {
			kind := "union"
			if l == 0 {
				kind = "single"
			}
			csp := otr.Start("candidate/" + kind)
			otr.SetCurrent(csp.Context())
			cards, err := engine.Materialize(s.reqs)
			otr.SetCurrent(lsp.Context())
			csp.End()
			if err != nil {
				return nil, describeIntegrity(err, l+1)
			}
			p.record(cards)
		}
		if err := release(s.after); err != nil {
			return nil, err
		}
		otr.SetCurrent(dsp.Context())
		lsp.End()

		// Level boundary: the plan's level is materialized and, keeping
		// nothing, the engine holds that level alone — its state matches the
		// frontier exactly, so this is the one safe moment to checkpoint.
		if opts.Checkpoint != nil && !p.done() {
			if err := opts.Checkpoint(p.state()); err != nil {
				return nil, fmt.Errorf("core: checkpoint before level %d: %w", p.nextLevel, err)
			}
		}
	}
	return p.result(), nil
}

// plan is the levelwise search with no engine: the traversal state, and the
// decisions, releases and requests that follow from it and from the answers
// the executor hands back. A checkpoint (state) keeps parameters and answers.
type plan struct {
	m, n, maxLHS int
	keep         bool
	// nextLevel is the level the next check decides and level its sets.
	// Before the singletons are requested nextLevel is 0 and level empty.
	nextLevel    int
	level, extra []relation.AttrSet // extra: held beyond level on resuming, released by the next check
	cplus        map[relation.AttrSet]relation.AttrSet
	cards        map[relation.AttrSet]int // every answer recorded
	minimal      []relation.FD
	sets, checks int
}

// levelStep is what one check asks of the executor, in order: release before,
// reveal decided, materialize reqs and hand their cardinalities to record,
// release after.
type levelStep struct {
	decided []Decision
	before  []relation.AttrSet // the checked level's sets no request reads
	reqs    []Request          // the next level, each from its Property 1 cover
	after   []relation.AttrSet // the checked level's sets some request reads
}

func newPlan(m, n, maxLHS int, keep bool) *plan {
	return &plan{m: m, n: n, maxLHS: maxLHS, keep: keep,
		cplus: map[relation.AttrSet]relation.AttrSet{0: relation.FullSet(m)},
		cards: make(map[relation.AttrSet]int)}
}

// resumePlan rebuilds the plan a checkpointed state was taken from, over n
// records, by replay: every check up to the state's level, each request
// answered from the state's cardinalities. cardOf reports the cardinality of
// a set the engine holds. Every set of the level, all the next requests read,
// must be held at its replayed cardinality, or the resumed run would build on
// numbers no partition backs. Any other set a keep-off state holds (it was
// kept, or the level below) becomes extra.
func resumePlan(ls *LatticeState, m, n int, cardOf func(relation.AttrSet) (int, bool)) (*plan, error) {
	switch {
	case ls.M != m:
		return nil, fmt.Errorf("%w: checkpoint covers %d attributes, engine %d", ErrCorruptCheckpoint, ls.M, m)
	case ls.NextLevel < 1:
		return nil, fmt.Errorf("%w: next level %d", ErrCorruptCheckpoint, ls.NextLevel)
	case ls.MaxLHS < 0:
		return nil, fmt.Errorf("%w: MaxLHS %d", ErrCorruptCheckpoint, ls.MaxLHS)
	}
	answers := make(map[relation.AttrSet]int, len(ls.Cardinalities))
	for _, c := range ls.Cardinalities {
		answers[c.Set] = c.Card
	}
	p := newPlan(m, n, ls.MaxLHS, ls.KeepPartitions)
	for p.nextLevel < ls.NextLevel {
		if p.done() {
			return nil, fmt.Errorf("%w: the search ends at level %d, before the checkpoint's %d", ErrCorruptCheckpoint, p.nextLevel, ls.NextLevel)
		}
		reqs := p.check().reqs
		cards := make([]int, len(reqs))
		for i, r := range reqs {
			var ok bool
			if cards[i], ok = answers[r.Set]; !ok {
				return nil, fmt.Errorf("%w: no cardinality for %v, a set of level %d", ErrCorruptCheckpoint, r.Set, p.nextLevel)
			}
		}
		p.record(cards)
	}

	for _, x := range p.level {
		if got, held := cardOf(x); !held || got != p.cards[x] {
			return nil, fmt.Errorf("%w: frontier set %v: |π| is %d replayed, %d in the engine (held: %t)",
				ErrCorruptCheckpoint, x, p.cards[x], got, held)
		}
	}
	if !p.keep {
		for x := range p.cards {
			if _, held := cardOf(x); held && !slices.Contains(p.level, x) {
				p.extra = append(p.extra, x)
			}
		}
		slices.Sort(p.extra)
	}
	return p, nil
}

// state is the plan as a checkpoint holds it: its parameters, its level and
// every answer it was handed, in tables the plan no longer touches.
func (p *plan) state() *LatticeState {
	ls := &LatticeState{M: p.m, NextLevel: p.nextLevel, MaxLHS: p.maxLHS, KeepPartitions: p.keep,
		Cardinalities: make([]SetCard, 0, len(p.cards))}
	for k, v := range p.cards {
		ls.Cardinalities = append(ls.Cardinalities, SetCard{k, v})
	}
	return ls
}

// done says the search is over: a level was checked and nothing is left to
// build above it.
func (p *plan) done() bool { return p.nextLevel > 0 && len(p.level) == 0 }

// check decides level nextLevel, prunes it and generates the level above
// (ComputeDependencies, Prune and GenerateNextLevel), then moves up to it:
// the requested sets become the level, pending record. Once MaxLHS bounds the
// search it requests nothing and the plan is done. Keeping nothing, a set of
// the checked level is released before the requests, or after if one reads it.
func (p *plan) check() levelStep {
	var s levelStep
	universe := relation.FullSet(p.m)

	// ComputeDependencies: C⁺ for this level, and the checks it leaves.
	for _, x := range p.level {
		for _, a := range x.Intersect(p.cplusOf(x)).Attrs() {
			lhs := x.Remove(a)
			lhsCard := 1 // |π_∅| = 1 on a non-empty database
			if !lhs.IsEmpty() {
				lhsCard = p.cards[lhs]
			}
			// Set-level check (Theorem 1): X\{A} → A iff |π_{X\{A}}| = |π_X|.
			holds := lhsCard == p.cards[x]
			p.checks++
			fd := relation.FD{LHS: lhs, RHS: relation.SingleAttr(a)}
			s.decided = append(s.decided, Decision{fd, holds})
			if holds {
				p.minimal = append(p.minimal, fd)
				p.cplus[x] = p.cplus[x].Remove(a).Minus(universe.Minus(x))
			}
		}
	}

	// Prune: drop nodes with empty C⁺ and superkeys (after harvesting the
	// superkeys' remaining dependencies).
	var kept []relation.AttrSet
	inLevel := make(map[relation.AttrSet]bool, len(p.level))
	for _, x := range p.level {
		switch {
		case p.cplus[x].IsEmpty():
		case p.cards[x] == p.n: // X is a (super)key
			// The harvested FDs have |LHS| = |X| = l, one more than the
			// dependencies found by ComputeDependencies at this level, so
			// the MaxLHS bound must be re-checked here.
			if p.maxLHS == 0 || x.Size() <= p.maxLHS {
				for _, a := range p.cplus[x].Minus(x).Attrs() {
					ok := true // every C⁺ is memoized, whatever ok already says
					x.Subsets(func(sub relation.AttrSet) { ok = p.cplusOf(sub.Add(a)).Has(a) && ok })
					if ok {
						fd := relation.FD{LHS: x, RHS: relation.SingleAttr(a)}
						p.minimal = append(p.minimal, fd)
						s.decided = append(s.decided, Decision{fd, true})
					}
				}
			}
		default:
			kept = append(kept, x)
			inLevel[x] = true
		}
	}
	if p.maxLHS > 0 && p.nextLevel > p.maxLHS {
		kept = nil // LHS at the next level would exceed the bound
	}

	// GenerateNextLevel: from ∅, the singletons; above, TANE's prefix-bucket
	// join — two l-sets join iff they share everything but their largest
	// attribute, so bucketing by that prefix generates each candidate exactly
	// once without the O(|level|²) pair scan. Candidates then pass the
	// all-subsets check and are requested from their Property 1 cover.
	var next []relation.AttrSet
	if p.nextLevel == 0 {
		next = relation.AllSingletons(p.m)
		for _, x := range next {
			s.reqs = append(s.reqs, Request{Set: x})
		}
	}
	buckets := make(map[relation.AttrSet][]relation.AttrSet, len(kept))
	var prefixes []relation.AttrSet
	for _, x := range kept {
		prefix := x.Remove(x.Last())
		if _, ok := buckets[prefix]; !ok {
			prefixes = append(prefixes, prefix)
		}
		buckets[prefix] = append(buckets[prefix], x)
	}
	// Deterministic traversal order: the access pattern must be a function
	// of (m, n, FD(DB)) alone, never of map iteration.
	slices.Sort(prefixes)
	for _, prefix := range prefixes {
		group := buckets[prefix]
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				z := group[i].Union(group[j])
				allIn := true
				z.Subsets(func(sub relation.AttrSet) { allIn = allIn && inLevel[sub] })
				if !allIn {
					continue
				}
				x1, x2 := z.SplitCover()
				next = append(next, z)
				s.reqs = append(s.reqs, Union(x1, x2))
			}
		}
	}
	if !p.keep {
		read := make(map[relation.AttrSet]bool, 2*len(s.reqs))
		for _, r := range s.reqs {
			read[r.Cover[0]], read[r.Cover[1]] = true, true
		}
		for _, x := range slices.Concat(p.extra, p.level) {
			if read[x] {
				s.after = append(s.after, x)
			} else {
				s.before = append(s.before, x)
			}
		}
	}
	p.nextLevel++
	p.level, p.extra = next, nil
	return s
}

// record takes the cardinalities of the level check requested, in request
// order.
func (p *plan) record(cards []int) {
	for i, x := range p.level {
		p.cards[x] = cards[i]
	}
	p.sets += len(cards)
}

// cplusOf returns C⁺(x), the intersection of its parents' C⁺ until x's own
// check narrows it; for a set that is never a lattice node (pruned branches
// still take part in key pruning) it stays that. Memoized into cplus: a set
// is first asked for at its own level or above.
func (p *plan) cplusOf(x relation.AttrSet) relation.AttrSet {
	if c, ok := p.cplus[x]; ok {
		return c
	}
	c := relation.FullSet(p.m)
	x.Subsets(func(sub relation.AttrSet) { c = c.Intersect(p.cplusOf(sub)) })
	p.cplus[x] = c
	return c
}

// result is the outcome once the plan is done.
func (p *plan) result() *Result {
	relation.SortFDs(p.minimal)
	return &Result{Minimal: p.minimal, Cardinalities: p.cards, SetsMaterialized: p.sets, Checks: p.checks}
}

// AggregateFDs merges minimal FDs sharing a left-hand side into the paper's
// pair form (A, B) with composite right-hand sides: if A → B₁ and A → B₂
// then A → B₁ ∪ B₂.
func AggregateFDs(minimal []relation.FD) []relation.FD {
	byLHS := make(map[relation.AttrSet]relation.AttrSet)
	for _, fd := range minimal {
		byLHS[fd.LHS] = byLHS[fd.LHS].Union(fd.RHS)
	}
	out := make([]relation.FD, 0, len(byLHS))
	for lhs, rhs := range byLHS {
		out = append(out, relation.FD{LHS: lhs, RHS: rhs})
	}
	relation.SortFDs(out)
	return out
}

// Validate checks a single dependency X → Y on an engine by materializing
// the partition chain for X and X ∪ Y (respecting Property 1) and applying
// Theorem 1. It returns whether the FD holds.
//
// Every partition this validation materialized itself is released before
// returning — on success, on error, and on the trivial-dependency early
// return alike — so repeated Validate calls do not accumulate server-side
// state. Partitions that already existed (e.g. retained by a prior Discover
// with KeepPartitions) are left in place.
func Validate(engine Engine, x, y relation.AttrSet) (holds bool, err error) {
	if x.IsEmpty() || y.IsEmpty() {
		return false, fmt.Errorf("core: Validate needs non-empty attribute sets")
	}
	var created []relation.AttrSet
	defer func() {
		for i := len(created) - 1; i >= 0; i-- {
			if rerr := engine.Release(created[i]); rerr != nil && err == nil {
				holds, err = false, rerr
			}
		}
	}()
	cardX, err := materializeChain(engine, x, &created)
	if err != nil {
		return false, err
	}
	union := x.Union(y)
	if union == x {
		return true, nil // Y ⊆ X: trivial dependency
	}
	cardXY, err := materializeChain(engine, union, &created)
	if err != nil {
		return false, err
	}
	return cardX == cardXY, nil
}

// materializeChain materializes π_x by growing one attribute at a time:
// {a₁}, {a₁,a₂}, … — each step a valid two-subset cover. Sets this call
// materialized (as opposed to found already cached) are appended to
// created, so the caller can release exactly its own additions.
func materializeChain(engine Engine, x relation.AttrSet, created *[]relation.AttrSet) (card int, err error) {
	build := func(r Request) (int, error) {
		_, cached := engine.Cardinality(r.Set)
		card, err := materializeOne(engine, r)
		if err == nil && !cached {
			*created = append(*created, r.Set)
		}
		return card, err
	}
	var cur relation.AttrSet
	for _, a := range x.Attrs() {
		if card, err = build(Single(a)); err == nil && !cur.IsEmpty() {
			card, err = build(Union(cur, relation.SingleAttr(a)))
		}
		if err != nil {
			return 0, err
		}
		cur = cur.Add(a)
	}
	return card, nil
}
