package core

import (
	"errors"
	"fmt"
	"sort"

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
// lattice, with its C⁺ candidate pruning and key pruning. The traversal
// order is a deterministic function of (m, n, the discovered FDs) — exactly
// the allowed leakage L(DB) — and every node's partition is requested as
// the union of two previously materialized subsets, which is Property 1.
//
// The set level is the two lines marked "set-level check" below: the client
// compares two cardinalities it alone can decrypt and (optionally) reveals
// only the boolean to the server.

// Options configures Discover.
type Options struct {
	// KeepPartitions retains every materialized partition on the server
	// instead of releasing levels as the search ascends. Required when the
	// engine will be used dynamically (insert/delete) afterwards.
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
	// (after the level's partitions are materialized and obsolete ones
	// released) with a deep copy of the traversal state. The callback
	// typically captures the engine state alongside, marks the recovery
	// epoch on the server, and persists everything to a client-local file
	// (securefd.Database.DiscoverResumable wires exactly that). A callback
	// error aborts discovery.
	Checkpoint func(ls *LatticeState) error
	// Resume, if non-nil, continues a previous run from its checkpointed
	// frontier instead of starting at level 1. The engine must hold the
	// partitions the state references (core.ResumeEngine rebuilds it).
	// MaxLHS and KeepPartitions are taken from the state, not from this
	// Options value, so the resumed run cannot diverge from the original.
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
	// Workers is passed to the engine with every level: the sort engine
	// builds up to that many of the level's partitions concurrently, which
	// changes only the interleaving of accesses across arrays, never any
	// single array's sequence — see DESIGN.md §11. The ORAM engines take a
	// level at a time on one goroutine and show the server the same ordered
	// trace whatever it is; plain, deterministic and enclave build a set at a
	// time. The zero value, like 1, is serial (as in securefd.Options): a
	// caller that wants one worker per core asks for runtime.GOMAXPROCS(0).
	Workers int
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
// The engine's partitions are materialized level by level; unless
// opts.KeepPartitions is set, levels are released once no longer needed.
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
	var lsp *otrace.Span
	beginLevel := func(name string) {
		lsp = otr.Start(name)
		otr.SetCurrent(lsp.Context())
	}
	endLevel := func() {
		otr.SetCurrent(dsp.Context())
		lsp.End()
	}
	defer func() {
		otr.SetCurrent(outer)
		dsp.End()
	}()

	workers := max(opts.Workers, 1)

	res := &Result{Cardinalities: make(map[relation.AttrSet]int)}

	// materializeLevel asks the engine for a level's partitions, in one call,
	// and records their cardinalities. kind is "single" or "union".
	materializeLevel := func(l int, kind string, reqs []Request) error {
		if len(reqs) == 0 {
			return nil
		}
		csp := otr.Start("candidate/" + kind)
		up := otr.SetCurrent(csp.Context())
		cards, err := engine.Materialize(reqs, workers)
		otr.SetCurrent(up)
		csp.End()
		if err != nil {
			return describeIntegrity(err, l)
		}
		for i, r := range reqs {
			res.Cardinalities[r.Set] = cards[i]
			res.SetsMaterialized++
		}
		return nil
	}

	universe := relation.FullSet(m)
	cplus := map[relation.AttrSet]relation.AttrSet{0: universe}

	// cplusOf returns C⁺(x), reconstructing it recursively as the
	// intersection of its parents' C⁺ when x itself was never a lattice
	// node (pruned branches still participate in the key-pruning
	// condition below). Memoized into cplus.
	var cplusOf func(x relation.AttrSet) relation.AttrSet
	cplusOf = func(x relation.AttrSet) relation.AttrSet {
		if c, ok := cplus[x]; ok {
			return c
		}
		cp := universe
		x.Subsets(func(sub relation.AttrSet) {
			cp = cp.Intersect(cplusOf(sub))
		})
		cplus[x] = cp
		return cp
	}

	var level, prevLevel []relation.AttrSet
	startLevel := 1

	// snapshotState deep-copies the traversal state at a level boundary, so
	// the checkpoint callback can retain it without aliasing live maps.
	snapshotState := func(nextLevel int) *LatticeState {
		ls := &LatticeState{
			M:                m,
			NextLevel:        nextLevel,
			Level:            append([]relation.AttrSet(nil), level...),
			PrevLevel:        append([]relation.AttrSet(nil), prevLevel...),
			CPlus:            make([][2]relation.AttrSet, 0, len(cplus)),
			Minimal:          append([]relation.FD(nil), res.Minimal...),
			Cardinalities:    make([]SetCard, 0, len(res.Cardinalities)),
			SetsMaterialized: res.SetsMaterialized,
			Checks:           res.Checks,
			MaxLHS:           opts.MaxLHS,
			KeepPartitions:   opts.KeepPartitions,
		}
		for k, v := range cplus {
			ls.CPlus = append(ls.CPlus, [2]relation.AttrSet{k, v})
		}
		for k, v := range res.Cardinalities {
			ls.Cardinalities = append(ls.Cardinalities, SetCard{k, v})
		}
		return ls
	}

	if rs := opts.Resume; rs != nil {
		// Continue from a checkpointed frontier. The pruning-relevant
		// options come from the state so the resumed traversal — and with
		// it the access pattern — is the one the original run would have
		// produced.
		if rs.M != m {
			return nil, fmt.Errorf("%w: checkpoint covers %d attributes, engine %d", ErrCorruptCheckpoint, rs.M, m)
		}
		if rs.NextLevel < 1 {
			return nil, fmt.Errorf("%w: next level %d", ErrCorruptCheckpoint, rs.NextLevel)
		}
		if rs.MaxLHS < 0 {
			return nil, fmt.Errorf("%w: MaxLHS %d", ErrCorruptCheckpoint, rs.MaxLHS)
		}
		opts.MaxLHS = rs.MaxLHS
		opts.KeepPartitions = rs.KeepPartitions
		level = append([]relation.AttrSet(nil), rs.Level...)
		prevLevel = append([]relation.AttrSet(nil), rs.PrevLevel...)
		for _, kv := range rs.CPlus {
			cplus[kv[0]] = kv[1]
		}
		res.Minimal = append([]relation.FD(nil), rs.Minimal...)
		for _, c := range rs.Cardinalities {
			res.Cardinalities[c.Set] = c.Card
		}
		res.SetsMaterialized = rs.SetsMaterialized
		res.Checks = rs.Checks
		startLevel = rs.NextLevel
		for _, x := range level {
			if _, ok := engine.Cardinality(x); !ok {
				return nil, fmt.Errorf("%w: frontier set %v not materialized in engine", ErrCorruptCheckpoint, x)
			}
		}
	} else {
		// Level 1: materialize every singleton partition, ascending from ∅.
		beginLevel("lattice/level-00")
		level = relation.AllSingletons(m)
		reqs := make([]Request, len(level))
		for i, x := range level {
			reqs[i] = Request{Set: x}
		}
		if err := materializeLevel(1, "single", reqs); err != nil {
			return nil, err
		}
		endLevel()
		if opts.Checkpoint != nil {
			if err := opts.Checkpoint(snapshotState(1)); err != nil {
				return nil, fmt.Errorf("core: checkpoint after level 1: %w", err)
			}
		}
	}

	for l := startLevel; len(level) > 0; l++ {
		// The span for level l covers processing its nodes AND materializing
		// level l+1 from them (GenerateNextLevel), so span NN's time is the
		// cost of ascending from level NN. Error paths return without End;
		// the run aborts and the partial breakdown is never reported.
		beginLevel(fmt.Sprintf("lattice/level-%02d", l))

		// ComputeDependencies: refresh C⁺ for this level.
		for _, x := range level {
			cp := universe
			x.Subsets(func(sub relation.AttrSet) {
				cp = cp.Intersect(cplusOf(sub))
			})
			cplus[x] = cp
		}
		var decided []Decision
		for _, x := range level {
			for _, a := range x.Intersect(cplus[x]).Attrs() {
				lhs := x.Remove(a)
				lhsCard := 1 // |π_∅| = 1 on a non-empty database
				if !lhs.IsEmpty() {
					lhsCard = res.Cardinalities[lhs]
				}
				// Set-level check (Theorem 1): X\{A} → A iff
				// |π_{X\{A}}| = |π_X|.
				holds := lhsCard == res.Cardinalities[x]
				res.Checks++
				fd := relation.FD{LHS: lhs, RHS: relation.SingleAttr(a)}
				decided = append(decided, Decision{fd, holds})
				if holds {
					res.Minimal = append(res.Minimal, fd)
					cp := cplus[x].Remove(a)
					cp = cp.Minus(universe.Minus(x))
					cplus[x] = cp
				}
			}
		}

		// Prune: drop nodes with empty C⁺ and superkeys (after harvesting
		// the superkeys' remaining dependencies).
		kept := level[:0]
		inLevel := make(map[relation.AttrSet]bool, len(level))
		release := func(x relation.AttrSet) error {
			if opts.KeepPartitions {
				return nil
			}
			return engine.Release(x)
		}
		for _, x := range level {
			if cplus[x].IsEmpty() {
				if err := release(x); err != nil {
					return nil, err
				}
				continue
			}
			if res.Cardinalities[x] == n { // X is a (super)key
				// The harvested FDs have |LHS| = |X| = l, one more than
				// the dependencies found by ComputeDependencies at this
				// level, so the MaxLHS bound must be re-checked here.
				if opts.MaxLHS == 0 || x.Size() <= opts.MaxLHS {
					for _, a := range cplus[x].Minus(x).Attrs() {
						ok := true
						x.Subsets(func(sub relation.AttrSet) {
							if !cplusOf(sub.Add(a)).Has(a) {
								ok = false
							}
						})
						if ok {
							fd := relation.FD{LHS: x, RHS: relation.SingleAttr(a)}
							res.Minimal = append(res.Minimal, fd)
							decided = append(decided, Decision{fd, true})
						}
					}
				}
				if err := release(x); err != nil {
					return nil, err
				}
				continue
			}
			kept = append(kept, x)
			inLevel[x] = true
		}

		if opts.Reveal != nil && len(decided) > 0 {
			opts.Reveal(decided)
		}

		if opts.MaxLHS > 0 && l >= opts.MaxLHS+1 {
			endLevel()
			break // LHS at the next level would exceed the bound
		}

		// GenerateNextLevel: TANE's prefix-bucket join — two l-sets join
		// iff they share everything but their largest attribute, so
		// bucketing by that prefix generates each candidate exactly once
		// without the O(|level|²) pair scan. Candidates then pass the
		// all-subsets check and are materialized from their Property 1
		// cover.
		buckets := make(map[relation.AttrSet][]relation.AttrSet, len(kept))
		var prefixes []relation.AttrSet
		for _, x := range kept {
			prefix := x.Remove(x.Last())
			if _, ok := buckets[prefix]; !ok {
				prefixes = append(prefixes, prefix)
			}
			buckets[prefix] = append(buckets[prefix], x)
		}
		// Deterministic traversal order: the access pattern must be a
		// function of (m, n, FD(DB)) alone, never of map iteration.
		sort.Slice(prefixes, func(i, j int) bool { return prefixes[i] < prefixes[j] })
		var next []relation.AttrSet
		var reqs []Request
		for _, prefix := range prefixes {
			group := buckets[prefix]
			for i := 0; i < len(group); i++ {
				for j := i + 1; j < len(group); j++ {
					z := group[i].Union(group[j])
					allIn := true
					z.Subsets(func(sub relation.AttrSet) {
						if !inLevel[sub] {
							allIn = false
						}
					})
					if !allIn {
						continue
					}
					x1, x2 := z.SplitCover()
					next = append(next, z)
					reqs = append(reqs, Union(x1, x2))
				}
			}
		}
		if err := materializeLevel(l+1, "union", reqs); err != nil {
			return nil, err
		}
		// Sets two levels down are no longer anyone's cover.
		if !opts.KeepPartitions {
			for _, x := range prevLevel {
				if err := engine.Release(x); err != nil {
					return nil, err
				}
			}
		}
		prevLevel = kept
		level = next
		endLevel()

		// Level boundary: partitions for `level` are materialized, obsolete
		// ones released — the engine state matches the frontier exactly, so
		// this is the one safe moment to checkpoint.
		if opts.Checkpoint != nil && len(level) > 0 {
			if err := opts.Checkpoint(snapshotState(l + 1)); err != nil {
				return nil, fmt.Errorf("core: checkpoint after level %d: %w", l, err)
			}
		}
	}

	relation.SortFDs(res.Minimal)
	return res, nil
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
func materializeChain(engine Engine, x relation.AttrSet, created *[]relation.AttrSet) (int, error) {
	track := func(s relation.AttrSet, pre bool) {
		if !pre {
			*created = append(*created, s)
		}
	}
	attrs := x.Attrs()
	first := relation.SingleAttr(attrs[0])
	_, pre := engine.Cardinality(first)
	card, err := CardinalitySingle(engine, attrs[0])
	if err != nil {
		return 0, err
	}
	track(first, pre)
	cur := first
	for _, a := range attrs[1:] {
		single := relation.SingleAttr(a)
		_, pre := engine.Cardinality(single)
		if _, err := CardinalitySingle(engine, a); err != nil {
			return 0, err
		}
		track(single, pre)
		next := cur.Add(a)
		_, pre = engine.Cardinality(next)
		card, err = CardinalityUnion(engine, cur, single)
		if err != nil {
			return 0, err
		}
		track(next, pre)
		cur = next
	}
	return card, nil
}
