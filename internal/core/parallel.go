package core

import (
	"sync"

	"github.com/oblivfd/oblivfd/internal/relation"
)

// This file is the level-parallel execution layer: all candidates of one
// lattice level are independent of each other (each depends only on
// previous-level partitions), so their materializations can proceed
// concurrently — the coarse-grained counterpart of the sorting network's
// intra-sort parallelism (§IV-D). It is the sort engine that runs its fills
// side by side; the ORAM engines take a level a group at a time on one
// goroutine (oramCore.fill) and every other engine a set at a time, and for
// them runBatch is its serial loop.
//
// Obliviousness is preserved structure by structure, not globally: the
// multiset of per-structure access sequences (each sort array's own
// read/write order) is identical to the serial run's, and each sequence was
// already a function of public quantities alone. Only the interleaving
// *across* structures changes, and that interleaving is a function of
// goroutine scheduling, never of the data — see DESIGN.md §11 and
// trace.Shape.CanonicalPerStructure, which the equivalence tests use to
// compare sort runs under different worker counts.

// batchJob is one schedulable unit inside a Materialize call: a group of sets
// to fill, or a request the table can already answer.
type batchJob struct {
	// resources names the structures the job touches: the target sets plus,
	// for unions, their covers. Jobs sharing a resource never run in the same
	// wave, which preserves each cover array's access sequence and lets the
	// first reader of a cover sort it by r[ID] undisturbed.
	resources []relation.AttrSet
	// run does the expensive concurrent work. It must not touch engine
	// maps for writing; state to publish goes into the closure until
	// commit.
	run func() error
	// commit publishes the job's results into the engine's maps and the
	// caller's result slice. Called serially, in job order, after the
	// job's wave completes.
	commit func()
}

// conflictsWith reports whether two resource sets intersect.
func conflictsWith(a, b []relation.AttrSet) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// runBatch executes jobs under the wave schedule with at most workers
// concurrent runs.
//
// Wave rule: wave(j) = max over conflicting earlier jobs i of wave(i)+1,
// else 0. This — and not greedy first-fit packing — is what keeps every
// shared structure's access sequence in serial order: if jobs i < j
// conflict, j runs in a strictly later wave, so the structure sees i's
// accesses complete before j's begin, exactly as in the serial run.
// (First-fit is wrong: with jobs A{1}, B{1,2}, C{2}, packing C into A's
// wave would let C touch structure 2 before B does, reversing their serial
// order.)
//
// Commits run serially in job order after each wave, so a later wave
// observes every earlier job's published state. With workers <= 1 the
// schedule degenerates to the exact serial execution: run, commit, next.
//
// On failure the current wave still runs to completion and its successful
// jobs are committed (their server-side state exists; publishing it lets
// Close release it), then the lowest-index error of the wave is returned
// and later waves are abandoned.
func runBatch(jobs []batchJob, workers int) error {
	if workers <= 1 {
		for _, j := range jobs {
			if err := j.run(); err != nil {
				return err
			}
			j.commit()
		}
		return nil
	}

	waves := make([]int, len(jobs))
	numWaves := 0
	for j := range jobs {
		w := 0
		for i := 0; i < j; i++ {
			if waves[i] >= w && conflictsWith(jobs[i].resources, jobs[j].resources) {
				w = waves[i] + 1
			}
		}
		waves[j] = w
		if w+1 > numWaves {
			numWaves = w + 1
		}
	}

	sem := make(chan struct{}, workers)
	for w := 0; w < numWaves; w++ {
		var idxs []int
		for j := range jobs {
			if waves[j] == w {
				idxs = append(idxs, j)
			}
		}
		errs := make([]error, len(idxs))
		var wg sync.WaitGroup
		for k, j := range idxs {
			wg.Add(1)
			sem <- struct{}{}
			go func(k, j int) {
				defer wg.Done()
				defer func() { <-sem }()
				errs[k] = jobs[j].run()
			}(k, j)
		}
		wg.Wait()
		var firstErr error
		for k, j := range idxs {
			if errs[k] != nil {
				if firstErr == nil {
					firstErr = errs[k]
				}
				continue
			}
			jobs[j].commit()
		}
		if firstErr != nil {
			return firstErr
		}
	}
	return nil
}
