package oram

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The tests in this file run the placement kernel alone: no cipher, no
// server, no key or value. TestPlacementIsCipherFree keeps it that way.

// A plainOp is one access of a plainTree batch: read, write or remove key.
type plainOp struct {
	key int
	op  byte // 'r', 'w' or 'd'
}

// plainTree drives a placer exactly as a handle does, over a plaintext model
// of the tree: every bucket z block keys in heap order, −1 for a dummy. Keys
// are the ints 0 … keys−1; slotOf and keyOf map them to the placer's slots
// and back, as a handle's index and key slice do.
type plainTree struct {
	pl     placer
	tree   []int
	slotOf []int32
	keyOf  []int
	idx    []int64
	first  []bool
	// inBatch is the largest stash before an eviction so far.
	inBatch int
}

// newPlainTree is the empty plaintext tree of a capacity, for keys 0 … keys−1,
// seeded by seed, with buckets of z blocks.
func newPlainTree(capacity, keys int, seed int64, z int) *plainTree {
	m := &plainTree{pl: newPlacer(capacity, seed), slotOf: make([]int32, keys)}
	m.pl.z = z
	m.tree = make([]int, (1<<m.pl.levels-1)*z)
	for i := range m.tree {
		m.tree[i] = -1
	}
	for i := range m.slotOf {
		m.slotOf[i] = -1
	}
	return m
}

// bucket is the model's content of the bucket at heap index b.
func (m *plainTree) bucket(b int64) []int { return m.tree[int(b)*m.pl.z:][:m.pl.z] }

// batch runs one batch as a handle's begin, absorb, apply and finish do: each
// access fetches its key's path if it is the batch's first to a live key and
// a fresh draw otherwise; every distinct fetched bucket's blocks enter the
// stash; writes add and removes drop in call order; each key the batch
// touched that is still live is remapped once; the stash is evicted and the
// round written back to the model.
func (m *plainTree) batch(ops []plainOp) error {
	p := &m.pl
	m.first = m.first[:0]
	for k, op := range ops {
		first := !slices.ContainsFunc(ops[:k], func(prev plainOp) bool { return prev.key == op.key })
		m.first = append(m.first, first)
		slot := int32(-1)
		if first {
			slot = m.slotOf[op.key]
		}
		p.fetch(slot)
	}
	m.idx = p.lay(m.idx)
	for j, b := range m.idx {
		if int(p.src[j]) != j {
			continue
		}
		for _, key := range m.bucket(b) {
			if key < 0 {
				continue
			}
			i := m.slotOf[key]
			if i < 0 || p.slots[i].stashed {
				return fmt.Errorf("bucket %d holds key %d, which is not live or already stashed", b, key)
			}
			p.enter(i)
		}
	}
	for k, op := range ops {
		if i := m.slotOf[op.key]; m.first[k] && i >= 0 && !p.slots[i].stashed {
			return fmt.Errorf("key %d missing from its path (leaf %d)", op.key, p.leaves[k])
		}
	}
	for _, op := range ops {
		switch i := m.slotOf[op.key]; {
		case op.op == 'w' && i < 0:
			m.slotOf[op.key] = p.add(0, true)
			m.keyOf = append(m.keyOf, op.key)
		case op.op == 'd' && i >= 0:
			p.drop(i)
			m.slotOf[op.key] = -1
			if last := int32(len(m.keyOf) - 1); i != last {
				m.keyOf[i] = m.keyOf[last]
				m.slotOf[m.keyOf[i]] = i
			}
			m.keyOf = m.keyOf[:len(m.keyOf)-1]
		}
	}
	for k, op := range ops {
		if i := m.slotOf[op.key]; m.first[k] && i >= 0 {
			p.remap(i)
		}
	}
	m.inBatch = max(m.inBatch, len(p.stash))
	p.evict()
	for j, b := range m.idx {
		if int(p.src[j]) != j {
			continue
		}
		for c, i := range p.content[j*p.z:][:p.z] {
			key := -1
			if i >= 0 {
				key = m.keyOf[i]
			}
			m.bucket(b)[c] = key
		}
	}
	p.done()
	return nil
}

// stashRun runs one seed of TestBatchedStashBound's workload on the kernel
// and calls after with the stash left by every batch: fill the tree r fresh
// keys at a time, then n accesses in batches of random live keys, half reads
// and half writes. It returns the largest stash before an eviction.
func stashRun(tb testing.TB, r, n int, seed int64, after func(stash int)) (inBatch int) {
	m := newPlainTree(n, n, seed, DefaultZ)
	rng := rand.New(rand.NewSource(seed))
	ops := make([]plainOp, r)
	for i := 0; i < 2*n; i += r {
		for j := range ops {
			ops[j] = plainOp{key: i + j, op: 'w'} // a fresh key while filling
			if i >= n {
				ops[j].key = rng.Intn(n)
				if (i+j)%2 == 0 {
					ops[j].op = 'r'
				}
			}
		}
		if err := m.batch(ops); err != nil {
			tb.Fatalf("r = %d, n = %d, seed %d, access %d: %v", r, n, seed, i, err)
		}
		after(len(m.pl.stash))
	}
	if len(m.keyOf) != n {
		tb.Fatalf("r = %d, n = %d, seed %d: %d keys live", r, n, seed, len(m.keyOf))
	}
	return m.inBatch
}

// TestBatchedStashBound: the stash left after each batch's eviction must stay
// within the stash limit (7·log₂ n) at every tree size the engines build, n =
// 2^10 … 2^15, with the shipped tree shape (half the next power of two ≥ n
// leaves, so 25 % of the leaf slots are live at full load): fill the tree a
// batch of fresh keys at a time, then n accesses in batches of random live
// keys, half reads and half writes. It runs at r = 64, the engines' chunk,
// which evicts along the union of its paths, and at r = 1, the textbook access
// a direct Read or Update makes. It runs on the placement kernel and its
// plaintext tree, which TestPlacementMatchesHandle ties to the handle: the
// same seed gives the handle's leaves and stash. Each (r, n) is a group whose
// seeds run as parallel subtests; the group's maxima are logged once its seeds
// finish. Under -short, and under the race detector, it stops at 2^11. The
// high-water marks are in DESIGN.md §10 and EXPERIMENTS.md ("Stash tail on
// the placement kernel").
func TestBatchedStashBound(t *testing.T) {
	top := 15
	if testing.Short() || raceEnabled {
		top = 11
	}
	for _, c := range []struct{ r, seeds int }{{64, 40}, {1, 8}} {
		for lg := 10; lg <= top; lg++ {
			n := 1 << lg
			var mu sync.Mutex
			high, inBatch := 0, 0
			t.Run(fmt.Sprintf("r=%d/n=2^%d", c.r, lg), func(t *testing.T) {
				for seed := int64(1); seed <= int64(c.seeds); seed++ {
					t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
						t.Parallel()
						h := 0
						b := stashRun(t, c.r, n, seed, func(stash int) { h = max(h, stash) })
						mu.Lock()
						high, inBatch = max(high, h), max(inBatch, b)
						mu.Unlock()
					})
				}
			})
			limit := stashLimit(n)
			if high > limit {
				t.Errorf("r = %d, n = 2^%d: stash after a batch reached %d, over the limit %d", c.r, lg, high, limit)
			}
			t.Logf("r = %d, n = 2^%d: stash after a batch at most %d over %d seeds (limit %d); before eviction at most %d", c.r, lg, high, c.seeds, limit, inBatch)
		}
	}
}

// BenchmarkStashTail records the stash's tail on the kernel: for n = 2^10 …
// 2^20 and r ∈ {64, 1}, TestBatchedStashBound's workload over ten times that
// test's seeds (400 and 80), halved for each doubling of n past 2^15 and at
// least 4, reporting the largest stash after a batch (max-stash), the largest
// before an eviction (max-in-batch), and the fraction of batches after which
// the stash held more than k blocks (P(>k)). It is deterministic, so one run
// is enough; n = 2^20 takes about 10 s a seed on one core:
//
//	go test -run '^$' -bench StashTail -benchtime 1x -timeout 30m ./internal/oram/
func BenchmarkStashTail(b *testing.B) {
	for _, c := range []struct{ r, seeds int }{{64, 400}, {1, 80}} {
		for lg := 10; lg <= 20; lg++ {
			n, seeds := 1<<lg, max(4, c.seeds>>max(0, lg-15))
			b.Run(fmt.Sprintf("r=%d/n=2^%d", c.r, lg), func(b *testing.B) {
				hist := make([]int64, stashLimit(n)+2) // batches by stash left; the last bin is over the limit
				high, inBatch := 0, 0
				for range b.N {
					clear(hist)
					for seed := int64(1); seed <= int64(seeds); seed++ {
						inBatch = max(inBatch, stashRun(b, c.r, n, seed, func(stash int) {
							hist[min(stash, len(hist)-1)]++
							high = max(high, stash)
						}))
					}
				}
				total := int64(0)
				for _, k := range hist {
					total += k
				}
				b.ReportMetric(float64(seeds), "seeds")
				b.ReportMetric(float64(high), "max-stash")
				b.ReportMetric(float64(inBatch), "max-in-batch")
				for _, k := range []int{0, 1, 2, 4, 8} {
					over := int64(0)
					for _, c := range hist[k+1:] {
						over += c
					}
					b.ReportMetric(float64(over)/float64(total), "P(>"+strconv.Itoa(k)+")")
				}
			})
		}
	}
}

// TestEvictionIsGreedy: after every access of a seeded random workload, every
// block the written path holds may sit where it was put (its assigned path
// runs through that bucket), and no block left in the stash could have been
// put anywhere on that path: every bucket it was eligible for is full. It
// runs at the paper's Z = 4 and at Z = 2, where blocks do stay behind.
func TestEvictionIsGreedy(t *testing.T) {
	for _, z := range []int{2, 4} {
		t.Run(fmt.Sprintf("Z=%d", z), func(t *testing.T) {
			m := newPlainTree(64, 64, 13, z)
			p := &m.pl
			rng := rand.New(rand.NewSource(17))
			stranded := 0
			for i := 0; i < 1500; i++ {
				op := plainOp{key: rng.Intn(64), op: 'r'}
				switch r := rng.Intn(10); {
				case i < 64 || r < 4:
					op.op = 'w'
				case r == 9:
					op.op = 'd'
				}
				if err := m.batch([]plainOp{op}); err != nil {
					t.Fatalf("access %d: %v", i, err)
				}
				leaf := pathLeaf(m.idx)
				free := make([]int, p.levels)
				for l, b := range m.idx {
					for _, key := range m.bucket(b) {
						if key < 0 {
							free[l]++
							continue
						}
						s := m.slotOf[key]
						if s < 0 {
							t.Fatalf("access %d: key %d placed at level %d but not live", i, key, l)
						}
						if d := deepestLevel(p, p.slots[s].leaf, leaf); l > d {
							t.Fatalf("access %d: key %d placed at level %d, eligible only down to %d", i, key, l, d)
						}
						if p.slots[s].stashed {
							t.Fatalf("access %d: key %d both placed and stashed", i, key)
						}
					}
				}
				for _, s := range p.stash {
					stranded++
					for l := deepestLevel(p, p.slots[s].leaf, leaf); l >= 0; l-- {
						if free[l] > 0 {
							t.Fatalf("access %d: key %d left in the stash with %d free places at level %d of its path", i, m.keyOf[s], free[l], l)
						}
					}
				}
			}
			if z == 2 && stranded == 0 {
				t.Error("no block ever stayed in the stash: the workload never tested the overflow")
			}
		})
	}
}

// pathLeaf is the leaf of the path whose bucket positions are idx, root first.
func pathLeaf(idx []int64) uint32 {
	p := idx[len(idx)-1]
	return uint32(p + 1 - 1<<(bits.Len64(uint64(p)+1)-1))
}

// deepestLevel is the deepest level at which the path assigned to a block
// and the path to leaf share a bucket, computed the slow way.
func deepestLevel(p *placer, assigned, leaf uint32) int {
	l := 0
	for l+1 < p.levels && assigned>>(p.levels-2-l) == leaf>>(p.levels-2-l) {
		l++
	}
	return l
}

// TestEvictMatchesLevelByLevelGreedy: on random stashes and batches of one
// to four paths, the one-pass eviction fills every bucket of the round — the
// top ⌈log₂ r⌉ levels whole and the union of the paths below them — with
// exactly as many blocks as the plain greedy does — walk the levels leaf to
// root and, at each, let every bucket of the round take up to Z of the
// still-stashed blocks eligible there — and so leaves exactly as many
// behind. (How many a greedy fill places in a bucket does not depend on which
// eligible blocks it picks, so the counts are comparable although both pick
// arbitrarily.)
func TestEvictMatchesLevelByLevelGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var idx []int64
	for trial := 0; trial < 300; trial++ {
		p := newPlacer(64, 3)
		leafLevel := p.levels - 1
		r := 1 + trial%4
		n := rng.Intn(3 * r * p.levels * p.z / 2) // from empty to more than the paths hold
		for i := 0; i < n; i++ {
			// Half the blocks cluster near leaf 0 so deep levels overflow.
			leaf := uint32(rng.Intn(p.numLeaves))
			if i%2 == 0 {
				leaf &= 3
			}
			p.add(leaf, true)
		}
		for range r {
			p.leaves = append(p.leaves, uint32(rng.Intn(8)))
		}
		idx = p.lay(idx)

		// want[j]: what the level-by-level greedy places in node j.
		want := make([]int, len(p.nodes))
		placed := make(map[int32]bool)
		for l := leafLevel; l >= 0; l-- {
			for j := p.levelAt[l]; j < p.levelAt[l+1]; j++ {
				for _, i := range p.stash {
					if want[j] == p.z {
						break
					}
					if !placed[i] && p.slots[i].leaf>>(leafLevel-l) == p.nodes[j].prefix {
						placed[i] = true
						want[j]++
					}
				}
			}
		}

		p.evict()
		for j, nd := range p.nodes {
			got := 0
			for _, i := range p.content[p.place(&nd)*p.z:][:p.z] {
				if i < 0 {
					continue
				}
				got++
				if s := p.slots[i]; s.stashed || s.leaf>>(leafLevel-int(nd.level)) != nd.prefix {
					t.Fatalf("trial %d: slot %d (leaf %d, stashed %v) placed at level %d bucket %d", trial, i, s.leaf, s.stashed, nd.level, nd.prefix)
				}
			}
			if got != want[j] {
				t.Fatalf("trial %d (%d stashed, %d paths): level %d bucket %d holds %d blocks, level-by-level greedy places %d",
					trial, n, r, nd.level, nd.prefix, got, want[j])
			}
		}
		if got, want := len(p.stash), n-len(placed); got != want {
			t.Fatalf("trial %d: %d blocks left in the stash, want %d", trial, got, want)
		}
		for _, i := range p.stash {
			if !p.slots[i].stashed {
				t.Fatalf("trial %d: stash lists slot %d, which is placed", trial, i)
			}
		}
	}
}

// TestDeepestLevelClosedForm pins the expression evict sorts the stash by
// against the definition, over every pair of leaves.
func TestDeepestLevelClosedForm(t *testing.T) {
	p := newPlacer(32, 1)
	for a := uint32(0); a < uint32(p.numLeaves); a++ {
		for b := uint32(0); b < uint32(p.numLeaves); b++ {
			if got, want := p.levels-1-bits.Len32(a^b), deepestLevel(&p, a, b); got != want {
				t.Fatalf("leaves %d, %d: closed form %d, definition %d", a, b, got, want)
			}
		}
	}
}

// TestPlacementIsCipherFree: the placement kernel and the tests that run it
// alone import neither the cipher nor the server, and the kernel names no
// handle, so placement can neither read a secret nor grow a server call.
func TestPlacementIsCipherFree(t *testing.T) {
	for _, name := range []string{"placement.go", "placement_test.go"} {
		file, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range file.Imports {
			if path := strings.Trim(imp.Path.Value, `"`); strings.HasSuffix(path, "internal/crypto") || strings.HasSuffix(path, "internal/store") {
				t.Errorf("%s imports %s", name, path)
			}
		}
		if name != "placement.go" {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "ORAM" {
				t.Errorf("%s names ORAM at %d: the kernel knows no handle", name, id.Pos())
			}
			return true
		})
	}
}
