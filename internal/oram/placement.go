package oram

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"math/bits"
	mrand "math/rand"
	"slices"
)

// DefaultZ is the paper's bucket capacity (§VII-A), the only one a handle has.
const DefaultZ = 4

// stashLimit is the paper's stash bound (§VII-A): 7·⌈log₂ n⌉ blocks for a
// handle of capacity n.
func stashLimit(capacity int) int { return 7 * ceilLog2(capacity) }

// A placer is a handle's placement kernel: it draws every leaf, lays out each
// round (lay) and decides which stashed blocks go in which bucket (evict). It
// knows a block only by its slot number, leaf and stashed flag — no key,
// value, version or ciphertext. Every access drives it, direct or pipelined:
// fetch per access, lay, enter per block fetched, add and drop as the
// functions run, remap and evict before the write-back, done after.
type placer struct {
	z         int // blocks a bucket holds: DefaultZ in every handle
	levels    int // tree levels including root and leaf level
	numLeaves int
	rng       *mrand.Rand

	// slots holds each live block's leaf and stashed flag, by slot number;
	// stash lists the stashed slots in the order they entered.
	slots []spot
	stash []int32

	// The batch in flight, from fetch to done: each access's leaf (leaves),
	// the levels its round reads whole (top), per place of the round the
	// place whose copy of its bucket counts (src), and per such place the z
	// slots evict put there, −1 past the last (content).
	leaves  []uint32
	top     int
	src     []int32
	content []int32

	// Scratch reused across batches.
	nodes   []node   // the distinct buckets of the batch's round (lay)
	levelAt []int    // level l's nodes are nodes[levelAt[l]:levelAt[l+1]]
	sorted  []uint32 // lay: the batch's distinct leaves, in order
	next    []int32  // evict: the links of the lists of stash positions
	spare   []int32  // evict: the stash list's other array, the next call's new list
}

// A spot is one live block's placement: its leaf and whether it is stashed.
type spot struct {
	leaf    uint32
	stashed bool
}

// newPlacer returns the empty placer of capacity's tree, seeded by seed.
func newPlacer(capacity int, seed int64) placer {
	levels, numLeaves := shape(capacity)
	return placer{z: DefaultZ, levels: levels, numLeaves: numLeaves, rng: newRNG(seed), levelAt: make([]int, levels+1)}
}

// shape is the tree for a capacity: half the next power of two ≥ capacity
// leaves, at least two, and the levels from root to leaf. EXPERIMENTS.md
// ("Tree shape") has the stash this shape, the full one and a quarter one
// were measured at, all under the paper's stash bound.
func shape(capacity int) (levels, numLeaves int) {
	d := max(ceilLog2(capacity)-1, 1)
	return d + 1, 1 << d
}

func newRNG(seed int64) *mrand.Rand {
	if seed == 0 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			panic(fmt.Sprintf("oram: seeding rng: %v", err))
		}
		seed = int64(binary.BigEndian.Uint64(b[:]) >> 1)
	}
	return mrand.New(mrand.NewSource(seed))
}

func ceilLog2(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// draw is a uniform leaf.
func (p *placer) draw() uint32 { return uint32(p.rng.Intn(p.numLeaves)) }

// add gives a new block a slot, assigned leaf and stashed or not, and returns
// its number.
func (p *placer) add(leaf uint32, stashed bool) int32 {
	i := int32(len(p.slots))
	p.slots = append(p.slots, spot{leaf, stashed})
	if stashed {
		p.stash = append(p.stash, i)
	}
	return i
}

// drop forgets the block of slot i, taking it off the stash list, and moves
// the last slot into its place.
func (p *placer) drop(i int32) {
	last := int32(len(p.slots) - 1)
	if j := slices.Index(p.stash, i); j >= 0 {
		p.stash[j] = p.stash[len(p.stash)-1]
		p.stash = p.stash[:len(p.stash)-1]
	}
	if i != last {
		p.slots[i] = p.slots[last]
		if j := slices.Index(p.stash, last); j >= 0 {
			p.stash[j] = i
		}
	}
	p.slots = p.slots[:last]
}

// enter moves the block of slot i, found in a fetched bucket, into the stash.
func (p *placer) enter(i int32) {
	p.slots[i].stashed = true
	p.stash = append(p.stash, i)
}

// remap assigns the block of slot i a fresh uniform leaf.
func (p *placer) remap(i int32) { p.slots[i].leaf = p.draw() }

// fetch adds an access to the batch in flight: it fetches the path of slot's
// leaf, or, with slot −1, of a fresh uniform draw.
func (p *placer) fetch(slot int32) {
	if slot < 0 {
		p.leaves = append(p.leaves, p.draw())
		return
	}
	p.leaves = append(p.leaves, p.slots[slot].leaf)
}

// done closes the batch in flight.
func (p *placer) done() { p.leaves = p.leaves[:0] }

// pathBucket returns the heap index of the level-l bucket on the path to
// leaf.
func (p *placer) pathBucket(leaf uint32, l int) int {
	return 1<<l - 1 + int(leaf>>(p.levels-1-l))
}

// treetop is t, how many top levels a round of r accesses to a tree of the
// given depth reads whole: ⌈log₂ r⌉, the smallest t at which the round's
// 2^t − 1 + r·(levels − t) buckets are fewest, and never more than the tree
// has. A batch of one reads no level whole: its round is its path.
func treetop(r, levels int) int { return min(bits.Len(uint(r-1)), levels) }

// segment is the place in the round of the level-l bucket (l ≥ top) of access
// k's path.
func (p *placer) segment(k, l int) int {
	return 1<<p.top - 1 + k*(p.levels-p.top) + l - p.top
}

// place is the place in the round of node nd's bucket: its heap index in the
// top levels, its first path's segment below them.
func (p *placer) place(nd *node) int {
	if int(nd.level) < p.top {
		return 1<<nd.level - 1 + int(nd.prefix)
	}
	return p.segment(int(nd.opener), int(nd.level))
}

// access is the access whose path holds the round's place j: the batch's
// first for a bucket of the top levels.
func (p *placer) access(j int) int { return max(0, j-(1<<p.top-1)) / max(1, p.levels-p.top) }

// A node is one distinct bucket of a batch's round: one of the top levels, or
// one on the union of the paths below them.
type node struct {
	prefix uint32 // the bucket's place in its level: the top bits of every leaf below it
	level  int32
	parent int32 // the node one level up; -1 at the root
	// opener is, below the top levels, the batch's first access whose path
	// runs through the bucket: the copy in its segment is the one that counts,
	// and the bucket's contents are that place's (see place). A top bucket has
	// one place; its opener is unused.
	opener int32
	// evict: the stashed blocks whose deepest eligible bucket this is, and
	// those its children could not place.
	enter, carry list
}

// A list is a chain of positions in the stash list, linked through
// placer.next, kept last first so that evict takes from its head.
type list struct{ head, tail int32 } // -1 when empty

var empty = list{-1, -1}

// then is a followed by b.
func (a list) then(b list, next []int32) list {
	if a.head < 0 {
		return b
	}
	if b.head >= 0 {
		next[a.tail], a.tail = b.head, b.tail
	}
	return a
}

// lay lays out the round of the batch in flight, appending its bucket
// positions to idx[:0] and returning them: the top t levels' buckets in heap
// order, then each access's path from level t down to its leaf, in call order
// — a bucket that two paths share below the top once for each, so the count
// is 2^t − 1 + r·(levels − t) whichever leaves were drawn. It lays the same
// buckets out as nodes, each distinct bucket once — the top levels whole, then
// the union of the paths below them — a level at a time from the root, each
// level's in the order of their place in it, so a node's children come after
// it, a level's leaves below it are a run, and a node of the top levels is
// numbered by its heap index; and it notes each node's first access and each
// place's src. A batch of one, every direct access, is one path: a node a
// level, each the parent of the next and its own place, laid out without
// sorting or searching.
func (p *placer) lay(idx []int64) []int64 {
	p.top = treetop(len(p.leaves), p.levels)
	idx = idx[:0]
	for b := range 1<<p.top - 1 {
		idx = append(idx, int64(b))
	}
	for _, leaf := range p.leaves {
		for l := p.top; l < p.levels; l++ {
			idx = append(idx, int64(p.pathBucket(leaf, l)))
		}
	}
	p.src = slices.Grow(p.src[:0], len(idx))[:len(idx)]
	leafLevel := p.levels - 1
	p.nodes = p.nodes[:0]
	if len(p.leaves) == 1 {
		leaf := p.leaves[0]
		p.nodes = slices.Grow(p.nodes, p.levels)[:p.levels]
		for l := range p.nodes {
			p.levelAt[l], p.src[l] = l, int32(l)
			p.nodes[l] = node{prefix: leaf >> (leafLevel - l), level: int32(l), parent: int32(l - 1), enter: empty, carry: empty}
		}
		p.levelAt[p.levels] = p.levels
		return idx
	}
	p.sorted = append(p.sorted[:0], p.leaves...)
	slices.Sort(p.sorted)
	p.sorted = slices.Compact(p.sorted)
	for l := 0; l < p.levels; l++ {
		p.levelAt[l] = len(p.nodes)
		parent := int32(-1)
		if l > 0 {
			parent = int32(p.levelAt[l-1])
		}
		add := func(prefix uint32) {
			for l > 0 && p.nodes[parent].prefix != prefix>>1 {
				parent++
			}
			p.nodes = append(p.nodes, node{prefix: prefix, level: int32(l), parent: parent, opener: -1, enter: empty, carry: empty})
		}
		if l < p.top {
			for prefix := range uint32(1) << l {
				add(prefix)
			}
			continue
		}
		for _, leaf := range p.sorted {
			if prefix := leaf >> (leafLevel - l); len(p.nodes) == p.levelAt[l] || p.nodes[len(p.nodes)-1].prefix != prefix {
				add(prefix)
			}
		}
	}
	p.levelAt[p.levels] = len(p.nodes)
	for j := range 1<<p.top - 1 {
		p.src[j] = int32(j)
	}
	for k, leaf := range p.leaves {
		for l, nd := leafLevel, p.nodeAt(leafLevel, leaf); l >= p.top; l, nd = l-1, p.nodes[nd].parent {
			if p.nodes[nd].opener < 0 {
				p.nodes[nd].opener = int32(k)
			}
			p.src[p.segment(k, l)] = int32(p.place(&p.nodes[nd]))
		}
	}
	return idx
}

// nodeAt returns the node of the level-l bucket whose place is prefix, the
// first after it when the batch's paths do not pass there.
func (p *placer) nodeAt(l int, prefix uint32) int32 {
	lo, hi := p.levelAt[l], p.levelAt[l+1]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.nodes[mid].prefix < prefix {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo)
}

// evict fills every bucket of the batch's nodes from the stash and leaves
// what it put in each in content, at the bucket's place. A stashed block may
// enter the buckets its assigned path shares with the round: every one of
// the top levels, and below them those on the union of the paths; the
// deepest is on the path of the fetched leaf nearest its own in order,
// leafLevel − bits.Len32(assigned ^ leaf) deep, or the top's last level if
// that is deeper. One pass over the stash list sorts the blocks by that
// bucket; filling then walks the nodes from the leaves up, each bucket taking
// up to z of the blocks that became eligible at it or that its children could
// not place, the last of them first — the greedy placement of the textbook
// construction, deepest first, in O(stash·log r + nodes·z). What is left over
// at the root is the new stash list. At r = 1 the nodes are one path and this
// is the single-path eviction, block for block.
func (p *placer) evict() {
	leafLevel := p.levels - 1
	lo, hi := p.levelAt[leafLevel], p.levelAt[p.levels] // the leaf buckets
	p.next = slices.Grow(p.next[:0], len(p.stash))[:len(p.stash)]
	for q, i := range p.stash {
		a, nd := p.slots[i].leaf, int32(lo)
		if hi-lo > 1 {
			nd = min(p.nodeAt(leafLevel, a), int32(hi-1))
		}
		depth := bits.Len32(a ^ p.nodes[nd].prefix)
		if int(nd) > lo {
			depth = min(depth, bits.Len32(a^p.nodes[nd-1].prefix))
		}
		depth = min(depth, p.levels-max(p.top, 1)) // the top levels are whole
		at := int32(p.levelAt[leafLevel-depth])    // a path's only node at that level
		if len(p.leaves) > 1 {
			at = p.nodeAt(leafLevel-depth, a>>depth)
		}
		e := &p.nodes[at].enter
		e.head, p.next[q] = int32(q), e.head
		if e.tail < 0 {
			e.tail = e.head
		}
	}
	n := len(p.src) * p.z
	p.content = slices.Grow(p.content[:0], n)[:n]
	left := p.spare[:0]
	for j := len(p.nodes) - 1; j >= 0; j-- {
		nd := &p.nodes[j]
		pending := nd.enter.then(nd.carry, p.next) // the carried blocks, then the entering ones, last first
		bucket := p.content[p.place(nd)*p.z:][:p.z]
		for c := range bucket {
			bucket[c] = -1 // a place left unfilled is a dummy
			if pending.head >= 0 {
				i := p.stash[pending.head]
				pending.head = p.next[pending.head]
				p.slots[i].stashed = false
				bucket[c] = i
			}
		}
		if nd.parent >= 0 {
			up := &p.nodes[nd.parent]
			up.carry = pending.then(up.carry, p.next)
			continue
		}
		for q := pending.head; q >= 0; q = p.next[q] {
			left = append(left, p.stash[q])
		}
	}
	slices.Reverse(left)
	p.stash, p.spare = left, p.stash[:0]
}
