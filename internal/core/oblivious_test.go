package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/obsort"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/trace"
)

// fixedWidthRel builds a relation whose cells all have the same byte length
// (cell lengths are part of the accepted Size leakage, so obliviousness is
// defined over databases of equal size *including* cell widths).
func fixedWidthRel(m, n int, seed int64, distinct int) *relation.Relation {
	names := make([]string, m)
	for i := range names {
		names[i] = fmt.Sprintf("C%d", i)
	}
	rel := relation.New(relation.MustNewSchema(names...))
	state := uint64(seed)*0x9E3779B97F4A7C15 + 1
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	for i := 0; i < n; i++ {
		row := make(relation.Row, m)
		for j := range row {
			row[j] = fmt.Sprintf("%06d", int(next())%distinct)
		}
		if err := rel.Append(row); err != nil {
			panic(err)
		}
	}
	return rel
}

// traceOfPartitionRun records the server-visible trace of materializing, with
// row p's engine on the given relation, three single-attribute
// partitions and one pair partition a set per call — two singles are read as
// the pair's covers, the third single and the pair by nothing so far — and
// then the other two pairs in one call: a level of width two over three
// distinct covers, which the ORAM engines step together (the third single is
// read as a cover for the first time there, and the sort engine restores its
// r[ID] order there) — and, for the ORAM engines, one insertion across all
// six sets. ORAM leaf choices are seeded identically; the shapes must match
// regardless because ShapeOf strips leaves.
func traceOfPartitionRun(t *testing.T, p Protocol, rel *relation.Relation) trace.Shape {
	t.Helper()
	srv := store.NewServer()
	eng, _ := openFor[Engine](t, srv, p, rel, opts{headroom: 1})
	defer eng.Close()

	srv.Trace().Reset()
	srv.Trace().Enable()
	if _, err := CardinalitySingle(eng, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := CardinalitySingle(eng, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := CardinalitySingle(eng, 2); err != nil {
		t.Fatal(err)
	}
	a0, a1, a2 := relation.SingleAttr(0), relation.SingleAttr(1), relation.SingleAttr(2)
	if _, err := CardinalityUnion(eng, a0, a1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Materialize([]Request{Union(a0, a2), Union(a1, a2)}); err != nil {
		t.Fatal(err)
	}
	if ins, ok := eng.(inserter); ok {
		if _, err := ins.Insert(relation.Row{"111111", "222222", "333333"}); err != nil {
			t.Fatal(err)
		}
	}
	return trace.ShapeOf(srv.Trace().Events()).Canonical()
}

// TestPartitionTraceShapeDataIndependent is the Definition 2 experiment:
// same-size databases with very different value distributions must produce
// identical server-visible trace shapes for every secure engine. This is
// the structural analogue of the paper's Table II (which tests timing and
// storage because Python cannot introspect traces).
func TestPartitionTraceShapeDataIndependent(t *testing.T) {
	const m, n = 3, 32
	rels := []*relation.Relation{
		fixedWidthRel(m, n, 1, 1000000), // near-uniform, all distinct
		fixedWidthRel(m, n, 2, 2),       // two values, heavy collisions
		fixedWidthRel(m, n, 3, 1),       // constant columns
	}
	for _, p := range rows(oblivious) {
		t.Run(p.String(), func(t *testing.T) {
			ref := traceOfPartitionRun(t, p, rels[0])
			for i, rel := range rels[1:] {
				got := traceOfPartitionRun(t, p, rel)
				if !ref.Equal(got) {
					t.Errorf("trace shape differs for distribution %d:\n%s", i+1, ref.Diff(got))
				}
			}
		})
	}
}

// TestDynamicOpTraceShapeDataIndependent checks that Ex-ORAM insertions and
// deletions are trace-indistinguishable across data distributions, and that
// the paper's optional insert/delete indistinguishability (§V-C) holds: an
// insertion trace and a deletion trace have the same shape once partitions
// are materialized.
func TestDynamicOpTraceShapeDataIndependent(t *testing.T) {
	run := func(seed int64, distinct int, doDelete bool) trace.Shape {
		rel := fixedWidthRel(2, 8, seed, distinct)
		srv := store.NewServer()
		eng, _ := openFor[*ExEngine](t, srv, ProtocolDynamicORAM, rel, opts{headroom: 8})
		defer eng.Close()
		materializeAll(t, eng, 2)

		srv.Trace().Reset()
		srv.Trace().Enable()
		if doDelete {
			if err := eng.Delete(3); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := eng.Insert(relation.Row{"111111", "222222"}); err != nil {
				t.Fatal(err)
			}
		}
		return trace.ShapeOf(srv.Trace().Events()).Canonical()
	}

	insA := run(1, 1000000, false)
	insB := run(2, 2, false)
	if !insA.Equal(insB) {
		t.Errorf("insertion traces differ across distributions:\n%s", insA.Diff(insB))
	}
	delA := run(3, 1000000, true)
	delB := run(4, 2, true)
	if !delA.Equal(delB) {
		t.Errorf("deletion traces differ across distributions:\n%s", delA.Diff(delB))
	}
}

// TestDeletionBranchesIndistinguishable: deleting a record whose key is
// shared (frequency > 1) and one whose key is unique (frequency = 1) take
// different client-side branches in Algorithm 5 but must produce identical
// server-visible shapes, because ORAM Remove ≡ Write.
func TestDeletionBranchesIndistinguishable(t *testing.T) {
	build := func(rows []relation.Row) (*ExEngine, *store.Server) {
		schema := relation.MustNewSchema("A0")
		rel := relation.MustFromRows(schema, rows)
		srv := store.NewServer()
		eng, _ := openFor[*ExEngine](t, srv, ProtocolDynamicORAM, rel, opts{})
		if _, err := CardinalitySingle(eng, 0); err != nil {
			t.Fatal(err)
		}
		return eng, srv
	}

	// Record 0 shares its value with record 1 → frequency branch.
	engShared, srvShared := build([]relation.Row{{"v1"}, {"v1"}, {"v2"}})
	srvShared.Trace().Reset()
	srvShared.Trace().Enable()
	if err := engShared.Delete(0); err != nil {
		t.Fatal(err)
	}
	shared := trace.ShapeOf(srvShared.Trace().Events()).Canonical()
	engShared.Close()

	// Record 0 is unique → removal branch.
	engUnique, srvUnique := build([]relation.Row{{"u1"}, {"u2"}, {"u3"}})
	srvUnique.Trace().Reset()
	srvUnique.Trace().Enable()
	if err := engUnique.Delete(0); err != nil {
		t.Fatal(err)
	}
	unique := trace.ShapeOf(srvUnique.Trace().Events()).Canonical()
	engUnique.Close()

	if !shared.Equal(unique) {
		t.Errorf("deletion branches distinguishable:\n%s", shared.Diff(unique))
	}
}

// leakagePair is two relations with equal Size(DB) and equal FD(DB) — the
// entire allowed leakage — and the number of sets their lattice has at level
// 2, which TestFullDiscoveryTraceEquality checks.
type leakagePair struct {
	name   string
	a, b   *relation.Relation
	level2 int
}

func equalLeakagePairs() []leakagePair {
	return []leakagePair{
		// Same size, same FD structure (all columns near-distinct ⇒ same
		// lattice, pruned after level 1), different contents.
		{"keys", fixedWidthRel(3, 24, 101, 1_000_000), fixedWidthRel(3, 24, 202, 1_000_000), 0},
		// Same size, same non-trivial FD set (C0→C1, C2 a key: the lattice
		// goes on to level 2, where C0 and C1 are read as covers and C2 is
		// not), very different value histograms: C0's four groups are
		// 6/6/6/6 in one relation and 12/1/10/1 in the other.
		{"histograms", histogramRel([4]int{6, 6, 6, 6}, false), histogramRel([4]int{12, 1, 10, 1}, false), 1},
		// The same with a fourth column that neither determines nor is
		// determined by the others: level 2 is three sets over three covers,
		// which the ORAM engines step together, each cover read once a record.
		{"histograms, wide level", histogramRel([4]int{6, 6, 6, 6}, true), histogramRel([4]int{12, 1, 10, 1}, true), 3},
		// The same FD set again, with C0 holding four groups in one relation
		// and three in the other: the only pair whose level-1 cardinalities
		// differ, so only it shows what a cardinality could decide before a
		// level's set-up.
		{"cardinalities", histogramRel([4]int{6, 6, 6, 6}, false), histogramRel([4]int{8, 8, 8, 0}, false), 1},
	}
}

// TestFullDiscoveryTraceEquality is the end-to-end security statement: two
// databases with equal Size(DB) and equal FD(DB) — the entire allowed
// leakage — must produce identical server-visible trace shapes for a full
// discovery run, reveals included, however the client's calls are framed.
func TestFullDiscoveryTraceEquality(t *testing.T) {
	pairs := equalLeakagePairs()

	run := func(rel *relation.Relation, p Protocol, wrap func(store.Service) store.Service) trace.Shape {
		srv := store.NewServer()
		// Pin the serial path: this test compares full (interleaved) trace
		// shapes, which are only deterministic with one worker.
		eng, _ := openFor[Engine](t, wrap(srv), p, rel, opts{workers: 1})
		defer eng.Close()
		srv.Trace().Reset()
		srv.Trace().Enable()
		_, err := Discover(eng, rel.NumAttrs(), &Options{
			Reveal: func(decisions []Decision) {
				ops := make([]store.BatchOp, len(decisions))
				for i, d := range decisions {
					v := int64(0)
					if d.Holds {
						v = 1
					}
					ops[i] = store.RevealOp("fd:"+d.FD.String(), v)
				}
				_, _ = srv.Batch(ops)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return trace.ShapeOf(srv.Trace().Events()).Canonical()
	}

	// Sanity: the two relations of a pair must actually have identical FD
	// sets, or the divergence would be allowed leakage, not a bug. With
	// different FD sets the lattices differ, and with them which structures
	// exist (a pruned set's children are never built), which sets of a level
	// share a group and so how many times a record's label is read from each
	// cover's ID ORAM (once per group that names the cover, whatever number of
	// its targets do) and, for the sort engine, which B_X arrays get their
	// second network — the ones that are read as a cover at all. Every one of
	// those is a function of the request lists = the lattice = (m, FDs), which
	// is L(DB); TestSortRestoresOrderOnlyForCovers and TestLevelClosedForm
	// check that nothing else decides it.
	for _, p := range pairs {
		fdsA, err := Discover(oracle(p.a), p.a.NumAttrs(), nil)
		if err != nil {
			t.Fatal(err)
		}
		fdsB, err := Discover(oracle(p.b), p.b.NumAttrs(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !relation.FDSetEqual(fdsA.Minimal, fdsB.Minimal) {
			t.Fatalf("%s: the relations have different FD sets (%v vs %v); pick new ones", p.name, fdsA.Minimal, fdsB.Minimal)
		}
		level2 := 0
		for x := range fdsA.Cardinalities {
			if x.Size() == 2 {
				level2++
			}
		}
		if level2 != p.level2 {
			t.Fatalf("%s: %d sets at level 2, want %d; pick new relations", p.name, level2, p.level2)
		}
	}

	for _, proto := range rows(oblivious) {
		t.Run(proto.String(), func(t *testing.T) {
			for _, p := range pairs {
				sA := run(p.a, proto, fusing)
				sB := run(p.b, proto, fusing)
				if !sA.Equal(sB) {
					t.Errorf("%s: full-discovery traces differ:\n%s", p.name, sA.Diff(sB))
				}
				// The ORAM engines fuse a record's path reads and write-backs
				// into rounds; what a round holds must be no more a function of
				// the data than the events are. The other database through a
				// service that takes every op of a round as a call of its own
				// still shows the same trace.
				if sC := run(p.b, proto, unfusing); !sA.Equal(sC) {
					t.Errorf("%s: full-discovery trace with rounds unfused differs:\n%s", p.name, sA.Diff(sC))
				}
			}
		})
	}
}

// sealCapture keeps every ciphertext the client writes, in the order written,
// repeats included (an ORAM bucket shared by the paths of one round is
// written once for each of them), with the storage call that carried it and,
// for a bucket of an ORAM tree — a cell a round writes back; the trees store
// one slot per bucket — the tree and the bucket's heap index.
type sealCapture struct {
	store.Adapter
	svc     store.Service
	calls   int
	trees   map[string]bool
	written []writtenCT
}

type writtenCT struct {
	ct     []byte
	call   int
	tree   string
	bucket int64 // -1 for a cell of an array
}

func newSealCapture(svc store.Service) *sealCapture {
	c := &sealCapture{svc: svc, trees: make(map[string]bool)}
	c.Adapter = store.Adapt(c.handle)
	return c
}

func (c *sealCapture) handle(op *store.Op, res *store.Result) error {
	c.calls++
	switch op.Kind {
	case store.KindWriteCells:
		c.keep(op.Name, op.Idx, op.Cts)
	case store.KindBatch:
		for _, b := range op.Ops {
			switch b.Kind() {
			case store.KindCreateTree: // a set-up batch
				c.trees[b.Name] = true
			case store.KindWriteCells:
				c.keep(b.Name, b.Idx, b.Cts)
			}
		}
	}
	return store.Invoke(c.svc, op, res)
}

// keep records cts, written to the cells idx of the object name.
func (c *sealCapture) keep(name string, idx []int64, cts [][]byte) {
	for k, ct := range cts {
		w := writtenCT{ct: ct, call: c.calls, bucket: -1}
		if c.trees[name] {
			w.tree, w.bucket = name, idx[k]
		}
		c.written = append(c.written, w)
	}
}

// TestInvocationFieldsFollowTheSchedule pins the one thing a ciphertext shows
// the server beyond its length: its nonce is the cipher's fixed field (bytes
// 0–7), then the count of the cipher's seals before it (bytes 8–11). Over
// upload, full discovery at Workers = 1 and, for dynamic Ex-ORAM, an insertion
// and two deletions after it, on the pairs of TestFullDiscoveryTraceEquality:
//
//   - every ciphertext of a run carries the run's one fixed field;
//   - every seal reaches the server and none is sealed twice: the invocation
//     fields written are 0 … N−1, and the ciphertexts that share one are the
//     same bytes, a bucket written in several paths of one ORAM round;
//   - in a round, the paths' slots share an invocation field exactly when
//     they are the same bucket — the leaves, which the trace shows, decide
//     the repeats;
//   - the Sort engine's two databases show equal sequences of invocation
//     fields. The ORAM engines' sequences follow their rounds' unions of
//     paths, which depend on the uniform leaves: two runs on one database
//     differ as much as two on a pair, so for them the two runs need only
//     write equally many ciphertexts.
func TestInvocationFieldsFollowTheSchedule(t *testing.T) {
	const fixedSize = 8
	run := func(t *testing.T, rel *relation.Relation, p Protocol, dynamic bool) []uint32 {
		c := newSealCapture(store.NewServer())
		eng, _ := openFor[Engine](t, c, p, rel, opts{headroom: 1})
		defer eng.Close()
		if _, err := Discover(eng, rel.NumAttrs(), &Options{KeepPartitions: dynamic}); err != nil {
			t.Fatal(err)
		}
		if dynamic {
			row := make(relation.Row, rel.NumAttrs())
			for j := range row {
				row[j] = "999999"
			}
			id, err := eng.(inserter).Insert(row)
			if err != nil {
				t.Fatal(err)
			}
			if dyn, ok := eng.(DynamicEngine); ok {
				for _, del := range []int{id, 0} {
					if err := dyn.Delete(del); err != nil {
						t.Fatal(err)
					}
				}
			}
		}

		inv := make([]uint32, len(c.written))
		first := make(map[uint32]writtenCT)
		type place struct {
			call   int
			tree   string
			bucket int64
		}
		sealedAt := make(map[place]uint32)
		for k, w := range c.written {
			if !bytes.Equal(w.ct[:fixedSize], c.written[0].ct[:fixedSize]) {
				t.Fatalf("ciphertext %d has fixed field %x, the run's first %x", k, w.ct[:fixedSize], c.written[0].ct[:fixedSize])
			}
			v := binary.BigEndian.Uint32(w.ct[fixedSize:crypto.NonceSize])
			inv[k] = v
			if f, seen := first[v]; !seen {
				first[v] = w
			} else if w.bucket < 0 || w.call != f.call || w.tree != f.tree || w.bucket != f.bucket || !bytes.Equal(w.ct, f.ct) {
				t.Fatalf("ciphertext %d reuses invocation %d of another place or other bytes", k, v)
			}
			if w.bucket >= 0 {
				at := place{w.call, w.tree, w.bucket}
				if u, seen := sealedAt[at]; seen && u != v {
					t.Fatalf("ciphertext %d: bucket %d of %q written twice in one round, sealed as invocations %d and %d", k, w.bucket, w.tree, u, v)
				}
				sealedAt[at] = v
			}
		}
		for v := range uint32(len(first)) {
			if _, ok := first[v]; !ok {
				t.Fatalf("%d seals written, but none carries invocation %d: a seal never reached the server", len(first), v)
			}
		}
		return inv
	}
	for _, proto := range rows(oblivious) {
		for _, dynamic := range []bool{false, true} {
			name := proto.String()
			if dynamic {
				if !resumable(proto) { // only the ORAM engines take mutations
					continue
				}
				name += " dynamic"
			}
			t.Run(name, func(t *testing.T) {
				for _, p := range equalLeakagePairs() {
					a, b := run(t, p.a, proto, dynamic), run(t, p.b, proto, dynamic)
					if len(a) != len(b) {
						t.Errorf("%s: %d and %d ciphertexts written", p.name, len(a), len(b))
					} else if proto == ProtocolSort && !slices.Equal(a, b) {
						t.Errorf("%s: invocation fields differ from ciphertext %d on", p.name, firstDifference(a, b))
					}
				}
			})
		}
	}
}

// firstDifference is the first position where a and b differ, or the
// shorter length.
func firstDifference(a, b []uint32) int {
	for k := range min(len(a), len(b)) {
		if a[k] != b[k] {
			return k
		}
	}
	return min(len(a), len(b))
}

// histogramRel builds a fixed-width relation of as many rows as the group
// sizes add up to, in which C0 takes four values with those sizes, C1 = C0 mod 2 and the last column is the
// row number, so the FD set is the same whatever the sizes are. With free,
// there is a column between them that counts 0, 1, 2 through every C0 group —
// tied to nothing, so level 2 holds all three pairs of C0, C1 and it.
func histogramRel(groups [4]int, free bool) *relation.Relation {
	names := []string{"C0", "C1", "C2"}
	if free {
		names = append(names, "C3")
	}
	rel := relation.New(relation.MustNewSchema(names...))
	for v, size := range groups {
		for k := 0; k < size; k++ {
			row := relation.Row{fmt.Sprintf("%06d", v), fmt.Sprintf("%06d", v%2)}
			if free {
				row = append(row, fmt.Sprintf("%06d", k%3))
			}
			if err := rel.Append(append(row, fmt.Sprintf("%06d", rel.NumRows()))); err != nil {
				panic(err)
			}
		}
	}
	return rel
}

// TestDynamicAccessCounts pins §VII-E's cost model as this implementation
// realises it (DESIGN.md §2): with one two-attribute partition (plus its two
// singles) materialized, an insertion performs 4 ORAM accesses for the pair
// (2 subset-label reads + the 2-access Algorithm 4 step: a read-modify-write
// of O^KLF and a write of O^IKL) and 2 per single; a deletion performs 2 per
// set (Algorithm 5: take the record out of O^IKL, decrement-or-remove in
// O^KLF). Each access is its tree's round of one — a fetch and a write-back of
// one path, L buckets each way. The paper's counts, 5 / 3 / 4, are these with
// every read-modify-write spelt as a Read and a Write. The accesses share
// rounds by the closed form (insertRounds): the insertion is its row's round,
// 2 for the singles' level and 3 for the pair's — 6 — and the deletion 3.
func TestDynamicAccessCounts(t *testing.T) {
	rel := fixedWidthRel(2, 8, 5, 4)
	srv := store.NewServer()
	rc := store.WithRoundCounter(srv)
	eng, _ := openFor[*ExEngine](t, rc, ProtocolDynamicORAM, rel, opts{headroom: 8})
	defer eng.Close()
	materializeAll(t, eng, 2) // sets {0}, {1}, {0,1}

	srv.Trace().Enable()
	path := roundBuckets(1, 16)
	var before int64
	accesses := func(what string, want int, wantRounds int64) {
		t.Helper()
		if got := rc.Rounds() - before; got != wantRounds {
			t.Errorf("%s: %d rounds, want %d", what, got, wantRounds)
		}
		events := srv.Trace().Events()
		rounds := [2]int{}
		for _, c := range treeRounds(events) {
			rounds[0], rounds[1] = rounds[0]+c[0], rounds[1]+c[1]
		}
		if rounds != [2]int{want, want} {
			t.Errorf("%s: %v tree (fetches, write-backs), want %d each", what, rounds, want)
		}
		if got := srv.Trace().Count(trace.OpReadTreeCell); got != int64(want*path) {
			t.Errorf("%s: %d buckets read, want %d paths of %d", what, got, want, path)
		}
		if got := srv.Trace().Count(trace.OpWriteTreeCell); got != int64(want*path) {
			t.Errorf("%s: %d buckets written, want %d paths of %d", what, got, want, path)
		}
	}
	srv.Trace().Reset()
	before = rc.Rounds()
	id, err := eng.Insert(relation.Row{"111111", "222222"})
	if err != nil {
		t.Fatal(err)
	}
	accesses("insert", 8, insertRounds([]int{2, 1})) // 2 + 2 (singles) + 4 (pair)

	srv.Trace().Reset()
	before = rc.Rounds()
	if err := eng.Delete(id); err != nil {
		t.Fatal(err)
	}
	accesses("delete", 6, deleteRounds) // 2 accesses per set × 3 sets
}

// TestOrStepAccessCountFixed: each Algorithm 1 iteration costs exactly one
// cell read, one ORAM access (a read-modify-write of O^KL) and one label cell
// written to O^IL, independent of whether the key repeats. The server sees
// the accesses as O^KL's round per chunk, of the closed-form size, after the
// set-up has written each of the tree's buckets once.
func TestOrStepAccessCountFixed(t *testing.T) {
	rel := fixedWidthRel(1, 16, 9, 2)
	srv := store.NewServer()
	eng, _ := openFor[*OrEngine](t, srv, ProtocolORAM, rel, opts{})
	defer eng.Close()
	srv.Trace().Reset()
	if _, err := CardinalitySingle(eng, 0); err != nil {
		t.Fatal(err)
	}
	n := int64(rel.NumRows())
	if got := srv.Trace().Count(trace.OpReadCell); got != n {
		t.Errorf("cell reads = %d, want %d", got, n)
	}
	if got := eng.sets[relation.SingleAttr(0)].primary.Accesses(); got != n {
		t.Errorf("O^KL accesses = %d, want %d (1 per record)", got, n)
	}
	buckets := int64(chunkBuckets(int(n), eng.capacity))
	if got := srv.Trace().Count(trace.OpReadTreeCell); got != buckets {
		t.Errorf("buckets read = %d, want %d", got, buckets)
	}
	tree := int64(roundBuckets(1<<30, eng.capacity)) // a round of more accesses than leaves reads the whole tree
	if got := srv.Trace().Count(trace.OpWriteTreeCell); got != tree+buckets {
		t.Errorf("buckets written = %d, want the tree's %d and %d", got, tree, buckets)
	}
	if got := srv.Trace().Count(trace.OpWriteCell); got != n {
		t.Errorf("label cells written = %d, want %d", got, n)
	}
}

// roundLog records every call that reaches the service as one line: its
// kind, and for a batch every op's kind, object, cell indices and ciphertext
// lengths — the framing a server sees. Leaves are left out (they
// are uniform draws): a tree's bucket positions are logged as trace.Shape
// keeps them, their levels where they form a treetop round, raw otherwise.
// Objects are named by first appearance, so two uploads' logs compare.
type roundLog struct {
	store.Adapter
	names  map[string]int
	rounds []string
}

func newRoundLog(svc store.Service) *roundLog {
	r := &roundLog{names: make(map[string]int)}
	r.Adapter = store.Adapt(func(op *store.Op, res *store.Result) error {
		var b strings.Builder
		fmt.Fprintf(&b, "%v %s", op.Kind, r.name(op.Name))
		for i := range op.Ops {
			o := &op.Ops[i]
			idx := o.Idx
			if onTree(o.Name) {
				idx = trace.TreeRound(idx)
			}
			fmt.Fprintf(&b, " [%v %s %v", o.Kind(), r.name(o.Name), idx)
			for _, ct := range o.Cts {
				fmt.Fprintf(&b, " %d", len(ct))
			}
			b.WriteString("]")
		}
		r.rounds = append(r.rounds, b.String())
		return store.Invoke(svc, op, res)
	})
	return r
}

func (r *roundLog) name(obj string) string {
	if obj == "" {
		return ""
	}
	k, ok := r.names[obj]
	if !ok {
		k = len(r.names)
		r.names[obj] = k
	}
	return fmt.Sprintf("o%d", k)
}

// TestBatchFramingIgnoresDuplicates: a chunk's accesses to a tree are one
// batch, and a key the batch names again — or a key it does not hold — costs
// a fetch of a fresh uniform leaf, so what a round holds does not depend on
// where a relation's duplicate keys fall. Two copies of one relation, the
// same rows in two orders — the same L(DB) = (n, FDs) — one with every
// group's three records side by side inside a chunk, the other with them one
// per chunk, give the same list of rounds, op for op, for Or-ORAM and
// Ex-ORAM: filling levels 1 and 2, an insertion and, in Ex-ORAM, deletions.
func TestBatchFramingIgnoresDuplicates(t *testing.T) {
	const chunks = 3
	n := chunks * obsort.ChunkCells
	row := func(i int) relation.Row { // group i/3 in C0, a key in C1, C0's parity in C2
		return relation.Row{fmt.Sprintf("%06d", i/3), fmt.Sprintf("%06d", i), fmt.Sprintf("%06d", i/3%2)}
	}
	together := relation.New(relation.MustNewSchema("C0", "C1", "C2"))
	apart := relation.New(relation.MustNewSchema("C0", "C1", "C2"))
	for i := 0; i < n; i++ {
		c, p := i/obsort.ChunkCells, i%obsort.ChunkCells
		if err := errors.Join(together.Append(row(i)), apart.Append(row(chunks*p+c))); err != nil {
			t.Fatal(err)
		}
	}
	run := func(t *testing.T, p Protocol, rel *relation.Relation) []string {
		log := newRoundLog(store.NewServer())
		eng, _ := openFor[inserter](t, log, p, rel, opts{headroom: 1})
		defer eng.Close()
		log.rounds = log.rounds[:0]
		for _, reqs := range [][]Request{allSingles(3), allPairs(3)} {
			if _, err := eng.Materialize(reqs); err != nil {
				t.Fatal(err)
			}
		}
		id, err := eng.Insert(relation.Row{"000001", "999999", "000001"})
		if err != nil {
			t.Fatal(err)
		}
		if dyn, ok := eng.(DynamicEngine); ok {
			for _, id := range []int{5, id} {
				if err := dyn.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		return log.rounds
	}
	for _, p := range rows(resumable) {
		t.Run(short(p), func(t *testing.T) {
			a, b := run(t, p, together), run(t, p, apart)
			if len(a) == 0 {
				t.Fatal("no rounds recorded")
			}
			if len(a) != len(b) {
				t.Fatalf("%d rounds with duplicates side by side, %d with them apart", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("round %d differs:\n together %.300s\n apart    %.300s", i, a[i], b[i])
				}
			}
		})
	}
}

// TestFillFramingDataIndependent: a fill's chunks share rounds — one round
// carries a chunk's write-backs, the next chunk's fetches and the reads of
// the one after — and which ops travel together must follow from L(DB)
// alone. For pairs of databases of equal Size(DB) and FD(DB), 256 records
// (4 chunks a level) with very different value histograms, so that fresh
// labels fall in different chunks, a full discovery on Or-ORAM and Ex-ORAM
// sends the same calls, op for op: the same objects, cells and ciphertext
// lengths in the same rounds (roundLog). The trace.Shape tests cannot see
// which ops arrive together; this one can, so a fill that starts a chunk's
// reads early only when the chunk before it drew no fresh label fails here.
func TestFillFramingDataIndependent(t *testing.T) {
	pairs := []leakagePair{
		{name: "histograms", a: histogramRel([4]int{64, 64, 64, 64}, false), b: histogramRel([4]int{200, 1, 54, 1}, false)},
		{name: "histograms, wide level", a: histogramRel([4]int{64, 64, 64, 64}, true), b: histogramRel([4]int{192, 1, 62, 1}, true)},
		{name: "cardinalities", a: histogramRel([4]int{64, 64, 64, 64}, true), b: histogramRel([4]int{86, 85, 85, 0}, true)},
	}
	discover := func(t *testing.T, p Protocol, rel *relation.Relation) []string {
		log := newRoundLog(store.NewServer())
		eng, _ := openFor[Engine](t, log, p, rel, opts{})
		defer eng.Close()
		if _, err := Discover(eng, rel.NumAttrs(), nil); err != nil {
			t.Fatal(err)
		}
		return log.rounds
	}
	for _, proto := range rows(resumable) {
		t.Run(short(proto), func(t *testing.T) {
			for _, p := range pairs {
				if p.a.NumRows() < 4*obsort.ChunkCells || p.a.NumRows() != p.b.NumRows() {
					t.Fatalf("%s: %d and %d records, want equal and at least 4 chunks", p.name, p.a.NumRows(), p.b.NumRows())
				}
				a, b := discover(t, proto, p.a), discover(t, proto, p.b)
				if len(a) != len(b) {
					t.Fatalf("%s: %d calls against %d", p.name, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("%s: call %d differs:\n %.300s\n %.300s", p.name, i, a[i], b[i])
					}
				}
			}
		})
	}
}

// TestSetupFramingDataIndependent: the rounds that put structures on the
// server — a column's upload, a Sort array's create riding with its first
// block, an ORAM group's creates and dummy buckets — and the rounds that
// reveal a level's decisions are framed by L(DB) alone: for every engine, two
// databases of equal Size(DB) and FD(DB) send the same such calls, op for op
// (roundLog). And they follow the closed form. A level's decisions are one
// batch of reveals. A Sort array's create leads the batch of its first block.
// An ORAM group's set-up is, at these sizes, one batch (the byte budget that
// cuts bigger ones is pinned by oram's TestSetupFramesClosedForm): the
// creates first — Or-ORAM's w label arrays of the capacity's cells, then the
// group's trees of one slot a bucket — then each tree's 2^L − 1 buckets in one
// write, tree after tree.
func TestSetupFramingDataIndependent(t *testing.T) {
	type run struct {
		lines    []string          // roundLog's lines for the calls that create or reveal
		batches  [][]store.BatchOp // the same calls' ops
		groups   []fill            // the fills, in order
		reveals  []int             // how many decisions each Reveal call handed over
		sets     int               // sets materialized
		capacity int
	}
	setUpOrReveal := func(op *store.Op) bool {
		return slices.ContainsFunc(op.Ops, func(b store.BatchOp) bool {
			k := b.Kind()
			return k == store.KindCreateArray || k == store.KindCreateTree || k == store.KindReveal
		})
	}
	discover := func(t *testing.T, rel *relation.Relation, p Protocol) run {
		var r run
		srv := store.NewServer()
		log := newRoundLog(store.Adapt(func(op *store.Op, res *store.Result) error {
			if setUpOrReveal(op) {
				r.batches = append(r.batches, slices.Clone(op.Ops))
			}
			return store.Invoke(srv, op, res)
		}))
		eng, edb := openFor[Engine](t, log, p, rel, opts{})
		defer eng.Close()
		r.capacity = edb.Capacity()
		groups := &requestLog{Engine: eng, seen: make(map[relation.AttrSet]bool)}
		res, err := Discover(groups, rel.NumAttrs(), &Options{Reveal: func(decisions []Decision) {
			r.reveals = append(r.reveals, len(decisions))
			ops := make([]store.BatchOp, len(decisions))
			for i, d := range decisions {
				v := int64(0)
				if d.Holds {
					v = 1
				}
				ops[i] = store.RevealOp("fd:"+d.FD.String(), v)
			}
			if _, err := store.DoBatch(log, ops); err != nil {
				t.Fatal(err)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		r.groups, r.sets = groups.groups, res.SetsMaterialized
		for _, line := range log.rounds {
			for _, form := range []string{"[CreateArray ", "[CreateTree ", "[Reveal "} {
				if strings.Contains(line, form) {
					r.lines = append(r.lines, line)
					break
				}
			}
		}
		return r
	}
	kinds := func(ops []store.BatchOp) string {
		var out []string
		for _, b := range ops {
			out = append(out, b.Kind().String())
		}
		return strings.Join(out, " ")
	}
	for _, proto := range rows(oblivious) {
		t.Run(proto.String(), func(t *testing.T) {
			for _, p := range equalLeakagePairs() {
				a, b := discover(t, p.a, proto), discover(t, p.b, proto)
				if !slices.Equal(a.lines, b.lines) {
					for i := range min(len(a.lines), len(b.lines)) {
						if a.lines[i] != b.lines[i] {
							t.Fatalf("%s: set-up or reveal call %d differs:\n %.300s\n %.300s", p.name, i, a.lines[i], b.lines[i])
						}
					}
					t.Fatalf("%s: %d set-up and reveal calls, %d for the other database", p.name, len(a.lines), len(b.lines))
				}

				// The closed form. The upload's batches come first, a column
				// each: its create, then its cells.
				m := p.a.NumAttrs()
				for i, ops := range a.batches[:m] {
					if got := kinds(ops); got != "CreateArray WriteCells" {
						t.Errorf("%s: upload batch %d is %s", p.name, i, got)
					}
				}
				var setUps, reveals [][]store.BatchOp
				for _, ops := range a.batches[m:] {
					if ops[0].Kind() == store.KindReveal {
						reveals = append(reveals, ops)
					} else {
						setUps = append(setUps, ops)
					}
				}
				if len(reveals) != len(a.reveals) {
					t.Errorf("%s: %d reveal batches for %d levels' decisions", p.name, len(reveals), len(a.reveals))
				}
				for i, ops := range reveals {
					if i < len(a.reveals) && kinds(ops) != strings.TrimSpace(strings.Repeat("Reveal ", a.reveals[i])) {
						t.Errorf("%s: reveal batch %d is %s, want %d reveals", p.name, i, kinds(ops), a.reveals[i])
					}
				}
				if proto == ProtocolSort {
					if len(setUps) != a.sets {
						t.Errorf("%s: %d array creates for %d sets", p.name, len(setUps), a.sets)
					}
					for i, ops := range setUps {
						if got := kinds(ops); got != "CreateArray WriteCells" {
							t.Errorf("%s: Sort array batch %d is %s, want its create and first block", p.name, i, got)
						}
					}
					continue
				}
				if len(setUps) != len(a.groups) {
					t.Fatalf("%s: %d set-up batches for %d groups", p.name, len(setUps), len(a.groups))
				}
				for i, g := range a.groups {
					trees, want := int(g.w), ""
					if proto == ProtocolORAM {
						want = strings.Repeat("CreateArray ", trees)
					} else {
						trees *= 2
					}
					want += strings.Repeat("CreateTree ", trees) + strings.Repeat("WriteCells ", trees)
					ops := setUps[i]
					if got := kinds(ops); got != strings.TrimSpace(want) {
						t.Fatalf("%s: group %d's set-up is %s, want %s", p.name, i, got, want)
					}
					for j, b := range ops {
						op := b.Op()
						switch {
						case op.Kind == store.KindCreateArray && op.N != a.capacity:
							t.Errorf("%s: group %d: label array of %d cells, capacity %d", p.name, i, op.N, a.capacity)
						case op.Kind == store.KindCreateTree && op.Slots != 1:
							t.Errorf("%s: group %d: tree of %d slots a bucket", p.name, i, op.Slots)
						case op.Kind == store.KindWriteCells:
							create := ops[j-trees].Op()
							inOrder := op.Name == create.Name && len(op.Idx) == 1<<create.Levels-1
							for k, at := range op.Idx {
								inOrder = inOrder && at == int64(k)
							}
							if !inOrder {
								t.Errorf("%s: group %d: write %d names %s cells %v, want %s's buckets in heap order", p.name, i, j, op.Name, op.Idx, create.Name)
							}
						}
					}
				}
			}
		})
	}
}
