package core

import (
	"errors"
	"fmt"
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
// the given engine kind on the given relation, three single-attribute
// partitions and one pair partition a set per call — two singles are read as
// the pair's covers, the third single and the pair by nothing so far — and
// then the other two pairs in one call: a level of width two over three
// distinct covers, which the ORAM engines step together (the third single is
// read as a cover for the first time there, and the sort engine restores its
// r[ID] order there) — and, for the ORAM engines, one insertion across all
// six sets. ORAM leaf choices are seeded identically; the shapes must match
// regardless because ShapeOf strips leaves.
type engineKind int

const (
	kindOr engineKind = iota
	kindEx
	kindSort
)

func traceOfPartitionRun(t *testing.T, kind engineKind, rel *relation.Relation) trace.Shape {
	t.Helper()
	srv := store.NewServer()
	cipher := crypto.MustNewCipher(crypto.MustNewKey())
	edb, err := UploadWithCapacity(srv, cipher, "t", rel, rel.NumRows()+1)
	if err != nil {
		t.Fatal(err)
	}
	var eng Engine
	switch kind {
	case kindOr:
		eng = NewOrEngine(edb)
	case kindEx:
		eng, err = NewExEngine(edb)
		if err != nil {
			t.Fatal(err)
		}
	case kindSort:
		eng = NewSortEngine(edb, 1) // sequential for deterministic ordering
	}
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
	if _, err := eng.Materialize([]Request{Union(a0, a2), Union(a1, a2)}, 1); err != nil {
		t.Fatal(err)
	}
	if ins, ok := eng.(interface {
		Insert(relation.Row) (int, error)
	}); ok {
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
	for _, kind := range []struct {
		name string
		k    engineKind
	}{{"or-oram", kindOr}, {"ex-oram", kindEx}, {"sort", kindSort}} {
		t.Run(kind.name, func(t *testing.T) {
			ref := traceOfPartitionRun(t, kind.k, rels[0])
			for i, rel := range rels[1:] {
				got := traceOfPartitionRun(t, kind.k, rel)
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
		edb, err := UploadWithCapacity(srv, crypto.MustNewCipher(crypto.MustNewKey()), "t", rel, 16)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewExEngine(edb)
		if err != nil {
			t.Fatal(err)
		}
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
		edb, err := Upload(srv, crypto.MustNewCipher(crypto.MustNewKey()), "t", rel)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewExEngine(edb)
		if err != nil {
			t.Fatal(err)
		}
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

// TestFullDiscoveryTraceEquality is the end-to-end security statement: two
// databases with equal Size(DB) and equal FD(DB) — the entire allowed
// leakage — must produce identical server-visible trace shapes for a full
// discovery run, reveals included, however the client's calls are framed.
func TestFullDiscoveryTraceEquality(t *testing.T) {
	pairs := []struct {
		name   string
		a, b   *relation.Relation
		level2 int // sets at lattice level 2
	}{
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
	}

	run := func(rel *relation.Relation, kind engineKind, wrap func(store.Service) store.Service) trace.Shape {
		srv := store.NewServer()
		edb, err := Upload(wrap(srv), crypto.MustNewCipher(crypto.MustNewKey()), "t", rel)
		if err != nil {
			t.Fatal(err)
		}
		var eng Engine
		switch kind {
		case kindOr:
			eng = NewOrEngine(edb)
		case kindEx:
			eng, err = NewExEngine(edb)
			if err != nil {
				t.Fatal(err)
			}
		case kindSort:
			eng = NewSortEngine(edb, 1)
		}
		defer eng.Close()
		srv.Trace().Reset()
		srv.Trace().Enable()
		_, err = Discover(eng, rel.NumAttrs(), &Options{
			// Pin the serial path: this test compares full (interleaved)
			// trace shapes, which are only deterministic with one worker.
			Workers: 1,
			Reveal: func(fd relation.FD, holds bool) {
				v := int64(0)
				if holds {
					v = 1
				}
				_ = srv.Reveal("fd:"+fd.String(), v)
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
		fdsA, err := Discover(NewPlainEngine(p.a), p.a.NumAttrs(), nil)
		if err != nil {
			t.Fatal(err)
		}
		fdsB, err := Discover(NewPlainEngine(p.b), p.b.NumAttrs(), nil)
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

	for _, kind := range []struct {
		name string
		k    engineKind
	}{{"or-oram", kindOr}, {"ex-oram", kindEx}, {"sort", kindSort}} {
		t.Run(kind.name, func(t *testing.T) {
			for _, p := range pairs {
				sA := run(p.a, kind.k, fusing)
				sB := run(p.b, kind.k, fusing)
				if !sA.Equal(sB) {
					t.Errorf("%s: full-discovery traces differ:\n%s", p.name, sA.Diff(sB))
				}
				// The ORAM engines fuse a record's path reads and write-backs
				// into rounds; what a round holds must be no more a function of
				// the data than the events are. The other database through a
				// service that takes every op of a round as a call of its own
				// still shows the same trace.
				if sC := run(p.b, kind.k, unfusing); !sA.Equal(sC) {
					t.Errorf("%s: full-discovery trace with rounds unfused differs:\n%s", p.name, sA.Diff(sC))
				}
			}
		})
	}
}

// histogramRel builds a 24-row fixed-width relation in which C0 takes four
// values with the given group sizes, C1 = C0 mod 2 and the last column is the
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
// O^KLF). Each access is one ReadPath + one WritePath. The paper's counts, 5 /
// 3 / 4, are these with every read-modify-write spelt as a Read and a Write.
func TestDynamicAccessCounts(t *testing.T) {
	rel := fixedWidthRel(2, 8, 5, 4)
	srv := store.NewServer()
	edb, err := UploadWithCapacity(srv, crypto.MustNewCipher(crypto.MustNewKey()), "t", rel, 16)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewExEngine(edb)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	materializeAll(t, eng, 2) // sets {0}, {1}, {0,1}

	srv.Trace().Reset()
	id, err := eng.Insert(relation.Row{"111111", "222222"})
	if err != nil {
		t.Fatal(err)
	}
	// Insert: 2 + 2 (singles) + 4 (pair) = 8 accesses.
	if got := srv.Trace().Count(trace.OpReadPath); got != 8 {
		t.Errorf("insert path reads = %d, want 8", got)
	}
	if got := srv.Trace().Count(trace.OpWritePath); got != 8 {
		t.Errorf("insert path writes = %d, want 8", got)
	}

	srv.Trace().Reset()
	if err := eng.Delete(id); err != nil {
		t.Fatal(err)
	}
	// Delete: 2 accesses per set × 3 sets = 6.
	if got := srv.Trace().Count(trace.OpReadPath); got != 6 {
		t.Errorf("delete path reads = %d, want 6", got)
	}
	if got := srv.Trace().Count(trace.OpWritePath); got != 6 {
		t.Errorf("delete path writes = %d, want 6", got)
	}
}

// TestOrStepAccessCountFixed: each Algorithm 1 iteration costs exactly one
// cell read, one ORAM access (a read-modify-write of O^KL) and one label cell
// written to O^IL, independent of whether the key repeats.
func TestOrStepAccessCountFixed(t *testing.T) {
	rel := fixedWidthRel(1, 16, 9, 2)
	srv := store.NewServer()
	edb, err := Upload(srv, crypto.MustNewCipher(crypto.MustNewKey()), "t", rel)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewOrEngine(edb)
	defer eng.Close()
	srv.Trace().Reset()
	if _, err := CardinalitySingle(eng, 0); err != nil {
		t.Fatal(err)
	}
	n := int64(rel.NumRows())
	if got := srv.Trace().Count(trace.OpReadCell); got != n {
		t.Errorf("cell reads = %d, want %d", got, n)
	}
	if got := srv.Trace().Count(trace.OpReadPath); got != n {
		t.Errorf("path reads = %d, want %d (1 per record)", got, n)
	}
	if got := srv.Trace().Count(trace.OpWritePath); got != n {
		t.Errorf("path writes = %d, want %d", got, n)
	}
	if got := srv.Trace().Count(trace.OpWriteCell); got != n {
		t.Errorf("label cells written = %d, want %d", got, n)
	}
}

// roundLog records every call that reaches the service as one line: its
// kind, and for a batch every op's kind, object, cell indices, slot count and
// ciphertext lengths — the framing a server sees. Leaves are left out (they
// are uniform draws) and objects are named by first appearance, so two
// uploads' logs compare.
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
			fmt.Fprintf(&b, " [%v %s %v %d", o.Kind(), r.name(o.Name), o.Idx, o.N)
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
	run := func(t *testing.T, e func(testing.TB, *EncryptedDB) (Engine, *oramCore), rel *relation.Relation) []string {
		log := newRoundLog(store.NewServer())
		edb, err := UploadWithCapacity(log, crypto.MustNewCipher(crypto.MustNewKey()), "t", rel, n+1)
		if err != nil {
			t.Fatal(err)
		}
		eng, _ := e(t, edb)
		defer eng.Close()
		log.rounds = log.rounds[:0]
		for _, reqs := range [][]Request{allSingles(3), allPairs(3)} {
			if _, err := eng.Materialize(reqs, 1); err != nil {
				t.Fatal(err)
			}
		}
		id, err := eng.(interface {
			Insert(relation.Row) (int, error)
		}).Insert(relation.Row{"000001", "999999", "000001"})
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
	for _, e := range oramEngines {
		t.Run(e.name, func(t *testing.T) {
			a, b := run(t, e.make, together), run(t, e.make, apart)
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
