package core

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/obsort"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/telemetry"
	"github.com/oblivfd/oblivfd/internal/trace"
)

// coverSpy notes, for every set an engine is asked to build, how many later
// builds name it as a Property 1 cover. builds[k] is the (k+1)-th set built,
// which is the order in which SortEngine numbers its arrays.
type coverSpy struct {
	Engine
	builds  []spiedBuild
	current map[relation.AttrSet]int // set -> index in builds of its live build
}

type spiedBuild struct {
	set      relation.AttrSet
	children int
}

func (s *coverSpy) Materialize(reqs []Request, workers int) ([]int, error) {
	for _, r := range reqs {
		if _, live := s.current[r.Set]; live {
			continue // cached: no array is made and no cover is read
		}
		s.current[r.Set] = len(s.builds)
		s.builds = append(s.builds, spiedBuild{set: r.Set})
		if r.Set.Size() > 1 {
			for _, c := range r.Cover {
				s.builds[s.current[c]].children++
			}
		}
	}
	return s.Engine.Materialize(reqs, workers)
}

func (s *coverSpy) Release(x relation.AttrSet) error {
	delete(s.current, x)
	return s.Engine.Release(x)
}

// newSort builds a Sort engine over edb, failing tb if it is refused.
func newSort(tb testing.TB, edb *EncryptedDB, workers int) *SortEngine {
	tb.Helper()
	e, err := NewSortEngine(edb, workers)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// TestSortEngineRowBound: a relation of maxLabel rows is the largest whose
// ids fit r[ID]'s labelWidth bytes and whose labels keep unionKey injective;
// one row more is refused. AttachEDB uploads nothing, so neither handle
// costs memory.
func TestSortEngineRowBound(t *testing.T) {
	for _, c := range []struct {
		n  int
		ok bool
	}{{maxLabel, true}, {maxLabel + 1, false}} {
		edb, err := AttachEDB(store.NewServer(), &EDBState{Name: "t", Attrs: []string{"A"}, N: c.n, Capacity: c.n, Key: crypto.MustNewKey()})
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewSortEngine(edb, 1)
		if got := err == nil; got != c.ok {
			t.Errorf("NewSortEngine over %d rows: err = %v, want accepted = %v", c.n, err, c.ok)
		}
		if e != nil {
			e.Close()
		}
	}
}

// TestSortRunLayout pins the record layout at the engine. Every write to a
// B_X array during a discovery is one sealed run of min(p, RunRecords)
// records of sortRecWidth + 1 bytes (the padding flag), 444 bytes at p ≥ 32;
// and lessByID orders ids across the whole of r[ID]'s 4 bytes, unsigned.
func TestSortRunLayout(t *testing.T) {
	for _, n := range []int{10, 70} {
		p := 1
		for p < n {
			p <<= 1
		}
		want := min(p, obsort.RunRecords)*(sortRecWidth+1) + crypto.Overhead
		if p >= obsort.RunRecords && want != 444 {
			t.Fatalf("a run of %d records is %d bytes, want 444", obsort.RunRecords, want)
		}
		srv := store.NewServer()
		rel := fixedWidthRel(3, n, 5, 3)
		edb, err := Upload(srv, crypto.MustNewCipher(crypto.MustNewKey()), "t", rel)
		if err != nil {
			t.Fatal(err)
		}
		eng := newSort(t, edb, 1)
		srv.Trace().Reset()
		srv.Trace().Enable()
		if _, err := Discover(eng, rel.NumAttrs(), &Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		var writes, wrong int
		for _, e := range srv.Trace().Events() {
			if e.Op != trace.OpWriteCell || !strings.HasSuffix(e.Object, ":B") {
				continue
			}
			writes++
			if e.Bytes != want {
				if wrong == 0 {
					t.Errorf("n = %d: a write to %s is %d bytes, want %d", n, e.Object, e.Bytes, want)
				}
				wrong++
			}
		}
		if writes == 0 {
			t.Errorf("n = %d: no write to a B_X array seen", n)
		}
		if wrong > 0 {
			t.Errorf("n = %d: %d of %d run writes have the wrong length", n, wrong, writes)
		}
	}

	ids := []uint64{0, 1 << 31, maxLabel - 1}
	recs := make([][]byte, len(ids))
	for i, id := range ids {
		recs[i] = make([]byte, sortRecWidth)
		putLabel(recs[i][keyWidth:], id)
	}
	for i := range recs {
		for j := range recs {
			if got := lessByID(recs[i], recs[j]); got != (i < j) {
				t.Errorf("lessByID(%d, %d) = %v", ids[i], ids[j], got)
			}
		}
	}
}

// networkComparators is the bitonic network's size on p = 2^k cells.
func networkComparators(p int) int {
	k := bits.Len(uint(p)) - 1
	return p / 2 * k * (k + 1) / 2
}

// networkStages is the bitonic network's depth on p = 2^k records.
func networkStages(p int) int {
	k := bits.Len(uint(p)) - 1
	return k * (k + 1) / 2
}

// TestSortRestoresOrderOnlyForCovers pins what each B_X array costs in closed
// form, from the server's own trace of full discoveries: an array that no
// union reads sees its creation, one network, the labelling scan and its
// deletion; an array read as a cover sees exactly one more network, which ends
// before the first child's read begins and is not repeated for the second
// child. The relations have different FD sets, so different lattices: which
// arrays exist, which are covers and how often each is read all differ between
// them, and all three are functions of (m, FDs). Counts are in sealed runs of
// min(p, obsort.RunRecords) records: a network reads and writes every run
// once a stage, and the scan and a child's read touch the runs that hold the
// n records.
func TestSortRestoresOrderOnlyForCovers(t *testing.T) {
	rels := map[string]*relation.Relation{
		"fd-structure": parallelTestRel(24),                // covers shared by two unions
		"all-keys":     fixedWidthRel(3, 24, 101, 1000000), // pruned at level 1: no cover at all
		"collisions":   fixedWidthRel(3, 24, 2, 2),         // nothing pruned: every set but the top is a cover
		"four-runs":    fixedWidthRel(3, 70, 2, 2),         // p = 128: four runs, three of which hold records
	}
	for name, rel := range rels {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				srv := store.NewServer()
				edb, err := Upload(srv, crypto.MustNewCipher(crypto.MustNewKey()), "t", rel)
				if err != nil {
					t.Fatal(err)
				}
				eng := newSort(t, edb, 1) // one network worker: each array's own sequence is deterministic
				eng.SetTelemetry(telemetry.New())
				spy := &coverSpy{Engine: eng, current: make(map[relation.AttrSet]int)}
				srv.Trace().Reset()
				srv.Trace().Enable()
				if _, err := Discover(spy, rel.NumAttrs(), &Options{Workers: workers}); err != nil {
					t.Fatal(err)
				}
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
				perArray := make(map[string][]trace.Event)
				for _, e := range srv.Trace().Events() {
					perArray[e.Object] = append(perArray[e.Object], e)
				}

				n := rel.NumRows()
				p := 1
				for p < n {
					p <<= 1
				}
				run := min(p, obsort.RunRecords)
				runs, held := p/run, (n+run-1)/run      // the array's runs, and those holding the n records
				network := 2 * runs * networkStages(p)  // a stage reads every run once and writes it once
				labelled := 1 + runs + network + 2*held // CreateArray, runs uploaded, key sort, scan
				covers, shared := 0, 0
				for k, b := range spy.builds {
					events := perArray[fmt.Sprintf("%s:%d:B", eng.instance, k+1)]
					want := labelled + 1 // + Delete
					if b.children > 0 {
						covers++
						want += network + b.children*held
					}
					if b.children > 1 {
						shared++
					}
					if len(events) != want {
						t.Errorf("B_%v (read by %d unions): %d events, want %d", b.set, b.children, len(events), want)
						continue
					}
					if b.children == 0 {
						continue
					}
					restore, reads := events[labelled:labelled+network], events[labelled+network:len(events)-1]
					var r, w int
					for _, e := range restore {
						switch e.Op {
						case trace.OpReadCell:
							r++
						case trace.OpWriteCell:
							w++
						}
					}
					if r != network/2 || w != network/2 {
						t.Errorf("B_%v: the %d events after its scan hold %d reads and %d writes, want one whole network", b.set, network, r, w)
					}
					for i, e := range reads {
						if e.Op != trace.OpReadCell || e.Index != int64(i%held) {
							t.Errorf("B_%v: event %d after its second network is %v, want child %d's read of run %d", b.set, i, e, i/held, i%held)
							break
						}
					}
				}
				if got := eng.metrics.Counter("oblivfd_sort_restores_total").Value(); got != int64(covers) {
					t.Errorf("oblivfd_sort_restores_total = %d, want %d (one per set read as a cover)", got, covers)
				}
				if name == "fd-structure" && (covers == len(spy.builds) || shared == 0) {
					t.Errorf("%d sets, %d covers, %d read by two unions: the never-cover or the shared-cover case went untested",
						len(spy.builds), covers, shared)
				}
			})
		}
	}
}

// TestFailedRestoreIsRerunWhole: a WriteCells that fails in the middle of a
// cover's by-ID network surfaces as the union's error; the child leaves
// nothing on the server; the cover stays cached, holding some permutation of
// its labelled records and not marked as ordered; and asking for the child
// again runs the whole network and returns the oracle's cardinality.
func TestFailedRestoreIsRerunWhole(t *testing.T) {
	rel := fixedWidthRel(3, 24, 2, 2)
	a, b := relation.SingleAttr(0), relation.SingleAttr(1)
	oracle := NewPlainEngine(rel)
	if _, err := oracle.Materialize([]Request{Single(0), Single(1)}, 1); err != nil {
		t.Fatal(err)
	}
	want, err := CardinalityUnion(oracle, a, b)
	if err != nil {
		t.Fatal(err)
	}

	srv := store.NewServer()
	svc := newFailNth(srv, func(op *store.Op) bool { return op.Kind == store.KindWriteCells })
	edb, err := Upload(svc, crypto.MustNewCipher(crypto.MustNewKey()), "t", rel)
	if err != nil {
		t.Fatal(err)
	}
	eng := newSort(t, edb, 1)
	defer eng.Close()
	if _, err := eng.Materialize([]Request{Single(0), Single(1)}, 1); err != nil {
		t.Fatal(err)
	}
	withCovers, _ := srv.Stats()

	// B_a's restore is the first thing the union does: 15 stages on 32
	// records, one run, each one block write, so the fourth write is well
	// inside it.
	svc.arm(4)
	if _, err := CardinalityUnion(eng, a, b); !errors.Is(err, errInjected) {
		t.Fatalf("union over a failing restore = %v, want the injected failure", err)
	}
	if now, _ := srv.Stats(); now.Objects != withCovers.Objects || now.StoredBytes != withCovers.StoredBytes {
		t.Errorf("the abandoned union left %d objects / %d bytes, want the covers' %d / %d",
			now.Objects, now.StoredBytes, withCovers.Objects, withCovers.StoredBytes)
	}
	if _, ok := eng.Cardinality(a.Union(b)); ok {
		t.Error("the abandoned union is cached")
	}
	for _, c := range []relation.AttrSet{a, b} {
		if _, ok := eng.Cardinality(c); !ok {
			t.Errorf("cover %v is no longer cached", c)
		}
		if eng.sets[c].byID {
			t.Errorf("cover %v is marked as ordered by r[ID] after a restore that failed", c)
		}
	}

	before := eng.sets[a].arr.Comparisons()
	got, err := CardinalityUnion(eng, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("|π_{a,b}| after the retry = %d, want %d", got, want)
	}
	if ran := eng.sets[a].arr.Comparisons() - before; ran != int64(networkComparators(32)) {
		t.Errorf("the retry ran %d comparators on B_a, want the whole network's %d", ran, networkComparators(32))
	}
	if !eng.sets[a].byID || !eng.sets[b].byID {
		t.Error("covers not marked as ordered after a restore that succeeded")
	}
}
