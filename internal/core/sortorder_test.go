package core

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
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

func (s *coverSpy) Materialize(reqs []Request) ([]int, error) {
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
	return s.Engine.Materialize(reqs)
}

func (s *coverSpy) Release(x relation.AttrSet) error {
	delete(s.current, x)
	return s.Engine.Release(x)
}

// TestSortEngineRowBound: a relation of maxLabel rows is the largest whose
// ids fit r[ID]'s labelWidth bytes and whose labels keep unionKey injective;
// one row more is refused. attachEDB uploads nothing, so neither handle
// costs memory.
func TestSortEngineRowBound(t *testing.T) {
	for _, c := range []struct {
		n  int
		ok bool
	}{{maxLabel, true}, {maxLabel + 1, false}} {
		edb, err := attachEDB(store.NewServer(), &EDBState{Name: "t", Attrs: []string{"A"}, N: c.n, Capacity: c.n, Key: crypto.MustNewKey()})
		if err != nil {
			t.Fatal(err)
		}
		e, err := protocols[ProtocolSort].open(nil, edb, 1, nil) // the row Open calls once it has uploaded
		if got := err == nil; got != c.ok {
			t.Errorf("opening Sort over %d rows: err = %v, want accepted = %v", c.n, err, c.ok)
		}
		if (e == nil) != (err != nil) {
			t.Errorf("opening Sort over %d rows returns a %T beside err = %v, want an engine or an error", c.n, e, err)
		}
		if err == nil {
			e.Close()
		}
	}
}

// TestSortRunLayout pins the record layout at the engine. Every write to a
// B_X array during a discovery is one sealed run of min(p, RunRecords)
// records, each behind a padding flag only if the array holds padding
// (p > n): sortRecWidth-byte (key_X, r[ID]) records up to the labelling
// pass, labelRecWidth-byte (label_X, r[ID]) records from its first write on —
// 412 and 284 bytes at n = 64, 444 and 316 at n = 70. The key phase is the
// upload and one network, every run written once each stage; the label phase
// is the pass, which re-seals every run, the padding-only ones too (at n = 130
// eight, where five hold records), and the by-ID network if a union reads the
// set. lessByID orders ids across the whole of r[ID]'s 4 bytes, unsigned.
func TestSortRunLayout(t *testing.T) {
	for _, n := range []int{10, 64, 70, 130} {
		p := 1
		for p < n {
			p <<= 1
		}
		run, flag := min(p, obsort.RunRecords), 0
		if p > n {
			flag = 1
		}
		keyCt, labelCt := run*(sortRecWidth+flag)+crypto.Overhead, run*(labelRecWidth+flag)+crypto.Overhead
		if n == 64 && (keyCt != 412 || labelCt != 284) || n == 70 && (keyCt != 444 || labelCt != 316) {
			t.Fatalf("n = %d: runs of %d and %d bytes", n, keyCt, labelCt)
		}
		runs, stages := p/run, networkStages(p)
		srv := store.NewServer()
		rel := fixedWidthRel(3, n, 5, 3)
		eng, _ := openFor[*SortEngine](t, srv, ProtocolSort, rel, opts{})
		srv.Trace().Reset()
		srv.Trace().Enable()
		if _, err := Discover(eng, rel.NumAttrs(), nil); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		writes := make(map[string][]int)
		for _, e := range srv.Trace().Events() {
			if e.Op == trace.OpWriteCell && strings.HasSuffix(e.Object, ":B") {
				writes[e.Object] = append(writes[e.Object], e.Bytes)
			}
		}
		if len(writes) == 0 {
			t.Errorf("n = %d: no write to a B_X array seen", n)
		}
		for name, lens := range writes {
			key := runs + runs*stages // the upload and the key network
			if len(lens) != key+runs && len(lens) != key+runs+runs*stages {
				t.Errorf("n = %d: %s has %d run writes, want %d or, read as a cover, %d", n, name, len(lens), key+runs, key+runs+runs*stages)
				continue
			}
			for i, l := range lens {
				want := labelCt
				if i < key {
					want = keyCt
				}
				if l != want {
					t.Errorf("n = %d: %s's run write %d of %d is %d bytes, want %d", n, name, i, len(lens), l, want)
					break
				}
			}
		}
		if want := 16 + 2*(sortRecWidth+flag); eng.ClientMemoryBytes() != want {
			t.Errorf("n = %d: ClientMemoryBytes = %d, want %d", n, eng.ClientMemoryBytes(), want)
		}
	}

	ids := []uint64{0, 1 << 31, maxLabel - 1}
	recs := make([][]byte, len(ids))
	for i, id := range ids {
		recs[i] = make([]byte, labelRecWidth)
		putLabel(recs[i], uint64(len(ids)-i)) // labels in the other order
		putLabel(recs[i][labelWidth:], id)
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
// once a stage, the labelling pass reads and re-seals every run at the label
// width, and a child's read touches the runs that hold the n records.
func TestSortRestoresOrderOnlyForCovers(t *testing.T) {
	rels := map[string]*relation.Relation{
		"fd-structure": parallelTestRel(24),                // covers shared by two unions
		"all-keys":     fixedWidthRel(3, 24, 101, 1000000), // pruned at level 1: no cover at all
		"collisions":   fixedWidthRel(3, 24, 2, 2),         // nothing pruned: every set but the top is a cover
		"four-runs":    fixedWidthRel(3, 70, 2, 2),         // p = 128: four runs, three of which hold records; the pass re-seals all four
	}
	for name, rel := range rels {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				srv := store.NewServer()
				// At these n a network stage is one chain, which one worker
				// takes whole, so each array's own sequence is deterministic.
				eng, _ := openFor[*SortEngine](t, srv, ProtocolSort, rel, opts{workers: workers, reg: telemetry.New()})
				spy := &coverSpy{Engine: eng, current: make(map[relation.AttrSet]int)}
				srv.Trace().Reset()
				srv.Trace().Enable()
				if _, err := Discover(spy, rel.NumAttrs(), nil); err != nil {
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
				labelled := 1 + runs + network + 2*runs // CreateArray, runs uploaded, key sort, labelling pass
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
	oracle := oracle(rel)
	if _, err := oracle.Materialize([]Request{Single(0), Single(1)}); err != nil {
		t.Fatal(err)
	}
	want, err := CardinalityUnion(oracle, a, b)
	if err != nil {
		t.Fatal(err)
	}

	srv := store.NewServer()
	svc := newFailNth(srv, func(op *store.Op) bool { return op.Kind == store.KindWriteCells })
	eng, _ := openFor[*SortEngine](t, svc, ProtocolSort, rel, opts{})
	defer eng.Close()
	if _, err := eng.Materialize([]Request{Single(0), Single(1)}); err != nil {
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

// TestFailedLabellingPassLeavesNothing: a write that fails inside the
// labelling pass, after its first chunk was re-sealed at the label width, so
// with the array in two layouts, fails the set's build with the injected
// error; the set is not cached, the server holds what it held before the
// build, and building the set again returns the oracle's cardinality. At
// n = 130 the pass writes four chunks, the last of them padding only; every
// chunk's write but the last rides in a batch with the next chunk's read.
func TestFailedLabellingPassLeavesNothing(t *testing.T) {
	const n = 130
	rel := fixedWidthRel(3, n, 5, 3)
	want, err := CardinalitySingle(oracle(rel), 0)
	if err != nil {
		t.Fatal(err)
	}
	labelCt := obsort.RunRecords*(labelRecWidth+1) + crypto.Overhead
	srv := store.NewServer()
	labelWrite := func(op *store.Op) bool {
		return op.Kind == store.KindWriteCells && strings.HasSuffix(op.Name, ":B") && len(op.Cts[0]) == labelCt
	}
	svc := newFailNth(srv, func(op *store.Op) bool {
		return labelWrite(op) || slices.ContainsFunc(op.Ops, func(b store.BatchOp) bool {
			sub := b.Op()
			return labelWrite(&sub)
		})
	})
	eng, _ := openFor[*SortEngine](t, svc, ProtocolSort, rel, opts{})
	defer eng.Close()
	uploaded, _ := srv.Stats()

	svc.arm(2)
	if _, err := CardinalitySingle(eng, 0); !errors.Is(err, errInjected) {
		t.Fatalf("a build whose labelling pass fails = %v, want the injected failure", err)
	}
	if !svc.fired() {
		t.Fatal("the failure was not injected")
	}
	if _, ok := eng.Cardinality(relation.SingleAttr(0)); ok {
		t.Error("the set whose labelling pass failed is cached")
	}
	if now, _ := srv.Stats(); now.Objects != uploaded.Objects || now.StoredBytes != uploaded.StoredBytes {
		t.Errorf("the failed build left %d objects / %d bytes, want the upload's %d / %d",
			now.Objects, now.StoredBytes, uploaded.Objects, uploaded.StoredBytes)
	}
	got, err := CardinalitySingle(eng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("|π_0| after the retry = %d, want %d", got, want)
	}
}
