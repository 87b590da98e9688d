package obsort

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/telemetry"
	"github.com/oblivfd/oblivfd/internal/trace"
)

func u64rec(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

func u64less(a, b []byte) bool {
	return binary.BigEndian.Uint64(a) < binary.BigEndian.Uint64(b)
}

func newArray(t *testing.T, values []uint64) (*Array, *store.Server) {
	t.Helper()
	srv := store.NewServer()
	recs := make([][]byte, len(values))
	for i, v := range values {
		recs[i] = u64rec(v)
	}
	a, err := Create(srv, crypto.MustNewCipher(crypto.MustNewKey()), "arr", recs)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return a, srv
}

// readAll decrypts the logical records through the one read path,
// GetRanges, in a single call.
func readAll(a *Array) ([][]byte, error) {
	recs, err := GetRanges([]*Array{a}, 0, a.n)
	if err != nil {
		return nil, err
	}
	return recs[0], nil
}

// readAllT is readAll, failing t on an error.
func readAllT(t *testing.T, a *Array) [][]byte {
	t.Helper()
	recs, err := readAll(a)
	if err != nil {
		t.Fatalf("readAll: %v", err)
	}
	return recs
}

func readU64s(t *testing.T, a *Array) []uint64 {
	t.Helper()
	recs := readAllT(t, a)
	out := make([]uint64, len(recs))
	for i, r := range recs {
		out[i] = binary.BigEndian.Uint64(r)
	}
	return out
}

func TestCreateValidation(t *testing.T) {
	srv := store.NewServer()
	c := crypto.MustNewCipher(crypto.MustNewKey())
	if _, err := Create(srv, c, "e", nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Create(srv, c, "w", [][]byte{{1, 2}, {3}}); err == nil {
		t.Error("ragged records accepted")
	}
}

func TestCreatePadsToPowerOfTwo(t *testing.T) {
	a, _ := newArray(t, []uint64{5, 3, 1})
	if a.n != 3 || a.p != 4 {
		t.Errorf("len=%d padded=%d, want 3/4", a.n, a.p)
	}
	a2, _ := newArray(t, []uint64{1, 2, 3, 4})
	if a2.p != 4 {
		t.Errorf("power-of-two input padded to %d", a2.p)
	}
}

func TestSortSmall(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 31} {
		values := make([]uint64, n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range values {
			values[i] = uint64(rng.Intn(50)) // duplicates likely
		}
		a, _ := newArray(t, values)
		if err := a.Sort(u64less, 1); err != nil {
			t.Fatalf("Sort(n=%d): %v", n, err)
		}
		got := readU64s(t, a)
		want := append([]uint64(nil), values...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: got %v, want %v", n, got, want)
			}
		}
	}
}

func TestSortParallelMatchesSequential(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(1))
	values := make([]uint64, n)
	for i := range values {
		values[i] = uint64(rng.Intn(1000))
	}
	for _, workers := range []int{1, 2, 4, 8, 16} {
		a, _ := newArray(t, values)
		if err := a.Sort(u64less, workers); err != nil {
			t.Fatalf("Sort(workers=%d): %v", workers, err)
		}
		got := readU64s(t, a)
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Errorf("workers=%d: output not sorted", workers)
		}
		if len(got) != n {
			t.Errorf("workers=%d: lost records: %d", workers, len(got))
		}
	}
}

func TestSortProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		values := make([]uint64, len(raw))
		for i, v := range raw {
			values[i] = uint64(v)
		}
		srv := store.NewServer()
		recs := make([][]byte, len(values))
		for i, v := range values {
			recs[i] = u64rec(v)
		}
		a, err := Create(srv, crypto.MustNewCipher(crypto.MustNewKey()), "arr", recs)
		if err != nil {
			return false
		}
		if err := a.Sort(u64less, 1); err != nil {
			return false
		}
		got, err := readAll(a)
		if err != nil {
			return false
		}
		want := append([]uint64(nil), values...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if binary.BigEndian.Uint64(got[i]) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestComparatorCountFixed: the number of compare-exchanges depends only on
// the padded length (it is the bitonic network size p/2 · log p (log p+1)/2).
func TestComparatorCountFixed(t *testing.T) {
	count := func(values []uint64) int64 {
		a, _ := newArray(t, values)
		if err := a.Sort(u64less, 1); err != nil {
			t.Fatal(err)
		}
		return a.Comparisons()
	}
	sorted := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	reversed := []uint64{8, 7, 6, 5, 4, 3, 2, 1}
	equal := []uint64{5, 5, 5, 5, 5, 5, 5, 5}
	c1, c2, c3 := count(sorted), count(reversed), count(equal)
	if c1 != c2 || c2 != c3 {
		t.Errorf("comparator counts differ: %d, %d, %d", c1, c2, c3)
	}
	// p=8: log p = 3 stages of merges → p/2 · 3·4/2 = 4·6 = 24.
	if c1 != 24 {
		t.Errorf("comparator count = %d, want 24", c1)
	}
}

// TestTraceShapeDataIndependent is Definition 3's obliviousness: two
// same-length inputs with different contents yield identical trace shapes.
func TestTraceShapeDataIndependent(t *testing.T) {
	run := func(values []uint64) trace.Shape {
		srv := store.NewServer()
		recs := make([][]byte, len(values))
		for i, v := range values {
			recs[i] = u64rec(v)
		}
		srv.Trace().Enable()
		a, err := Create(srv, crypto.MustNewCipher(crypto.MustNewKey()), "arr", recs)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Sort(u64less, 1); err != nil {
			t.Fatal(err)
		}
		return trace.ShapeOf(srv.Trace().Events())
	}
	s1 := run([]uint64{9, 1, 8, 2, 7, 3})
	s2 := run([]uint64{0, 0, 0, 0, 0, 0})
	if !s1.Equal(s2) {
		t.Errorf("sort traces differ for same-size inputs:\n%s", s1.Diff(s2))
	}
}

// TestCiphertextsRewrittenEvenWithoutSwap: after any compare-exchange every
// run it read must hold a fresh ciphertext, or the server learns "no swap".
// Two records already in order are one run and one comparator; 128 equal
// records are four runs, and no comparator of their network ever swaps.
func TestCiphertextsRewrittenEvenWithoutSwap(t *testing.T) {
	for _, values := range [][]uint64{{1, 2}, make([]uint64, 4*RunRecords)} {
		a, srv := newArray(t, values)
		runs := a.appendRuns(nil, 0, a.p)
		before, err := srv.ReadCells("arr", runs)
		if err != nil {
			t.Fatal(err)
		}
		if len(before) != a.p/a.run {
			t.Fatalf("n=%d: %d runs, want %d", len(values), len(before), a.p/a.run)
		}
		snapshot := make([][]byte, len(before))
		for i := range before {
			snapshot[i] = append([]byte(nil), before[i]...)
		}
		if err := a.Sort(u64less, 1); err != nil {
			t.Fatal(err)
		}
		after, err := srv.ReadCells("arr", runs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range snapshot {
			if bytes.Equal(snapshot[i], after[i]) {
				t.Errorf("n=%d: run %d ciphertext unchanged after sort", len(values), i)
			}
		}
	}
}

func TestScanRewritesEveryCell(t *testing.T) {
	a, _ := newArray(t, []uint64{10, 20, 30})
	visited := make([]uint64, 0, 3)
	err := a.Scan(func(i int, rec []byte) ([]byte, error) {
		visited = append(visited, binary.BigEndian.Uint64(rec))
		return u64rec(uint64(i) * 100), nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if fmt.Sprint(visited) != "[10 20 30]" {
		t.Errorf("visited = %v", visited)
	}
	got := readU64s(t, a)
	if fmt.Sprint(got) != "[0 100 200]" {
		t.Errorf("after Scan = %v", got)
	}
	// Scan reads and writes exactly the ⌈n/run⌉ runs that hold the n
	// logical records, in a chain of ⌈n/ChunkCells⌉ chunks: one call more
	// than chunks.
	for _, n := range []int{3, 100} {
		a, srv := newArray(t, make([]uint64, n))
		srv.Trace().Reset()
		rc := store.WithRoundCounter(srv)
		a.svc = rc
		if err := a.Scan(func(i int, rec []byte) ([]byte, error) { return rec, nil }); err != nil {
			t.Fatal(err)
		}
		runs := int64((n + a.run - 1) / a.run)
		if r, w := srv.Trace().Count(trace.OpReadCell), srv.Trace().Count(trace.OpWriteCell); r != runs || w != runs {
			t.Errorf("n=%d: Scan read %d runs and wrote %d, want %d each", n, r, w, runs)
		}
		if got, want := rc.Rounds(), int64((n+ChunkCells-1)/ChunkCells+1); got != want {
			t.Errorf("n=%d: Scan took %d rounds, want %d", n, got, want)
		}
	}
}

func TestScanWidthEnforced(t *testing.T) {
	a, _ := newArray(t, []uint64{1})
	err := a.Scan(func(i int, rec []byte) ([]byte, error) { return rec[:4], nil })
	if err == nil {
		t.Error("short Scan output accepted")
	}
}

// TestStagesDisjointPairs: within any stage of the network, positions must be
// touched at most once (the parallelism safety property).
func TestStagesDisjointPairs(t *testing.T) {
	for _, p := range []int{2, 8, 32, 128} {
		err := Stages(p, func(pairs [][2]int64) error {
			seen := make(map[int64]bool)
			for _, pr := range pairs {
				for _, pos := range []int64{pr[0], pr[1]} {
					if pos < 0 || pos >= int64(p) {
						t.Fatalf("p=%d: position %d out of range", p, pos)
					}
					if seen[pos] {
						t.Fatalf("p=%d: position %d touched twice in one stage", p, pos)
					}
					seen[pos] = true
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestStagesRejectNonPowerOfTwo(t *testing.T) {
	if err := Stages(6, func([][2]int64) error { return nil }); err == nil {
		t.Error("bitonic stages accepted non-power-of-two")
	}
}

func TestSortStringsRecords(t *testing.T) {
	// Non-numeric fixed-width records sort correctly too.
	srv := store.NewServer()
	words := []string{"pear", "plum", "kiwi", "fig "}
	recs := make([][]byte, len(words))
	for i, w := range words {
		recs[i] = []byte(w)
	}
	a, err := Create(srv, crypto.MustNewCipher(crypto.MustNewKey()), "w", recs)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Sort(func(x, y []byte) bool { return bytes.Compare(x, y) < 0 }, 2); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fig ", "kiwi", "pear", "plum"}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Errorf("got[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestCreateStreamed(t *testing.T) {
	srv := store.NewServer()
	c := crypto.MustNewCipher(crypto.MustNewKey())
	a, err := CreateStreamed(srv, c, "s", 5, 8, nil, func(lo int, recs [][]byte) error {
		for k, rec := range recs {
			binary.BigEndian.PutUint64(rec, uint64(100-lo-k))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("CreateStreamed: %v", err)
	}
	if a.n != 5 || a.p != 8 || a.width != 8 {
		t.Errorf("len=%d padded=%d width=%d", a.n, a.p, a.width)
	}
	if err := a.Sort(u64less, 1); err != nil {
		t.Fatal(err)
	}
	got := readU64s(t, a)
	want := []uint64{96, 97, 98, 99, 100}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestCreateStreamedErrors(t *testing.T) {
	srv := store.NewServer()
	c := crypto.MustNewCipher(crypto.MustNewKey())
	if _, err := CreateStreamed(srv, c, "a", 0, 8, nil, nil); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := CreateStreamed(srv, c, "b", 2, 0, nil, nil); err == nil {
		t.Error("width=0 accepted")
	}
	if _, err := Create(srv, c, "c", [][]byte{u64rec(1), {1}}); err == nil {
		t.Error("wrong-width record accepted")
	}
	if _, err := CreateStreamed(srv, c, "d", 2, 8, nil, func(int, [][]byte) error {
		return fmt.Errorf("source failure")
	}); err == nil {
		t.Error("source error swallowed")
	}
	// The failed creations above removed what they had half-created, so
	// their names are free again; a live array's name is not.
	ones := [][]byte{u64rec(1), u64rec(1)}
	if _, err := Create(srv, c, "c", ones); err != nil {
		t.Errorf("a failed creation left its name taken: %v", err)
	}
	if _, err := Create(srv, c, "c", ones); err == nil {
		t.Error("name collision accepted")
	}
}

// TestRangeValidation: GetRanges refuses a range outside any of its arrays,
// with an error and before anything is allocated or fetched (an inverted
// range used to reach make([]int64, hi-lo) and panic).
func TestRangeValidation(t *testing.T) {
	a, srv := newArray(t, []uint64{10, 20, 30})
	for _, c := range []struct {
		name   string
		lo, hi int
		ok     bool
	}{
		{"whole", 0, 3, true},
		{"empty", 2, 2, true},
		{"lo < 0", -1, 2, false},
		{"hi > n", 1, 4, false}, // the padded length is 4; record 3 is padding
		{"lo > hi", 3, 1, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := srv.Trace().TotalOps()
			one, err1 := GetRanges([]*Array{a}, c.lo, c.hi)
			many, err2 := GetRanges([]*Array{a, a}, c.lo, c.hi)
			if (err1 == nil) != c.ok || (err2 == nil) != c.ok {
				t.Fatalf("GetRanges err = %v and %v; want ok = %v", err1, err2, c.ok)
			}
			if !c.ok {
				if got := srv.Trace().TotalOps(); got != before {
					t.Errorf("a refused range reached the server: %d events", got-before)
				}
				return
			}
			if len(one) != 1 || len(one[0]) != c.hi-c.lo || len(many) != 2 || len(many[0]) != c.hi-c.lo || len(many[1]) != c.hi-c.lo {
				t.Errorf("got %v and %v, want %d records from each array", one, many, c.hi-c.lo)
			}
		})
	}
	// No arrays: nothing to read, whatever the range.
	if out, err := GetRanges(nil, 3, 1); out != nil || err != nil {
		t.Errorf("GetRanges(nil) = %v, %v; want nil, nil", out, err)
	}
}

func TestDestroy(t *testing.T) {
	a, srv := newArray(t, []uint64{1, 2})
	if err := a.Destroy(); err != nil {
		t.Fatal(err)
	}
	st, _ := srv.Stats()
	if st.Objects != 0 {
		t.Errorf("objects after destroy = %d", st.Objects)
	}
}

// TestRunADMatchesStoredFormat: runs already on a server were sealed under
// the associated data "sort:<name>:r<decimal run index>", and must keep
// opening — checked where the digit count changes, and after a longer index
// has been through the same binding (crypto's TestPlaceMatchesStoredFormats
// checks the bytes).
func TestRunADMatchesStoredFormat(t *testing.T) {
	c := crypto.MustNewCipher(crypto.MustNewKey())
	a := &Array{cipher: c, name: "sort3:12:B", layout: layout{run: 1, width: 8, flag: 1}}
	ad := a.runPlace()
	pt := make([]byte, a.runBytes())
	for _, k := range []int64{1 << 31, 0, 9, 10, 1 << 31} {
		stored := []byte("sort:" + a.name + ":r" + strconv.FormatInt(k, 10))
		ct, err := c.Seal(append([]byte{0}, u64rec(uint64(k))...), stored)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.openRuns(ad, a.runBytes(), pt, [][]byte{ct}, []int64{k}); err != nil {
			t.Fatalf("run %d sealed under the stored format does not open: %v", k, err)
		}
		if binary.BigEndian.Uint64(pt[1:]) != uint64(k) {
			t.Errorf("run %d opened to %v", k, pt)
		}
		if err := a.openRuns(ad, a.runBytes(), pt, [][]byte{ct}, []int64{k + 1}); !errors.Is(err, store.ErrIntegrity) {
			t.Errorf("run %d opened as run %d: err = %v, want ErrIntegrity", k, k+1, err)
		}
	}
}

// callLog records every call that reaches the service as one line — its
// kind, object, run indices and ciphertext lengths, and for a batch those of
// every op in it, in order: the framing a server sees.
type callLog struct {
	store.Adapter
	mu    sync.Mutex
	calls []string
}

// renderOp is one op's kind, object, run indices and ciphertext lengths.
func renderOp(op *store.Op) string {
	lens := make([]int, len(op.Cts))
	for i, ct := range op.Cts {
		lens[i] = len(ct)
	}
	return fmt.Sprint(op.Kind, " ", op.Name, op.Idx, lens)
}

func newCallLog(svc store.Service) *callLog {
	l := &callLog{}
	l.Adapter = store.Adapt(func(op *store.Op, res *store.Result) error {
		line := renderOp(op)
		for i := range op.Ops {
			sub := op.Ops[i].Op()
			line += " {" + renderOp(&sub) + "}"
		}
		l.mu.Lock()
		l.calls = append(l.calls, line)
		l.mu.Unlock()
		return store.Invoke(svc, op, res)
	})
	return l
}

// TestSortFramingIndependentOfWorkers: workers take a stage's chains whole,
// so a sort makes the same storage calls — each with the same runs, a batch
// with the same ops in the same order — whatever the worker count; only the
// interleaving of the chains within a stage may differ. Chaining each
// worker's own share of the blocks would make other calls than one worker's
// (at n = 4096, four chains a stage, three workers would chain shares of 22,
// 22 and 20 blocks), and a share cut inside a block would split a run
// between two workers. n = 4096 takes most of the package's time under the
// race detector, so it runs only without it; n = 24 and 100 (padded to 128,
// two blocks a stage) catch a block split between workers all the same.
func TestSortFramingIndependentOfWorkers(t *testing.T) {
	sizes := []int{24, 100, 4096}
	if raceEnabled {
		sizes = sizes[:2]
	}
	for _, n := range sizes {
		values := make([]uint64, n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range values {
			values[i] = uint64(rng.Intn(n))
		}
		var wantCalls []string
		var wantShape trace.Shape
		for _, workers := range []int{1, 2, 3, 5} {
			a, srv := newArray(t, values)
			log := newCallLog(srv)
			a.svc = log
			srv.Trace().Reset()
			srv.Trace().Enable()
			if err := a.Sort(u64less, workers); err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			got := readU64s(t, a)
			if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
				t.Errorf("n=%d workers=%d: output not sorted", n, workers)
			}
			calls := slices.Clone(log.calls)
			slices.Sort(calls)
			shape := trace.ShapeOf(srv.Trace().Events())
			slices.SortFunc(shape, func(x, y trace.Event) int { return strings.Compare(x.String(), y.String()) })
			if workers == 1 {
				wantCalls, wantShape = calls, shape
				continue
			}
			if len(calls) != len(wantCalls) {
				t.Errorf("n=%d: %d rounds with %d workers, %d with one", n, len(calls), workers, len(wantCalls))
			} else if !slices.Equal(calls, wantCalls) {
				t.Errorf("n=%d: workers=%d makes other calls than one worker", n, workers)
			}
			if !shape.Equal(wantShape) {
				t.Errorf("n=%d: workers=%d trace differs from one worker's:\n%s", n, workers, shape.Diff(wantShape))
			}
		}
	}
}

// TestSortFramingDataIndependent: at one worker, the ordered sequence of a
// sort's storage calls — which runs each call reads and writes, and which
// write rides with which read — is a function of n alone. A chain that held
// a block's write back only when the block swapped something would read
// the same runs in the same order, and trace.Shape could not tell, but its
// calls would follow the data: an all-equal input never swaps.
func TestSortFramingDataIndependent(t *testing.T) {
	sizes := []int{24, 100, 4096}
	if raceEnabled {
		sizes = sizes[:2]
	}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(n)))
		var want []string
		for _, in := range []struct {
			name  string
			value func(i int) uint64
		}{
			{"sorted", func(i int) uint64 { return uint64(i) }},
			{"reversed", func(i int) uint64 { return uint64(n - i) }},
			{"all-equal", func(int) uint64 { return 7 }},
			{"random", func(int) uint64 { return uint64(rng.Intn(n)) }},
		} {
			values := make([]uint64, n)
			for i := range values {
				values[i] = in.value(i)
			}
			a, srv := newArray(t, values)
			log := newCallLog(srv)
			a.svc = log
			if err := a.Sort(u64less, 1); err != nil {
				t.Fatalf("n=%d %s: %v", n, in.name, err)
			}
			if want == nil {
				want = log.calls
				continue
			}
			if j := firstDifference(log.calls, want); j >= 0 {
				t.Errorf("n=%d: call %d is %s with the %s input and %s with the sorted one (%d calls and %d)",
					n, j, callAt(log.calls, j), in.name, callAt(want, j), len(log.calls), len(want))
			}
		}
	}
}

// firstDifference is the index of the first call in which two logs differ,
// the shorter one's length if one is a prefix of the other, and −1 if they
// are equal.
func firstDifference(x, y []string) int {
	for j := range max(len(x), len(y)) {
		if j >= len(x) || j >= len(y) || x[j] != y[j] {
			return j
		}
	}
	return -1
}

// callAt is calls[j], or "no call" past its end.
func callAt(calls []string, j int) string {
	if j < len(calls) {
		return calls[j]
	}
	return "no call"
}

// TestRunClosedForm pins what a sealed array costs as a function of n and
// the phase: p/run cells of run·(w + f) + crypto.Overhead bytes each, where
// run = min(p, R), f = 1 if the array holds padding (p > n) and 0 if not, and
// w is the phase's payload width — the Sort engine's 12 bytes before its
// labelling pass and 8 after. Per network of k(k+1)/2 stages (p = 2^k) every
// run is read, opened, sealed and written once a stage. A stage of B =
// ⌈(p/2)/(ChunkCells/2)⌉ blocks takes B + ⌈B/chainBlocks⌉ rounds, one more
// per chain than it has blocks (2B while a block's read and its write were
// rounds of their own): at n = 4096, 68 a stage where it was 128. A pass
// that changes the width reads every run at the old width and writes it at
// the new one, in ⌈p/ChunkCells⌉ chunks chained into one round more than
// chunks: at n = 130 that is four chunks where the ⌈n/ChunkCells⌉ holding
// the records are three. At n = 4096 a record costs 12 + 28/32 = 12.875
// bytes before the pass and 8.875 after (13.875 while every record carried
// the flag).
func TestRunClosedForm(t *testing.T) {
	const wKey, wLabel = 12, 8
	for _, n := range []int{1, 5, 24, 32, 33, 100, 130, 4096} {
		p := padded(n)
		f := 0
		if p > n {
			f = 1
		}
		k := bits.Len(uint(p)) - 1
		stages := int64(k * (k + 1) / 2)
		run := min(p, RunRecords)
		runs := int64(p / run)
		keyCt, labelCt := int64(run*(wKey+f)+crypto.Overhead), int64(run*(wLabel+f)+crypto.Overhead)
		if got := RecordBytes(n, wKey); got != wKey+f {
			t.Errorf("n=%d: RecordBytes = %d, want %d", n, got, wKey+f)
		}

		srv := store.NewServer()
		rc := store.WithRoundCounter(srv)
		c := crypto.MustNewCipher(crypto.MustNewKey())
		reg := telemetry.New()
		c.SetTelemetry(reg)
		recs := make([][]byte, n)
		for i := range recs {
			recs[i] = make([]byte, wKey)
			binary.BigEndian.PutUint64(recs[i], uint64(n-i))
			binary.BigEndian.PutUint32(recs[i][8:], uint32(i))
		}
		a, err := Create(rc, c, "arr", recs)
		if err != nil {
			t.Fatal(err)
		}
		if got := srv.Trace().Count(trace.OpWriteCell); got != runs {
			t.Errorf("n=%d: Create wrote %d ciphertexts, want %d", n, got, runs)
		}
		if got := srv.Trace().TotalBytes(); got != runs*keyCt {
			t.Errorf("n=%d: Create wrote %d bytes, want %d", n, got, runs*keyCt)
		}
		// One network at each width, with the width-changing pass between.
		network := func(phase string, runCt int64, less Less) {
			t.Helper()
			srv.Trace().Reset()
			rounds, opens := rc.Rounds(), reg.Counter("oblivfd_integrity_checks_total").Value()
			if err := a.Sort(less, 1); err != nil {
				t.Fatal(err)
			}
			opens = reg.Counter("oblivfd_integrity_checks_total").Value() - opens
			if r, wr := srv.Trace().Count(trace.OpReadCell), srv.Trace().Count(trace.OpWriteCell); r != runs*stages || wr != runs*stages || opens != runs*stages {
				t.Errorf("n=%d, %s: one network read %d runs, opened %d and sealed %d, want %d·%d = %d each", n, phase, r, opens, wr, runs, stages, runs*stages)
			}
			if got, want := srv.Trace().TotalBytes(), 2*runs*stages*runCt; got != want {
				t.Errorf("n=%d, %s: one network moved %d bytes, want %d", n, phase, got, want)
			}
			blocks := int64((p/2 + blockPairs - 1) / blockPairs)
			if got, want := rc.Rounds()-rounds, stages*(blocks+(blocks+chainBlocks-1)/chainBlocks); got != want {
				t.Errorf("n=%d, %s: one network took %d rounds, want %d", n, phase, got, want)
			}
		}
		network("key", keyCt, func(x, y []byte) bool { return bytes.Compare(x[:8], y[:8]) < 0 })

		srv.Trace().Reset()
		rounds := rc.Rounds()
		err = a.Reseal(wLabel, func(i int, rec []byte) ([]byte, error) {
			return append(binary.BigEndian.AppendUint32(nil, uint32(n-i)), rec[8:]...), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if r, wr := srv.Trace().Count(trace.OpReadCell), srv.Trace().Count(trace.OpWriteCell); r != runs || wr != runs {
			t.Errorf("n=%d: the pass read %d runs and wrote %d, want all %d each", n, r, wr, runs)
		}
		if got, want := srv.Trace().TotalBytes(), runs*(keyCt+labelCt); got != want {
			t.Errorf("n=%d: the pass moved %d bytes, want %d", n, got, want)
		}
		if got, want := rc.Rounds()-rounds, int64((p+ChunkCells-1)/ChunkCells)+1; got != want {
			t.Errorf("n=%d: the pass took %d rounds, want %d", n, got, want)
		}

		network("label", labelCt, func(x, y []byte) bool { return bytes.Compare(x[4:8], y[4:8]) < 0 })
		for i, r := range readAllT(t, a) {
			if len(r) != wLabel || binary.BigEndian.Uint32(r[4:]) != uint32(i) {
				t.Fatalf("n=%d: record %d after the pass and the by-id sort is %x", n, i, r)
			}
		}
	}
}

// TestRunIntegrity: every substitution the run layout can suffer fails
// loudly, with store.ErrIntegrity, on each path that reads runs — a sort, a
// scan and a range read.
func TestRunIntegrity(t *testing.T) {
	flip := func(rec int) func(cts [][]byte, other []byte) {
		return func(cts [][]byte, _ []byte) {
			cts[0][crypto.NonceSize+rec*(1+8)] ^= 1
		}
	}
	for _, c := range []struct {
		name   string
		n      int
		tamper func(cts [][]byte, other []byte)
	}{
		{"bit in record 0", 100, flip(0)},
		{"bit in record R-1", 100, flip(RunRecords - 1)},
		{"runs swapped", 100, func(cts [][]byte, _ []byte) { cts[0], cts[1] = cts[1], cts[0] }},
		{"run of another array", 100, func(cts [][]byte, other []byte) { cts[0] = other }},
		{"run one byte short", 100, func(cts [][]byte, _ []byte) { cts[0] = cts[0][:len(cts[0])-1] }},
		{"short last run", 5, flip(4)},
	} {
		for _, path := range []struct {
			name string
			read func(a *Array) error
		}{
			{"sort", func(a *Array) error { return a.Sort(u64less, 1) }},
			{"scan", func(a *Array) error {
				return a.Scan(func(i int, rec []byte) ([]byte, error) { return rec, nil })
			}},
			{"range", func(a *Array) error { _, err := readAll(a); return err }},
		} {
			t.Run(c.name+"/"+path.name, func(t *testing.T) {
				srv := store.NewServer()
				cipher := crypto.MustNewCipher(crypto.MustNewKey())
				recs := make([][]byte, c.n)
				for i := range recs {
					recs[i] = u64rec(uint64(i))
				}
				a, err := Create(srv, cipher, "arr", recs)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := Create(srv, cipher, "other", recs); err != nil {
					t.Fatal(err)
				}
				runs := a.appendRuns(nil, 0, a.p)
				stored, err := srv.ReadCells("arr", runs)
				if err != nil {
					t.Fatal(err)
				}
				other, err := srv.ReadCells("other", []int64{0})
				if err != nil {
					t.Fatal(err)
				}
				cts := make([][]byte, len(stored))
				for i := range stored {
					cts[i] = slices.Clone(stored[i])
				}
				c.tamper(cts, slices.Clone(other[0]))
				if err := srv.WriteCells("arr", runs, cts); err != nil {
					t.Fatal(err)
				}
				if err := path.read(a); !errors.Is(err, store.ErrIntegrity) {
					t.Errorf("err = %v, want ErrIntegrity", err)
				}
			})
		}
	}
	// A server that answers a read of two runs with one: a chain's first
	// read, a call of its own, and the reads that ride in a batch behind the
	// previous block's write — or the batched ones only. At n = 100 a stage
	// is one chain of two blocks, so its second read is batched. And a
	// server that answers a batch without its read.
	cutReads := func(res *store.Result) {
		for i, cts := range res.Batch {
			if len(cts) > 1 {
				res.Batch[i] = cts[:1]
			}
		}
	}
	for _, c := range []struct {
		name     string
		plain    bool
		cutBatch func(res *store.Result)
	}{
		{"a short answer", true, cutReads},
		{"a short batched answer", false, cutReads},
		{"a batch answer short of its read", false, func(res *store.Result) { res.Batch = res.Batch[:1] }},
	} {
		a, srv := newArray(t, make([]uint64, 100))
		a.svc = store.Adapt(func(op *store.Op, res *store.Result) error {
			err := store.Invoke(srv, op, res)
			switch {
			case err != nil:
			case op.Kind == store.KindReadCells && c.plain && len(res.Cts) > 1:
				res.Cts = res.Cts[:1]
			case op.Kind == store.KindBatch:
				c.cutBatch(res)
			}
			return err
		})
		if err := a.Sort(u64less, 1); !errors.Is(err, store.ErrIntegrity) {
			t.Errorf("%s: err = %v, want ErrIntegrity", c.name, err)
		}
	}

	// A ciphertext of the other phase, replayed at its own run index, opens
	// under the run's associated data and fails the run-length check: a run
	// sealed at the key width read after the width-changing pass, and a run
	// sealed at the label width read before it (the array rebuilt under the
	// same name and key), on each path that reads runs in that phase.
	lessKey := func(x, y []byte) bool { return bytes.Compare(x[:8], y[:8]) < 0 }
	lessID := func(x, y []byte) bool { return bytes.Compare(x[4:], y[4:]) < 0 }
	narrow := func(a *Array) error {
		return a.Reseal(8, func(i int, rec []byte) ([]byte, error) { return rec[4:], nil })
	}
	for _, n := range []int{100, 128} { // with padding and without
		srv := store.NewServer()
		cipher := crypto.MustNewCipher(crypto.MustNewKey())
		build := func() *Array {
			recs := make([][]byte, n)
			for i := range recs {
				recs[i] = binary.BigEndian.AppendUint32(u64rec(uint64(n-i)), uint32(i))
			}
			a, err := Create(srv, cipher, "arr", recs)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
		runs := func(a *Array) [][]byte {
			cts, err := srv.ReadCells("arr", a.appendRuns(nil, 0, a.p))
			if err != nil {
				t.Fatal(err)
			}
			return cts
		}
		replay := func(ct []byte) {
			if err := srv.WriteCells("arr", []int64{0}, [][]byte{ct}); err != nil {
				t.Fatal(err)
			}
		}
		a := build()
		keyPhase := runs(a)[0]
		if err := narrow(a); err != nil {
			t.Fatal(err)
		}
		labelPhase := runs(a)[0]
		for _, path := range []struct {
			name  string
			after bool
			read  func(a *Array) error
		}{
			{"after the pass/by-id network", true, func(a *Array) error { return a.Sort(lessID, 1) }},
			{"after the pass/range", true, func(a *Array) error { _, err := readAll(a); return err }},
			{"before the pass/key network", false, func(a *Array) error { return a.Sort(lessKey, 1) }},
			{"before the pass/the pass", false, narrow},
			{"before the pass/range", false, func(a *Array) error { _, err := readAll(a); return err }},
		} {
			t.Run(fmt.Sprintf("other phase/n=%d/%s", n, path.name), func(t *testing.T) {
				if err := a.Destroy(); err != nil {
					t.Fatal(err)
				}
				a = build()
				if path.after {
					if err := narrow(a); err != nil {
						t.Fatal(err)
					}
					replay(keyPhase)
				} else {
					replay(labelPhase)
				}
				if err := path.read(a); !errors.Is(err, store.ErrIntegrity) {
					t.Errorf("err = %v, want ErrIntegrity", err)
				}
			})
		}
	}
}
