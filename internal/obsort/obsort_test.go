package obsort

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/store"
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

func readU64s(t *testing.T, a *Array) []uint64 {
	t.Helper()
	recs, err := a.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
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
	if a.Len() != 3 || a.PaddedLen() != 4 {
		t.Errorf("len=%d padded=%d, want 3/4", a.Len(), a.PaddedLen())
	}
	a2, _ := newArray(t, []uint64{1, 2, 3, 4})
	if a2.PaddedLen() != 4 {
		t.Errorf("power-of-two input padded to %d", a2.PaddedLen())
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
		got, err := a.ReadAll()
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

// TestCiphertextsRewrittenEvenWithoutSwap: after any compare-exchange both
// cells must hold fresh ciphertexts, or the server learns "no swap".
func TestCiphertextsRewrittenEvenWithoutSwap(t *testing.T) {
	a, srv := newArray(t, []uint64{1, 2}) // already ordered: no swap needed
	before, err := srv.ReadCells("arr", []int64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := [][]byte{append([]byte(nil), before[0]...), append([]byte(nil), before[1]...)}
	if err := a.Sort(u64less, 1); err != nil {
		t.Fatal(err)
	}
	after, err := srv.ReadCells("arr", []int64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range snapshot {
		if bytes.Equal(snapshot[i], after[i]) {
			t.Errorf("cell %d ciphertext unchanged after sort", i)
		}
	}
}

func TestScanRewritesEveryCell(t *testing.T) {
	a, srv := newArray(t, []uint64{10, 20, 30})
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
	// Scan touches exactly n cells for read and n for write.
	srv.Trace().Reset()
	if err := a.Scan(func(i int, rec []byte) ([]byte, error) { return rec, nil }); err != nil {
		t.Fatal(err)
	}
	if r := srv.Trace().Count(trace.OpReadCell); r != 3 {
		t.Errorf("ReadCell count = %d", r)
	}
	if w := srv.Trace().Count(trace.OpWriteCell); w != 3 {
		t.Errorf("WriteCell count = %d", w)
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
	got, err := a.ReadAll()
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
	a, err := CreateStreamed(srv, c, "s", 5, 8, func(i int) ([]byte, error) {
		return u64rec(uint64(100 - i)), nil
	})
	if err != nil {
		t.Fatalf("CreateStreamed: %v", err)
	}
	if a.Len() != 5 || a.PaddedLen() != 8 || a.Width() != 8 {
		t.Errorf("len=%d padded=%d width=%d", a.Len(), a.PaddedLen(), a.Width())
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
	if _, err := CreateStreamed(srv, c, "a", 0, 8, nil); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := CreateStreamed(srv, c, "b", 2, 0, nil); err == nil {
		t.Error("width=0 accepted")
	}
	if _, err := CreateStreamed(srv, c, "c", 2, 8, func(i int) ([]byte, error) {
		return []byte{1}, nil // wrong width
	}); err == nil {
		t.Error("wrong-width record accepted")
	}
	if _, err := CreateStreamed(srv, c, "d", 2, 8, func(i int) ([]byte, error) {
		return nil, fmt.Errorf("source failure")
	}); err == nil {
		t.Error("source error swallowed")
	}
	// The failed creations above removed what they had half-created, so
	// their names are free again; a live array's name is not.
	ones := func(i int) ([]byte, error) { return u64rec(1), nil }
	if _, err := CreateStreamed(srv, c, "c", 2, 8, ones); err != nil {
		t.Errorf("a failed creation left its name taken: %v", err)
	}
	if _, err := CreateStreamed(srv, c, "c", 2, 8, ones); err == nil {
		t.Error("name collision accepted")
	}
}

func TestGet(t *testing.T) {
	a, _ := newArray(t, []uint64{10, 20, 30})
	rec, err := a.Get(1)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if binary.BigEndian.Uint64(rec) != 20 {
		t.Errorf("Get(1) = %v", rec)
	}
	if _, err := a.Get(-1); err == nil {
		t.Error("Get(-1) accepted")
	}
	if _, err := a.Get(3); err == nil {
		t.Error("Get beyond logical length accepted")
	}
	// Get must return a copy.
	rec[0] = 0xFF
	again, _ := a.Get(1)
	if binary.BigEndian.Uint64(again) != 20 {
		t.Error("Get returned shared storage")
	}
}

// TestRangeValidation: GetRange and GetRanges refuse the same ranges, with an
// error and before anything is allocated or fetched (an inverted range used
// to reach make([]int64, hi-lo) in GetRanges and panic).
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
		{"hi > n", 1, 4, false}, // the padded length is 4; cell 3 is padding
		{"lo > hi", 3, 1, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := srv.Trace().TotalOps()
			one, err1 := a.GetRange(c.lo, c.hi)
			many, err2 := GetRanges([]*Array{a, a}, c.lo, c.hi)
			if (err1 == nil) != c.ok || (err2 == nil) != c.ok {
				t.Fatalf("GetRange err = %v, GetRanges err = %v; want ok = %v", err1, err2, c.ok)
			}
			if !c.ok {
				if got := srv.Trace().TotalOps(); got != before {
					t.Errorf("a refused range reached the server: %d events", got-before)
				}
				return
			}
			if len(one) != c.hi-c.lo || len(many) != 2 || len(many[0]) != len(one) || len(many[1]) != len(one) {
				t.Errorf("got %d records and %v, want %d from each", len(one), many, c.hi-c.lo)
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

// TestCellADMatchesStoredFormat: cells already on a server were sealed under
// the associated data "sort:<name>:<decimal position>". The scratch's
// in-place builder must produce those bytes exactly in both of its slots, or
// stored cells stop opening — checked where the digit count changes, and
// after a longer position has been through the same buffer.
func TestCellADMatchesStoredFormat(t *testing.T) {
	c := crypto.MustNewCipher(crypto.MustNewKey())
	a := &Array{cipher: c, name: "sort3:12:B", recWidth: 8}
	sc := a.newScratch()
	for _, i := range []int64{1 << 31, 0, 9, 10, 1 << 31} {
		stored := []byte("sort:" + a.name + ":" + strconv.FormatInt(i, 10))
		ct, err := c.Seal(append([]byte{0}, u64rec(uint64(i))...), stored)
		if err != nil {
			t.Fatal(err)
		}
		for j := range sc.ad {
			ad := sc.cellAD(j, i)
			if !bytes.Equal(ad, stored) {
				t.Fatalf("cellAD(%d, %d) = %q, stored cells use %q", j, i, ad, stored)
			}
			pt, err := a.open(sc.pt[j], ct, i, ad)
			if err != nil {
				t.Fatalf("cell %d sealed under the stored format does not open: %v", i, err)
			}
			if binary.BigEndian.Uint64(pt[1:]) != uint64(i) {
				t.Errorf("cell %d opened to %v", i, pt)
			}
			if _, err := a.open(sc.pt[j], ct, i+1, sc.cellAD(j, i+1)); !errors.Is(err, store.ErrIntegrity) {
				t.Errorf("cell %d opened at position %d: err = %v, want ErrIntegrity", i, i+1, err)
			}
		}
	}
}
