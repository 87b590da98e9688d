package bench

import (
	"strings"
	"testing"
	"time"

	"github.com/oblivfd/oblivfd/internal/core"
	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/dataset"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
)

func TestTable1SmallSample(t *testing.T) {
	res, err := Table1(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	wantCols := map[string]int{"Adult": 14, "Letter": 16, "Flight": 20}
	for _, row := range res.Rows {
		if row.Columns != wantCols[row.Dataset] {
			t.Errorf("%s columns = %d, want %d", row.Dataset, row.Columns, wantCols[row.Dataset])
		}
		if row.Rows != 100 || row.Bytes <= 0 {
			t.Errorf("%s rows=%d bytes=%d", row.Dataset, row.Rows, row.Bytes)
		}
	}
	out := res.Render()
	for _, want := range []string{"Table I", "Adult", "Letter", "Flight"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Tiny(t *testing.T) {
	res, err := Table2(Table2Config{Rows: 32, Runs: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 3 methods × 2 cases × 3 datasets.
	if len(res.Cells) != 18 {
		t.Fatalf("cells = %d, want 18", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.PValue < 0 || c.PValue > 1 {
			t.Errorf("p-value out of range: %+v", c)
		}
		if c.StorageReal <= 0 || c.StorageRND <= 0 {
			t.Errorf("storage not recorded: %+v", c)
		}
		// Obliviousness: storage identical across datasets of equal size.
		if c.StorageReal != c.StorageRND {
			t.Errorf("%s %s storage differs between real (%d) and RND (%d)",
				c.Method, c.Dataset, c.StorageReal, c.StorageRND)
		}
	}
	if out := res.Render(); !strings.Contains(out, "Table II") {
		t.Errorf("render:\n%s", out)
	}
	if res.MinPValue() < 0 {
		t.Error("MinPValue negative")
	}
}

func TestFig4Tiny(t *testing.T) {
	res, err := Fig4([]int{16, 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 12 { // 2 sizes × 3 methods × 2 cases
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, m := range AllMethods {
		lo, ok1 := res.Runtime(m, false, 16)
		hi, ok2 := res.Runtime(m, false, 64)
		if !ok1 || !ok2 || lo <= 0 || hi <= 0 {
			t.Errorf("%s: missing points", m)
		}
	}
	if out := res.Render(); !strings.Contains(out, "Fig 4") {
		t.Errorf("render:\n%s", out)
	}
}

func TestFig5Tiny(t *testing.T) {
	res, err := Fig5([]int{16, 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Server storage: ORAM > Sort at the same n; storage grows with n.
	or16, _ := res.Point(MethodOrORAM, 16)
	or64, _ := res.Point(MethodOrORAM, 64)
	st64, _ := res.Point(MethodSort, 64)
	ex64, _ := res.Point(MethodExORAM, 64)
	if or64.ServerBytes <= or16.ServerBytes {
		t.Error("ORAM storage does not grow with n")
	}
	if st64.ServerBytes >= or64.ServerBytes {
		t.Errorf("Sort storage (%d) not below Or-ORAM (%d)", st64.ServerBytes, or64.ServerBytes)
	}
	if ex64.ServerBytes <= or64.ServerBytes {
		t.Errorf("Ex-ORAM storage (%d) not above Or-ORAM (%d)", ex64.ServerBytes, or64.ServerBytes)
	}
	// Client memory: Sort constant, ORAM grows.
	st16, _ := res.Point(MethodSort, 16)
	if st16.ClientBytes != st64.ClientBytes {
		t.Error("Sort client memory not constant")
	}
	or16c, _ := res.Point(MethodOrORAM, 16)
	if or64.ClientBytes <= or16c.ClientBytes {
		t.Error("ORAM client memory does not grow")
	}
	if out := res.Render(); !strings.Contains(out, "Fig 5") {
		t.Errorf("render:\n%s", out)
	}
}

func TestTable3Render(t *testing.T) {
	res, err := Table3([]int{16, 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	for _, want := range []string{"Table III", "O(n log² n)", "Measured"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFig6aTiny(t *testing.T) {
	res, err := Fig6a(64, []int{1, 2}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Runtime <= 0 {
			t.Errorf("threads=%d runtime %v", p.Threads, p.Runtime)
		}
	}
	if out := res.Render(); !strings.Contains(out, "Fig 6(a)") {
		t.Errorf("render:\n%s", out)
	}
}

func TestFig6bTiny(t *testing.T) {
	// Each column's fastest of three runs: one sample of a millisecond-sized
	// interval orders by scheduler luck under a loaded `go test ./...`.
	var res *Fig6bResult
	for rep := 0; rep < 3; rep++ {
		r, err := Fig6b([]int{64}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Points) != 2 {
			t.Fatalf("points = %d", len(r.Points))
		}
		if res == nil {
			res = r
			continue
		}
		for i, p := range r.Points {
			res.Points[i].Enclave = min(res.Points[i].Enclave, p.Enclave)
			res.Points[i].Outside = min(res.Points[i].Outside, p.Outside)
		}
	}
	for _, p := range res.Points {
		if p.Enclave >= p.Outside {
			t.Errorf("enclave (%v) not faster than protocol (%v) at n=%d", p.Enclave, p.Outside, p.N)
		}
	}
	if out := res.Render(); !strings.Contains(out, "Fig 6(b)") {
		t.Errorf("render:\n%s", out)
	}
}

func TestFig7Tiny(t *testing.T) {
	res, err := Fig7([]int{32}, 1)
	if err != nil {
		t.Fatal(err)
	}
	single, ok1 := res.Point(32, false)
	pair, ok2 := res.Point(32, true)
	if !ok1 || !ok2 {
		t.Fatal("missing points")
	}
	for _, p := range []Fig7Point{single, pair} {
		if p.InsertAvg <= 0 || p.DeleteAvg <= 0 {
			t.Errorf("non-positive latency: %+v", p)
		}
	}
	// The paper's insert-vs-delete cost shape (|X|=2 insertion touches
	// more ORAMs than deletion) is deterministic in access counts and
	// verified in core's trace tests; wall-clock ratios at this tiny n
	// are noise-dominated, so only positivity is asserted here. The
	// fdbench fig7 run at realistic n shows the ratio.
	if out := res.Render(); !strings.Contains(out, "Fig 7") {
		t.Errorf("render:\n%s", out)
	}
}

func TestAblationCompressionTiny(t *testing.T) {
	res, err := AblationCompression(48, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 { // |X| = 2, 3, 4
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Compressed <= 0 || p.Raw <= 0 {
			t.Errorf("non-positive timing: %+v", p)
		}
	}
	if out := res.Render(); !strings.Contains(out, "attribute compression") {
		t.Errorf("render:\n%s", out)
	}
}

// TestRawCardinalityMatchesCompressed cross-checks the ablation baseline: the
// uncompressed direct computation must agree with the compressed engine and
// the plaintext oracle for every set size, and leave nothing on the server.
func TestRawCardinalityMatchesCompressed(t *testing.T) {
	rel := dataset.Letter(30, 17) // small domains: every |π_X| below is well under n
	srv := store.NewServer()
	cipher := crypto.MustNewCipher(crypto.MustNewKey())
	edb, err := core.Upload(srv, cipher, "raw", rel)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := srv.Stats()
	compressed := core.NewSortEngine(edb, 1)
	for a := 0; a < 4; a++ {
		if _, err := core.CardinalitySingle(compressed, a); err != nil {
			t.Fatal(err)
		}
	}
	for size := 1; size <= 4; size++ {
		x := relation.FullSet(size)
		got, err := rawCardinality(srv, cipher, edb, x)
		if err != nil {
			t.Fatalf("rawCardinality(%v): %v", x, err)
		}
		if want := relation.PartitionOf(rel, x).Classes; got != want {
			t.Errorf("raw |π_%v| = %d, want %d", x, got, want)
		}
		if size > 1 {
			if _, err := core.CardinalityUnion(compressed, relation.FullSet(size-1), relation.SingleAttr(size-1)); err != nil {
				t.Fatal(err)
			}
		}
		if want, _ := compressed.Cardinality(x); got != want {
			t.Errorf("raw |π_%v| = %d, the compressed engine has %d", x, got, want)
		}
	}
	if err := compressed.Close(); err != nil {
		t.Fatal(err)
	}
	if end, _ := srv.Stats(); end.Objects != base.Objects {
		t.Errorf("%d objects outlive the raw computations", end.Objects-base.Objects)
	}
	if _, err := rawCardinality(srv, cipher, edb, 0); err == nil {
		t.Error("rawCardinality on the empty set accepted")
	}
}

func TestCommTiny(t *testing.T) {
	res, err := Comm([]int{32, 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 18 {
		t.Fatalf("points = %d", len(res.Points))
	}
	or32, _ := res.Point(MethodOrORAM, 0, 32)
	or64, _ := res.Point(MethodOrORAM, 0, 64)
	sort64, _ := res.Point(MethodSort, 0, 64)
	if or64.Ops <= or32.Ops || or64.Bytes <= or32.Bytes {
		t.Error("ORAM communication does not grow with n")
	}
	// The defining asymmetry: Sort needs more round trips, ORAM moves
	// more bytes per trip (whole paths).
	if sort64.Ops <= or64.Ops {
		t.Errorf("Sort ops (%d) not above ORAM ops (%d)", sort64.Ops, or64.Ops)
	}
	if sort64.Bytes*or64.Ops >= or64.Bytes*sort64.Ops {
		t.Errorf("Sort bytes/op (%d/%d) not below ORAM bytes/op (%d/%d)", sort64.Bytes, sort64.Ops, or64.Bytes, or64.Ops)
	}
	// In total the two cross at small n: at n = 64 Or-ORAM moves 124 140 B
	// against Sort's 131 772 B, and at n = 32 Sort moves fewer
	// (EXPERIMENTS.md, "Communication cost").
	if or64.Bytes >= sort64.Bytes {
		t.Errorf("Or-ORAM bytes (%d) not below Sort bytes (%d) at n = 64", or64.Bytes, sort64.Bytes)
	}
	// Sort's |X| ≥ 2 partition costs what |X| = 1 costs (Fig. 4): the same
	// network and passes, reading 2n cover cells where the single read n
	// column cells. A cover's own by-ID network, run when its first union
	// reads it, must not be charged to the union measured here.
	sortPair64, _ := res.Point(MethodSort, 1, 64)
	if got := sortPair64.Ops - sort64.Ops; got != 64 {
		t.Errorf("Sort pair ops − single ops = %d, want n = 64", got)
	}
	// A level of three unions over three covers: Sort builds them one by one,
	// three times the union alone; an ORAM method steps them together and
	// reads each cover once a record. Ex-ORAM makes 2·3 + 3 accesses where
	// three unions alone make 4·3, each a path read and a path write-back;
	// Or-ORAM reads 3 cover label cells where three unions alone read 6.
	if level, _ := res.Point(MethodSort, 3, 64); level.Ops != 3*sortPair64.Ops {
		t.Errorf("Sort level of three: %d ops, want three unions' %d", level.Ops, 3*sortPair64.Ops)
	}
	for m, want := range map[Method]int64{MethodOrORAM: 3 * 64, MethodExORAM: 2 * 3 * 64} {
		union, _ := res.Point(m, 1, 64)
		level, _ := res.Point(m, 3, 64)
		if got := 3*union.Ops - level.Ops; got != want {
			t.Errorf("%s: three unions alone − a level of three = %d ops, want 3 cover reads a record = %d", m, got, want)
		}
	}
	// Communication is a fixed function of the database size — re-running
	// the same workload must reproduce ops and bytes exactly. (A
	// different seed would change cell digit counts, which is Size(DB)
	// variation, so the same seed is used.)
	res2, err := Comm([]int{64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := res2.Point(MethodOrORAM, 0, 64)
	if again.Ops != or64.Ops || again.Bytes != or64.Bytes {
		t.Errorf("communication not deterministic: %d/%d vs %d/%d ops/bytes",
			again.Ops, again.Bytes, or64.Ops, or64.Bytes)
	}
	if out := res.Render(); !strings.Contains(out, "Communication cost") {
		t.Errorf("render:\n%s", out)
	}
}

func TestSecurityLevelsTiny(t *testing.T) {
	res, err := SecurityLevels([]int{32}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("points = %d, want 5 levels", len(res.Points))
	}
	ops := map[string]int64{}
	for _, p := range res.Points {
		if p.Runtime <= 0 {
			t.Errorf("%s runtime %v", p.Level, p.Runtime)
		}
		ops[p.Level] = p.Ops
	}
	// The ordering claim: oblivious protocols cost more than the leaky
	// deterministic baseline. Asserted on the storage operations the server
	// saw, which the run determines; one wall-clock sample each at n=32
	// orders by scheduler luck (sort 3.05ms against deterministic 8.06ms
	// has been seen under a loaded `go test ./...`).
	if ops["sort"] <= ops["deterministic"] {
		t.Errorf("sort (%d ops) not above deterministic (%d ops)", ops["sort"], ops["deterministic"])
	}
	if ops["or-oram"] <= ops["deterministic"] {
		t.Errorf("or-oram (%d ops) not above deterministic (%d ops)", ops["or-oram"], ops["deterministic"])
	}
	if ops["plaintext"] != 0 || ops["enclave"] != 0 {
		t.Errorf("plaintext (%d ops) and enclave (%d ops) should not touch the server", ops["plaintext"], ops["enclave"])
	}
	if out := res.Render(); !strings.Contains(out, "Price of security") {
		t.Errorf("render:\n%s", out)
	}
}

func TestFormatHelpers(t *testing.T) {
	if got := fmtBytes(512); got != "512B" {
		t.Errorf("fmtBytes(512) = %q", got)
	}
	if got := fmtBytes(2048); got != "2.00KB" {
		t.Errorf("fmtBytes(2048) = %q", got)
	}
	if got := fmtBytes(3 << 20); got != "3.00MB" {
		t.Errorf("fmtBytes(3MB) = %q", got)
	}
	if got := fmtDur(1500 * time.Microsecond); got != "1.5ms" {
		t.Errorf("fmtDur = %q", got)
	}
	if got := fmtDur(12 * time.Second); got != "12.00s" {
		t.Errorf("fmtDur = %q", got)
	}
}

func TestNewSetupUnknownMethod(t *testing.T) {
	rel := dataset.RND(2, 4, 1)
	_, err := newSetup(rel, Method("bogus"), 1, 0)
	if err == nil {
		t.Error("unknown method accepted")
	}
}
