package bench

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/oblivfd/oblivfd/internal/core"
	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/dataset"
	"github.com/oblivfd/oblivfd/internal/obsort"
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
	or16, _ := res.Point(core.ProtocolORAM, 16)
	or64, _ := res.Point(core.ProtocolORAM, 64)
	st64, _ := res.Point(core.ProtocolSort, 64)
	ex64, _ := res.Point(core.ProtocolDynamicORAM, 64)
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
	st16, _ := res.Point(core.ProtocolSort, 16)
	if st16.ClientBytes != st64.ClientBytes {
		t.Error("Sort client memory not constant")
	}
	or16c, _ := res.Point(core.ProtocolORAM, 16)
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
	// The header names a sub-stage's chains, p/1 024: the threads past that
	// count have nothing to take.
	for n, chains := range map[int]int{512: 1, 1024: 1, 8192: 8, 6000: 8} {
		want := fmt.Sprintf("chains a sub-stage: %d)", chains)
		if out := (&Fig6aResult{N: n}).Render(); !strings.Contains(out, want) {
			t.Errorf("n=%d: render does not say %q:\n%s", n, want, out)
		}
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
	if len(res.Points) != 2 || res.Points[0].MultiAttr || !res.Points[1].MultiAttr {
		t.Fatalf("points %+v, want |X|=1 and |X|=2 at n=32", res.Points)
	}
	single, pair := res.Points[0], res.Points[1]
	// Rounds per operation are the closed form: an insertion is its row's
	// round, 2 for the group of singles and 3 for the pair's level; a
	// deletion is 3 whatever is kept. A re-discovery after the insertions
	// fills the case's partition where it is not kept and the FDs need it:
	// {1} is a set-up round and the 32 records' one chunk, ⌈32/64⌉ + 2
	// rounds; {0,1} is never needed, both columns being keys.
	for _, c := range []struct {
		p                Fig7Point
		insert, deletion float64
		rediscovery      int64
	}{{single, 3, 3, 1 + 1 + 2}, {pair, 6, 3, 0}} {
		if c.p.InsertRounds != c.insert || c.p.DeleteRounds != c.deletion || c.p.RediscoverRounds != c.rediscovery {
			t.Errorf("|X|=2 %v: %.2f rounds per insert, %.2f per delete, %d to re-discover; want %v, %v and %d",
				c.p.MultiAttr, c.p.InsertRounds, c.p.DeleteRounds, c.p.RediscoverRounds, c.insert, c.deletion, c.rediscovery)
		}
	}
	// The marginal times are differences of two engines' wall clocks, which
	// at this n are noise-dominated, so only the rounds are asserted here.
	// The fdbench fig7 run at realistic n shows the times.
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
	cipher := crypto.MustNewCipher(crypto.MustNewKey()) // seals the raw path's working arrays
	compressed, edb, err := core.Open(srv, rel, core.ProtocolSort, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := srv.Stats()
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
	or32, _ := res.Point(core.ProtocolORAM, 0, 32)
	or64, _ := res.Point(core.ProtocolORAM, 0, 64)
	sort64, _ := res.Point(core.ProtocolSort, 0, 64)
	if or64.Ops <= or32.Ops || or64.Bytes <= or32.Bytes {
		t.Error("ORAM communication does not grow with n")
	}
	// An ORAM op is one bucket since rounds became treetop rounds, a Sort op
	// one sealed run of obsort.RunRecords records, so Sort moves more bytes
	// per op. At n = 64 Or-ORAM's tree has 6 levels, 63 buckets, and its one
	// round of 64 accesses reads its top min(⌈log₂ 64⌉, 6) = 6 levels: the
	// whole tree, once each way. With the tree's create and its set-up — 63
	// dummy buckets written as tree cells —, the label array's create, the 64
	// column cells read and the 64 label cells written, that is
	// 2 + 2·64 + 3·63 = 319 ops, against Sort's 155, and
	// 22 364 B (3 · 63 buckets of 96 B, 64 label cells of 32 B, the column
	// cells) against Sort's 38 996 B (runs of 412 B before the labelling pass
	// and 284 B after) — EXPERIMENTS.md, "Treetop rounds" and "Communication
	// cost".
	if sort64.Bytes*or64.Ops <= or64.Bytes*sort64.Ops {
		t.Errorf("Sort bytes/op (%d/%d) not above ORAM bytes/op (%d/%d)", sort64.Bytes, sort64.Ops, or64.Bytes, or64.Ops)
	}
	if want := int64(2 + 2*64 + 3*63); or64.Ops != want {
		t.Errorf("Or-ORAM ops at n = 64: %d, want 2 + 2n + 3·63 = %d", or64.Ops, want)
	}
	if sort64.Ops >= or64.Ops {
		t.Errorf("Sort ops (%d) not below ORAM ops (%d) at n = 64", sort64.Ops, or64.Ops)
	}
	if sort64.Bytes <= or64.Bytes {
		t.Errorf("Sort bytes (%d) not above Or-ORAM bytes (%d) at n = 64", sort64.Bytes, or64.Bytes)
	}
	// Sort's |X| ≥ 2 partition costs what |X| = 1 costs (Fig. 4): the same
	// network and passes, reading the 2⌈n/R⌉ cover runs that hold the
	// records where the single reads n column cells. A cover's own by-ID
	// network, run when its first union reads it, must not be charged to the
	// union measured here.
	sortPair64, _ := res.Point(core.ProtocolSort, 1, 64)
	if got, want := sortPair64.Ops-sort64.Ops, int64(2*64/obsort.RunRecords-64); got != want {
		t.Errorf("Sort pair ops − single ops = %d, want 2⌈n/R⌉ − n = %d", got, want)
	}
	// A level of three unions over three covers: Sort builds them one by one,
	// three times the union alone; an ORAM method steps them together and
	// reads each cover once a record. Ex-ORAM makes 2·3 + 3 accesses a record
	// where three unions alone make 4·3: three cover rounds fewer, each its
	// ID ORAM's whole 63-bucket tree read and written (see above); Or-ORAM
	// reads 3 cover label cells a record where three unions alone read 6.
	if level, _ := res.Point(core.ProtocolSort, 3, 64); level.Ops != 3*sortPair64.Ops {
		t.Errorf("Sort level of three: %d ops, want three unions' %d", level.Ops, 3*sortPair64.Ops)
	}
	for m, want := range map[core.Protocol]int64{core.ProtocolORAM: 3 * 64, core.ProtocolDynamicORAM: 3 * 2 * 63} {
		union, _ := res.Point(m, 1, 64)
		level, _ := res.Point(m, 3, 64)
		if got := 3*union.Ops - level.Ops; got != want {
			t.Errorf("%s: three unions alone − a level of three = %d ops, want 3 cover reads = %d", m, got, want)
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
	again, _ := res2.Point(core.ProtocolORAM, 0, 64)
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
	_, err := newSetup(rel, core.Protocol(99), 1, 0)
	if err == nil {
		t.Error("unknown method accepted")
	}
}
