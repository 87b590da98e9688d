package oblivfd

// One testing.B benchmark per table and figure of the paper's evaluation
// (§VII). Each wraps the corresponding experiment from internal/bench at a
// size small enough for routine `go test -bench=.` runs and reports the
// headline quantity via b.ReportMetric; `cmd/fdbench` runs the same
// experiments at paper-like scales and prints the full tables.

import (
	"fmt"
	"testing"
	"time"

	"github.com/oblivfd/oblivfd/internal/bench"
)

// BenchmarkTable1Datasets regenerates the Table I dataset summary (sampled
// rows; full sizes via `fdbench -exp table1`).
func BenchmarkTable1Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Table1(500, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 3 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkTable2Obliviousness runs the KS-test obliviousness experiment at
// reduced scale and reports the minimum p-value (paper: all ≥ 0.35).
func BenchmarkTable2Obliviousness(b *testing.B) {
	var minP float64 = 1
	for i := 0; i < b.N; i++ {
		res, err := bench.Table2(bench.Table2Config{Rows: 64, Runs: 3, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if p := res.MinPValue(); p < minP {
			minP = p
		}
	}
	b.ReportMetric(minP, "min-p-value")
}

// BenchmarkTable3Complexity runs the measured-scaling sweep behind the
// complexity summary.
func BenchmarkTable3Complexity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table3([]int{32, 128}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4RowScalability measures one partition computation per
// (method, case, n) — the Fig. 4 series.
func BenchmarkFig4RowScalability(b *testing.B) {
	for _, method := range bench.AllMethods {
		for _, multi := range []bool{false, true} {
			caseName := "single"
			if multi {
				caseName = "multi"
			}
			for _, n := range []int{128, 512} {
				b.Run(fmt.Sprintf("%s/%s/n=%d", method.Paper(), caseName, n), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := bench.Fig4Single(method, multi, n, int64(i+1)); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkFig5Storage measures server storage and client memory for one
// partition per method — the Fig. 5 series — reported as metrics.
func BenchmarkFig5Storage(b *testing.B) {
	for _, method := range bench.AllMethods {
		b.Run(method.Paper(), func(b *testing.B) {
			var server int64
			var client int
			for i := 0; i < b.N; i++ {
				res, err := bench.Fig5([]int{256}, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				p, _ := res.Point(method, 256)
				server, client = p.ServerBytes, p.ClientBytes
			}
			b.ReportMetric(float64(server), "server-bytes")
			b.ReportMetric(float64(client), "client-bytes")
		})
	}
}

// BenchmarkFig6aParallelism measures the Sort thread sweep with modeled
// network latency and reports the 1→4 thread speedup.
func BenchmarkFig6aParallelism(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig6a(32, []int{1, 4}, 100*time.Microsecond, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(res.Points[0].Runtime) / float64(res.Points[1].Runtime)
	}
	b.ReportMetric(speedup, "speedup-1to4")
}

// BenchmarkFig6bEnclave measures the Sort protocol against its enclave
// deployment and reports the speedup factor.
func BenchmarkFig6bEnclave(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig6b([]int{256}, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		p := res.Points[0]
		speedup = float64(p.Outside) / float64(p.Enclave)
	}
	b.ReportMetric(speedup, "enclave-speedup")
}

// BenchmarkFig7Dynamic measures Ex-ORAM per-operation insert/delete latency
// and reports them as metrics.
func BenchmarkFig7Dynamic(b *testing.B) {
	var ins, del time.Duration
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig7([]int{64}, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		p := res.Points[0] // |X| = 1
		ins, del = p.InsertAvg, p.DeleteAvg
	}
	b.ReportMetric(float64(ins.Microseconds()), "insert-us")
	b.ReportMetric(float64(del.Microseconds()), "delete-us")
}
