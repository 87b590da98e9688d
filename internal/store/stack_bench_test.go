package store

import (
	"bytes"
	"testing"

	"github.com/oblivfd/oblivfd/internal/telemetry"
)

// BenchmarkServiceStack is the decorator stack fdserver and fddiscover
// build — retry over metrics over a fault injector that never fires, over
// the in-memory server — driven with the three shapes the engines issue: a
// 64-cell read, a 64-cell write, and a fused batch of eight 8-cell ops. None
// of the benchmark's four workloads passes through a decorator, so this is
// where the cost of the seam itself shows.
func BenchmarkServiceStack(b *testing.B) {
	reg := telemetry.New()
	var svc Service = NewServer()
	svc = WithFaults(svc, FaultConfig{Seed: 1, Metrics: reg})
	svc = WithMetrics(svc, reg)
	svc = WithRetry(svc, RetryPolicy{Metrics: reg})

	const cells = 64
	idx, cts := make([]int64, cells), make([][]byte, cells)
	for i := range idx {
		idx[i] = int64(i)
		cts[i] = bytes.Repeat([]byte{byte(i)}, 45)
	}
	if err := svc.CreateArray("a", cells); err != nil {
		b.Fatal(err)
	}
	if err := svc.WriteCells("a", idx, cts); err != nil {
		b.Fatal(err)
	}
	ops := make([]BatchOp, 8)
	for i := range ops {
		ops[i] = BatchOp{Write: i%2 == 1, Name: "a", Idx: idx[8*i : 8*i+8]}
		if ops[i].Write {
			ops[i].Cts = cts[8*i : 8*i+8]
		}
	}

	b.Run("ReadCells64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := svc.ReadCells("a", idx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("WriteCells64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := svc.WriteCells("a", idx, cts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Batch8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DoBatch(svc, ops); err != nil {
				b.Fatal(err)
			}
		}
	})
}
