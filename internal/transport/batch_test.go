package transport

import (
	"bytes"
	"testing"

	"github.com/oblivfd/oblivfd/internal/store"
)

// TestTCPBatchRoundTrip: a kindBatch frame carries mixed reads and writes
// in one message; ops apply in order so in-batch read-after-write holds
// exactly as it does for the in-process server.
func TestTCPBatchRoundTrip(t *testing.T) {
	c, _ := startServer(t)
	if err := c.CreateArray("a", 4); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteCells("a", []int64{0, 1, 2, 3}, [][]byte{{0}, {1}, {2}, {3}}); err != nil {
		t.Fatal(err)
	}

	res, err := c.Batch([]store.BatchOp{
		{Name: "a", Idx: []int64{0, 3}},
		{Write: true, Name: "a", Idx: []int64{0}, Cts: [][]byte{{0xAB}}},
		{Name: "a", Idx: []int64{0}},
	})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if len(res) != 3 {
		t.Fatalf("Batch returned %d results, want 3", len(res))
	}
	if !bytes.Equal(res[0][0], []byte{0}) || !bytes.Equal(res[0][1], []byte{3}) {
		t.Errorf("op 0 = %v, want [[0] [3]]", res[0])
	}
	if res[1] != nil {
		t.Errorf("write op result = %v, want nil", res[1])
	}
	if !bytes.Equal(res[2][0], []byte{0xAB}) {
		t.Errorf("in-batch read-after-write = %v, want [AB]", res[2][0])
	}
}

// TestTCPBatchError: a failing op aborts the batch and surfaces the server
// error; earlier writes in the batch remain applied (serial semantics).
func TestTCPBatchError(t *testing.T) {
	c, backend := startServer(t)
	if err := c.CreateArray("a", 2); err != nil {
		t.Fatal(err)
	}
	_, err := c.Batch([]store.BatchOp{
		{Write: true, Name: "a", Idx: []int64{0}, Cts: [][]byte{{7}}},
		{Name: "missing", Idx: []int64{0}},
	})
	if err == nil {
		t.Fatal("Batch with unknown array succeeded, want error")
	}
	got, err := backend.ReadCells("a", []int64{0})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], []byte{7}) {
		t.Errorf("write before failing op = %v, want [7] (serial semantics)", got[0])
	}
}

// TestPoolBatch routes a batch through the connection pool.
func TestPoolBatch(t *testing.T) {
	addr := startPoolServer(t)
	p, err := DialPoolWith(addr, 2, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	res, err := p.Batch([]store.BatchOp{
		{Write: true, Name: "a", Idx: []int64{1}, Cts: [][]byte{{5}}},
		{Name: "a", Idx: []int64{1}},
	})
	if err != nil {
		t.Fatalf("pool Batch: %v", err)
	}
	if !bytes.Equal(res[1][0], []byte{5}) {
		t.Errorf("pool batch read = %v, want [5]", res[1][0])
	}
}
