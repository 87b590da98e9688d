package store

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// batchFixture creates an array with n cells holding {byte(i)}.
func batchFixture(t *testing.T, svc Service, name string, n int) {
	t.Helper()
	if err := svc.CreateArray(name, n); err != nil {
		t.Fatal(err)
	}
	idx := make([]int64, n)
	cts := make([][]byte, n)
	for i := range idx {
		idx[i] = int64(i)
		cts[i] = []byte{byte(i)}
	}
	if err := svc.WriteCells(name, idx, cts); err != nil {
		t.Fatal(err)
	}
}

// TestDoBatchMatchesSerial: a fused batch must be observationally identical
// to issuing its ops one by one — mixed reads and writes, applied in order,
// with reads seeing earlier writes in the same batch.
func TestDoBatchMatchesSerial(t *testing.T) {
	srv := NewServer()
	batchFixture(t, srv, "a", 4)
	res, err := DoBatch(srv, []BatchOp{
		{Name: "a", Idx: []int64{0, 1}},
		{Write: true, Name: "a", Idx: []int64{0}, Cts: [][]byte{{0xEE}}},
		{Name: "a", Idx: []int64{0}}, // must observe the write above
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res[0][0], []byte{0}) || !bytes.Equal(res[0][1], []byte{1}) {
		t.Errorf("op 0 read %v, want [[0] [1]]", res[0])
	}
	if res[1] != nil {
		t.Errorf("write op returned %v, want nil", res[1])
	}
	if !bytes.Equal(res[2][0], []byte{0xEE}) {
		t.Errorf("in-batch read-after-write got %v, want [EE]", res[2][0])
	}
}

// TestBatchedPathOpsMatchSerial: a tree's paths ride in a batch as cell ops on
// their buckets beside an array's, fused or through the per-op fallback, apply
// in order — a bucket written and then read in one batch reads back the write
// — and leave the trace the same calls leave one by one.
func TestBatchedPathOpsMatchSerial(t *testing.T) {
	path := func(b byte) [][]byte { return [][]byte{{b}, {b + 1}, {b + 2}} }
	// The buckets of t's paths to leaves 1, 0 and 3, root first, at one
	// slot a bucket.
	leaf1, leaf0, leaf3 := []int64{0, 1, 4}, []int64{0, 1, 3}, []int64{0, 2, 6}
	ops := []BatchOp{
		{Write: true, Name: "t", Idx: leaf1, Cts: path(10)},
		{Name: "t", Idx: leaf0}, // shares the root and the next bucket
		{Name: "a", Idx: []int64{1}},
		{Write: true, Name: "t", Idx: leaf3, Cts: path(20)},
		{Name: "t", Idx: leaf3},
	}
	build := func() *Server {
		srv := NewServer()
		batchFixture(t, srv, "a", 2)
		if err := srv.CreateTree("t", 3, 1); err != nil {
			t.Fatal(err)
		}
		srv.Trace().Reset()
		srv.Trace().Enable()
		return srv
	}

	serial := build()
	for _, err := range []error{
		serial.WriteCells("t", leaf1, path(10)),
		second(serial.ReadCells("t", leaf0)),
		second(serial.ReadCells("a", []int64{1})),
		serial.WriteCells("t", leaf3, path(20)),
		second(serial.ReadCells("t", leaf3)),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	want := serial.Trace().Events()

	for name, view := range map[string]func(*Server) Service{
		"fused":    func(s *Server) Service { return s },
		"fallback": func(s *Server) Service { return nonBatcher{s} },
	} {
		srv := build()
		res, err := DoBatch(view(srv), ops)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res[0] != nil || res[3] != nil || len(res[1]) != 3 || !bytes.Equal(res[1][0], []byte{10}) ||
			!bytes.Equal(res[1][1], []byte{11}) || res[1][2] != nil || !bytes.Equal(res[4][2], []byte{22}) {
			t.Errorf("%s: results %v", name, res)
		}
		if got := srv.Trace().Events(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: trace %v, want the serial calls' %v", name, got, want)
		}
	}
}

func second[T any](_ T, err error) error { return err }

// nonBatcher hides the Batcher extension so DoBatch exercises the per-op
// fallback path.
type nonBatcher struct{ Service }

func TestDoBatchFallback(t *testing.T) {
	srv := NewServer()
	batchFixture(t, srv, "a", 2)
	res, err := DoBatch(nonBatcher{Service(srv)}, []BatchOp{
		{Name: "a", Idx: []int64{1}},
		{Write: true, Name: "a", Idx: []int64{1}, Cts: [][]byte{{9}}},
		{Name: "a", Idx: []int64{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res[0][0], []byte{1}) || !bytes.Equal(res[2][0], []byte{9}) {
		t.Errorf("fallback batch reads = %v / %v, want [1] / [9]", res[0][0], res[2][0])
	}
}

// TestRoundCounterCountsBatchesAsOneRound: a fused batch is one logical
// round regardless of op count; unbatched ops are one round each.
func TestRoundCounterCountsBatchesAsOneRound(t *testing.T) {
	srv := NewServer()
	batchFixture(t, srv, "a", 4)
	rc := WithRoundCounter(srv)

	base := rc.Rounds()
	if _, err := DoBatch(rc, []BatchOp{
		{Name: "a", Idx: []int64{0}},
		{Name: "a", Idx: []int64{1}},
		{Name: "a", Idx: []int64{2}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := rc.Rounds() - base; got != 1 {
		t.Errorf("fused batch counted as %d rounds, want 1", got)
	}

	base = rc.Rounds()
	for i := int64(0); i < 3; i++ {
		if _, err := rc.ReadCells("a", []int64{i}); err != nil {
			t.Fatal(err)
		}
	}
	if got := rc.Rounds() - base; got != 3 {
		t.Errorf("3 serial reads counted as %d rounds, want 3", got)
	}

	// A backend that cannot fuse makes each op its own round: the counter
	// must not report fewer rounds than the backend actually served.
	rc2 := WithRoundCounter(nonBatcher{Service(srv)})
	if _, err := DoBatch(rc2, []BatchOp{
		{Name: "a", Idx: []int64{0}},
		{Name: "a", Idx: []int64{1}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := rc2.Rounds(); got != 2 {
		t.Errorf("non-fusing backend: batch of 2 counted as %d rounds, want 2", got)
	}
}

// TestWithLatencyBatchPaysOneDelay is the mechanism the scaling experiment
// prices: a fused batch pays one RTT no matter how many cells it carries.
func TestWithLatencyBatchPaysOneDelay(t *testing.T) {
	srv := NewServer()
	batchFixture(t, srv, "a", 8)
	const rtt = 20 * time.Millisecond
	svc := WithLatency(Service(srv), rtt)

	ops := make([]BatchOp, 8)
	for i := range ops {
		ops[i] = BatchOp{Name: "a", Idx: []int64{int64(i)}}
	}
	start := time.Now()
	if _, err := DoBatch(svc, ops); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < rtt {
		t.Errorf("batch took %s, want ≥ one RTT (%s)", elapsed, rtt)
	}
	if elapsed >= 4*rtt {
		t.Errorf("batch of 8 took %s — paying per-op delays instead of one RTT", elapsed)
	}
}
