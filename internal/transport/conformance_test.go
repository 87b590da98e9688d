package transport

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"

	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/telemetry"
	"github.com/oblivfd/oblivfd/internal/trace"
)

// typedOnly exposes exactly the typed method set of a service — Service and
// Batcher — and hides Adapter.Do, so store.Invoke has to go through the
// methods protocol code calls.
type typedOnly struct {
	store.Service
	store.Batcher
}

func typed(t *testing.T, svc store.Service) typedOnly {
	t.Helper()
	b, ok := svc.(store.Batcher)
	if !ok {
		t.Fatalf("%T is no Batcher", svc)
	}
	return typedOnly{svc, b}
}

// conformanceScript is every Service operation at least once, with the
// failures each can answer, a Batch that reads what it wrote — an array's
// cells and a tree's paths, by flat position —, a Batch that creates what it
// writes and reveals beside it, and a Checkpoint/Stats pair.
// Names carry prefix and Checkpoint/Stats carry db: the same script runs
// un-prefixed through a tenant's view of a stack and spelled out ("tenant/…",
// DB "tenant") against the bare server.
func conformanceScript(prefix, db string) []store.Op {
	cell := func(b byte) []byte { return []byte{b, b, b} }
	slots := func(n int, b byte) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = cell(b + byte(i))
		}
		return out
	}
	a, tr := prefix+"a", prefix+"t"
	// path is the cells of tr's path to leaf, root first: its buckets'
	// flat positions at 2 slots a bucket.
	path := func(leaf int64) []int64 {
		var idx []int64
		for l := range int64(3) {
			b := 1<<l - 1 + leaf>>(2-l)
			idx = append(idx, 2*b, 2*b+1)
		}
		return idx
	}
	return []store.Op{
		{Kind: store.KindCreateArray, Name: a, N: 8},
		{Kind: store.KindCreateArray, Name: a, N: 1}, // exists
		{Kind: store.KindArrayLen, Name: a},
		{Kind: store.KindArrayLen, Name: prefix + "nope"},
		{Kind: store.KindWriteCells, Name: a, Idx: []int64{0, 1, 2, 3}, Cts: slots(4, 0x10)},
		{Kind: store.KindWriteCells, Name: a, Idx: []int64{99}, Cts: slots(1, 0)}, // out of range
		{Kind: store.KindReadCells, Name: a, Idx: []int64{3, 0, 1, 7}},
		{Kind: store.KindReadCells, Name: prefix + "nope", Idx: []int64{0}},
		{Kind: store.KindCreateTree, Name: tr, Levels: 3, Slots: 2},
		{Kind: store.KindCreateTree, Name: a, Levels: 3, Slots: 2}, // name taken by the array
		{Kind: store.KindWriteBuckets, Name: tr, N: 0, Cts: slots(14, 0x20)},
		{Kind: store.KindWriteBuckets, Name: tr, N: 6, Cts: slots(4, 0)}, // past the last bucket
		{Kind: store.KindReadPath, Name: tr, Leaf: 2},
		{Kind: store.KindReadPath, Name: tr, Leaf: 4}, // no such leaf
		{Kind: store.KindWritePath, Name: tr, Leaf: 1, Cts: slots(6, 0x40)},
		{Kind: store.KindWritePath, Name: tr, Leaf: 1, Cts: slots(5, 0)}, // malformed path
		{Kind: store.KindReadPath, Name: tr, Leaf: 1},
		{Kind: store.KindReveal, Name: prefix + "fd:0->1", Value: 1},
		{Kind: store.KindBatch, Ops: []store.BatchOp{
			{Name: a, Idx: []int64{0, 1}},
			{Write: true, Name: a, Idx: []int64{4, 5}, Cts: slots(2, 0x60)},
			{Name: a, Idx: []int64{4}},
			{Write: true, Name: a, Idx: []int64{0}, Cts: slots(1, 0x70)},
			{Name: a, Idx: []int64{0, 5}},
			{Name: tr, Idx: path(1)},
			{Write: true, Name: tr, Idx: path(3), Cts: slots(6, 0x50)},
			{Name: tr, Idx: path(2)}, // shares the root and a level-1 bucket with leaf 3
		}},
		{Kind: store.KindBatch, Ops: []store.BatchOp{
			{Write: true, Name: tr, Idx: path(0), Cts: slots(6, 0x58)},
			{Write: true, Name: tr, Idx: append(path(0)[:5], 14), Cts: slots(6, 0)}, // past the last cell: refused whole; the write before it stays
		}},
		{Kind: store.KindReadPath, Name: tr, Leaf: 0},
		{Kind: store.KindReadCells, Name: tr, Idx: []int64{0, 13, 5}},                      // a tree's cells by flat position
		{Kind: store.KindWriteCells, Name: tr, Idx: []int64{2, 9, 2}, Cts: slots(3, 0x30)}, // a repeated position keeps its last
		{Kind: store.KindWriteCells, Name: tr, Idx: []int64{3, 14}, Cts: slots(2, 0x38)},   // past the last cell: refused whole
		{Kind: store.KindReadCells, Name: tr, Idx: []int64{14}},                            // likewise
		{Kind: store.KindReadCells, Name: tr, Idx: []int64{2, 9, 3}},                       // 0x32, 0x31, and 3 as it was
		{Kind: store.KindBatch, Ops: []store.BatchOp{
			{Name: tr, Idx: []int64{0, 1, 2, 5, 6}}, // a round: the top level, then two segments
			{Write: true, Name: tr, Idx: []int64{0, 1, 2, 5, 6}, Cts: slots(5, 0x48)},
			{Name: tr, Idx: []int64{5, 0}},
		}},
		{Kind: store.KindBatch, Ops: []store.BatchOp{
			{Write: true, Name: a, Idx: []int64{6}, Cts: slots(1, 0x7a)},
			{Name: prefix + "nope", Idx: []int64{0}}, // aborts; the write before it stays
		}},
		{Kind: store.KindReadCells, Name: a, Idx: []int64{6}},
		{Kind: store.KindBatch, Ops: []store.BatchOp{ // a set-up: creates ride with the first writes, reveals beside them
			store.CreateArrayOp(prefix+"b", 4),
			store.CreateTreeOp(prefix+"u", 2, 1),
			{Write: true, Name: prefix + "u", Idx: []int64{0, 1, 2}, Cts: slots(3, 0x80)},
			{Write: true, Name: prefix + "b", Idx: []int64{3}, Cts: slots(1, 0x88)},
			store.RevealOp(prefix+"fd:1->0", 0),
			{Name: prefix + "b", Idx: []int64{3}},
		}},
		{Kind: store.KindBatch, Ops: []store.BatchOp{
			store.RevealOp(prefix+"fd:0->2", 1),
			store.CreateTreeOp(prefix+"b", 2, 1), // name taken by the array: aborts; the reveal before it stays
			{Name: prefix + "u", Idx: []int64{1}},
		}},
		{Kind: store.KindReadCells, Name: prefix + "u", Idx: []int64{2, 1}},
		{Kind: store.KindStats, DB: db},
		{Kind: store.KindCheckpoint, Value: 5, DB: db},
		{Kind: store.KindStats, DB: db},
		{Kind: store.KindWriteCells, Name: a, Idx: []int64{7}, Cts: slots(1, 0x7f)},
		{Kind: store.KindStats, DB: db},
		{Kind: store.KindDelete, Name: tr},
		{Kind: store.KindDelete, Name: tr}, // unknown now
		{Kind: store.KindStats, DB: db},
	}
}

// outcome is what a caller can tell about one finished op.
type outcome struct {
	Kind   store.Kind
	Result store.Result
	Err    string
}

var conformanceSentinels = []error{store.ErrObjectExists, store.ErrUnknownObject, store.ErrOutOfRange, store.ErrBadPath}

// runScript runs script through view, each op by store.Invoke.
func runScript(t *testing.T, view store.Service, script []store.Op) []outcome {
	t.Helper()
	out := make([]outcome, len(script))
	for i := range script {
		o := outcome{Kind: script[i].Kind}
		err := store.Invoke(view, &script[i], &o.Result)
		if err != nil {
			o.Result = store.Result{}
			o.Err = "other: " + err.Error()
			for _, s := range conformanceSentinels {
				if errors.Is(err, s) {
					o.Err = s.Error() // the class; wording may gain a layer's context
				}
			}
		}
		// The counters each layer adds to a Stats report are that layer's own
		// business; what must agree is what the backend holds.
		st := o.Result.Stats
		o.Result.Stats = store.Stats{Objects: st.Objects, StoredBytes: st.StoredBytes,
			Epoch: st.Epoch, MutationsSinceEpoch: st.MutationsSinceEpoch}
		out[i] = o
	}
	return out
}

// stack is one way to reach a backend: a root view, a view bound to the
// database "tenant", and the recorder of what the backend saw.
type stack struct {
	root, tenant store.Service
	rec          *trace.Recorder
}

// wrapped stacks a store-side layer on a fresh in-memory server.
func wrapped(wrap func(store.Service) store.Service) func(*testing.T) stack {
	return func(*testing.T) stack {
		backend := store.NewServer()
		root := wrap(backend)
		return stack{root: root, tenant: store.Namespaced(root, "tenant"), rec: backend.Trace()}
	}
}

// served puts a fresh in-memory server behind a transport server and reaches
// it through dial; the tenant view is a second client whose session handshake
// binds it to the database.
func served(dial func(addr string, cfg ClientConfig) (store.Service, func() error, error)) func(*testing.T) stack {
	return func(t *testing.T) stack {
		backend := store.NewServer()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(backend)
		go func() { _ = srv.Serve(l) }()
		t.Cleanup(func() { srv.Shutdown(0) })
		view := func(cfg ClientConfig) store.Service {
			svc, closer, err := dial(l.Addr().String(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = closer() })
			return svc
		}
		return stack{root: view(ClientConfig{}), tenant: view(ClientConfig{Database: "tenant"}), rec: backend.Trace()}
	}
}

// TestServiceConformance: through every layer at neutral settings, every
// operation — a mixed Batch and a named namespace's Checkpoint/Stats among
// them — gives the caller what the bare server gives, and the backend sees
// the identical trace. A layer that drops an extension (the round counter
// used to refuse a tenant's Checkpoint), reorders a batch or touches the
// store once more or less than asked shows here.
func TestServiceConformance(t *testing.T) {
	stacks := []struct {
		name  string
		build func(*testing.T) stack
	}{
		{"namespaced", wrapped(func(s store.Service) store.Service { return s })},
		{"latency", wrapped(func(s store.Service) store.Service { return store.WithLatency(s, 1) })},
		{"metrics", wrapped(func(s store.Service) store.Service { return store.WithMetrics(s, telemetry.New()) })},
		{"faults", wrapped(func(s store.Service) store.Service { return store.WithFaults(s, store.FaultConfig{Seed: 1}) })},
		{"retry", wrapped(func(s store.Service) store.Service { return store.WithRetry(s, store.RetryPolicy{}) })},
		{"round-counter", wrapped(func(s store.Service) store.Service { return store.WithRoundCounter(s) })},
		{"fdserver-stack", wrapped(func(s store.Service) store.Service {
			reg := telemetry.New()
			s = store.WithLatency(s, 1)
			s = store.WithFaults(s, store.FaultConfig{Seed: 1, Metrics: reg})
			s = store.WithMetrics(s, reg)
			return store.WithRetry(s, store.RetryPolicy{Metrics: reg})
		})},
		{"durable", func(t *testing.T) stack {
			d, err := store.OpenDir(t.TempDir(), store.DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = d.Close() })
			return stack{root: d, tenant: store.Namespaced(d, "tenant"), rec: d.Trace()}
		}},
		{"replicated", func(t *testing.T) stack {
			d, err := store.OpenDir(t.TempDir(), store.DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			r, err := store.Replicated(d, store.ReplicationConfig{Primary: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = r.Close() })
			return stack{root: r, tenant: store.Namespaced(r, "tenant"), rec: r.Trace()}
		}},
		{"tcp-client", served(func(addr string, cfg ClientConfig) (store.Service, func() error, error) {
			c, err := DialWith(addr, cfg)
			return c, c.Close, err
		})},
		{"tcp-pool", served(func(addr string, cfg ClientConfig) (store.Service, func() error, error) {
			p, err := DialPoolWith(addr, 2, cfg)
			return p, p.Close, err
		})},
		{"tcp-failover-pool", served(func(addr string, cfg ClientConfig) (store.Service, func() error, error) {
			f, err := DialFailover([]string{addr}, 2, cfg)
			return f, f.Close, err
		})},
	}

	// The reference: the bare server, the tenant's names spelled out. Only
	// its tenant script goes through Invoke whole: the server is a Handler,
	// and no typed call names the tenant's database in a Checkpoint or Stats.
	ref := store.NewServer()
	ref.Trace().Enable()
	wantRoot := runScript(t, typed(t, ref), conformanceScript("", ""))
	wantTenant := runScript(t, ref, conformanceScript("tenant/", "tenant"))
	wantShape := trace.ShapeOf(ref.Trace().Events())
	if len(wantShape) == 0 {
		t.Fatal("the reference run recorded no trace")
	}

	for _, tc := range stacks {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.build(t)
			st.rec.Enable()
			compare := func(view string, got, want []outcome) {
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("%s view, op %d (%v):\n got %s\nwant %s", view, i, want[i].Kind, render(got[i]), render(want[i]))
					}
				}
			}
			compare("root", runScript(t, typed(t, st.root), conformanceScript("", "")), wantRoot)
			compare("tenant", runScript(t, typed(t, st.tenant), conformanceScript("", "")), wantTenant)
			if got := trace.ShapeOf(st.rec.Events()); !got.Equal(wantShape) {
				t.Errorf("backend trace differs from the bare server's:\n%s", got.Diff(wantShape))
			}
		})
	}
}

func render(o outcome) string {
	if o.Err != "" {
		return o.Err
	}
	return fmt.Sprintf("%+v", o.Result)
}
