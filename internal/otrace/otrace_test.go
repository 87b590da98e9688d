package otrace

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestWireRoundTrip(t *testing.T) {
	tr := New(Config{Service: "test"})
	root := tr.StartRoot("root")
	ctx := root.Context()
	if !ctx.Valid() || !ctx.Sampled {
		t.Fatalf("root context invalid: %+v", ctx)
	}
	got := FromWire(ctx.Wire())
	if got != ctx {
		t.Fatalf("wire roundtrip: got %+v want %+v", got, ctx)
	}

	unsampled := SpanContext{Trace: ctx.Trace, Span: ctx.Span, Sampled: false}
	if got := FromWire(unsampled.Wire()); got != unsampled {
		t.Fatalf("unsampled roundtrip: got %+v want %+v", got, unsampled)
	}
}

func TestWireZeroContext(t *testing.T) {
	// The zero context still carries the version byte: a header is never
	// all zeros, so "tracing off" and "header missing" cannot be confused.
	b := SpanContext{}.Wire()
	if b[0] != wireVersion {
		t.Fatalf("zero context version byte = %d, want %d", b[0], wireVersion)
	}
	if got := FromWire(b); got.Valid() {
		t.Fatalf("zero context decoded as valid: %+v", got)
	}
	// Unknown version decodes to the zero context rather than garbage.
	var bogus [WireSize]byte
	bogus[0] = 99
	bogus[1] = 1
	if got := FromWire(bogus); got.Valid() {
		t.Fatalf("unknown version decoded as valid: %+v", got)
	}
}

// FuzzFromWire: any 26 bytes decode either to the zero context or to a
// context whose Wire() is exactly those bytes — a header is never half
// understood.
func FuzzFromWire(f *testing.F) {
	ctx := SpanContext{Trace: TraceID{1, 2, 3}, Span: SpanID{4, 5}, Sampled: true}
	unsampled := ctx
	unsampled.Sampled = false
	unknownVersion := ctx.Wire()
	unknownVersion[0] = 99
	reservedFlag := unsampled.Wire()
	reservedFlag[25] = 0x02
	for _, b := range [][WireSize]byte{SpanContext{}.Wire(), ctx.Wire(), unsampled.Wire(), unknownVersion, reservedFlag} {
		f.Add(b[:])
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) != WireSize {
			return
		}
		b := [WireSize]byte(in)
		c := FromWire(b)
		if c != (SpanContext{}) && c.Wire() != b {
			t.Fatalf("FromWire(%x) = %+v, which encodes as %x", b, c, c.Wire())
		}
	})
}

func TestWireSizeMatchesLayout(t *testing.T) {
	if WireSize != 1+16+8+1 {
		t.Fatalf("WireSize = %d, want 26", WireSize)
	}
}

func TestChildLinksToParent(t *testing.T) {
	tr := New(Config{Service: "test"})
	root := tr.StartRoot("root")
	child := tr.StartChild("child", root.Context())
	if child.Context().Trace != root.Context().Trace {
		t.Fatalf("child trace %v != root trace %v", child.Context().Trace, root.Context().Trace)
	}
	if child.parent != root.Context().Span {
		t.Fatalf("child parent %v != root span %v", child.parent, root.Context().Span)
	}
	child.End()
	root.End()
	recs := tr.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Parent != recs[1].Span {
		t.Fatalf("record parent %q != root span %q", recs[0].Parent, recs[1].Span)
	}
	if recs[0].Trace != recs[1].Trace {
		t.Fatalf("records disagree on trace: %q vs %q", recs[0].Trace, recs[1].Trace)
	}
}

func TestInvalidParentStartsRoot(t *testing.T) {
	tr := New(Config{Service: "test"})
	s := tr.StartChild("orphan", SpanContext{})
	if !s.Context().Valid() {
		t.Fatal("orphan did not get a fresh trace")
	}
	if s.parent != zeroSpan {
		t.Fatalf("orphan has parent %v", s.parent)
	}
}

func TestRingBufferBounded(t *testing.T) {
	tr := New(Config{Service: "test", Capacity: 8})
	for i := 0; i < 20; i++ {
		sp := tr.StartRoot(fmt.Sprintf("span-%02d", i))
		sp.End()
	}
	recs := tr.Records()
	if len(recs) != 8 {
		t.Fatalf("ring holds %d records, want 8", len(recs))
	}
	// Oldest-first: the survivors are spans 12..19.
	for i, r := range recs {
		want := fmt.Sprintf("span-%02d", 12+i)
		if r.Name != want {
			t.Fatalf("record %d = %q, want %q", i, r.Name, want)
		}
	}
	if tr.Recorded() != 20 {
		t.Fatalf("Recorded() = %d, want 20", tr.Recorded())
	}
}

func TestHeadSampling(t *testing.T) {
	tr := New(Config{Service: "test", SampleEvery: 4})
	for i := 0; i < 16; i++ {
		root := tr.StartRoot("root")
		// Children inherit the head decision.
		child := tr.StartChild("child", root.Context())
		child.End()
		root.End()
	}
	recs := tr.Records()
	if len(recs) != 8 { // 4 sampled roots x (root + child)
		t.Fatalf("got %d records, want 8", len(recs))
	}
}

func TestBindParentsDeepSpans(t *testing.T) {
	tr := New(Config{Service: "test"})
	req := tr.StartRoot("request")
	up := tr.SetCurrent(req.Context())
	inner := tr.Start("inner") // no explicit context: must find the current span
	if inner.Context().Trace != req.Context().Trace {
		t.Fatal("current span not inherited by Start")
	}
	if inner.parent != req.Context().Span {
		t.Fatal("inner span not parented to the current span")
	}
	// A zero parent means the current span too; an explicit one wins.
	if deep := tr.StartChild("deep", SpanContext{}); deep.parent != req.Context().Span {
		t.Fatal("StartChild with the zero context not parented to the current span")
	}
	if deep := tr.StartChild("deep", inner.Context()); deep.parent != inner.Context().Span {
		t.Fatal("explicit parent lost to the current span")
	}
	tr.SetCurrent(up)
	orphan := tr.Start("after-restore")
	if orphan.Context().Trace == req.Context().Trace || orphan.parent != zeroSpan {
		t.Fatal("current span leaked past its restore")
	}
}

func TestBindRestoresPrevious(t *testing.T) {
	tr := New(Config{Service: "test"})
	outer := tr.StartRoot("outer")
	upOuter := tr.SetCurrent(outer.Context())
	inner := tr.StartRoot("inner")
	upInner := tr.SetCurrent(inner.Context())
	if upInner != outer.Context() {
		t.Fatal("SetCurrent did not return the outer span it replaced")
	}
	if tr.Start("x").parent != inner.Context().Span {
		t.Fatal("inner span not current")
	}
	tr.SetCurrent(upInner)
	if tr.Start("x").parent != outer.Context().Span {
		t.Fatal("outer span not restored")
	}
	tr.SetCurrent(upOuter)
	if upOuter.Valid() || tr.Start("x").parent != zeroSpan {
		t.Fatal("current span leaked")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.StartRoot("x")
	if sp != nil {
		t.Fatal("nil tracer produced a span")
	}
	sp.End()
	if tr.SetCurrent(sp.Context()).Valid() {
		t.Fatal("nil tracer has a current span")
	}
	if sp.Context().Valid() {
		t.Fatal("nil span has a valid context")
	}
	if tr.Records() != nil || tr.Recorded() != 0 || tr.Phases() != nil {
		t.Fatal("nil tracer has records")
	}
	tr.Reset()
	if tr.Start("y") != nil || tr.StartChild("z", SpanContext{}) != nil {
		t.Fatal("nil tracer produced a span")
	}
	var buf bytes.Buffer
	tr.Handler().ServeHTTP(discardResponse{&buf}, nil)
	if !bytes.Contains(buf.Bytes(), []byte("traceEvents")) {
		t.Fatal("nil tracer handler did not serve an empty document")
	}
}

type discardResponse struct{ w *bytes.Buffer }

func (d discardResponse) Header() http.Header         { return http.Header{} }
func (d discardResponse) Write(b []byte) (int, error) { return d.w.Write(b) }
func (d discardResponse) WriteHeader(int)             {}

func TestSlowSpanHook(t *testing.T) {
	var mu sync.Mutex
	var slow []Record
	tr := New(Config{
		Service:     "test",
		SampleEvery: 1 << 30, // effectively unsampled after the first
		SlowSpan:    time.Nanosecond,
		OnSlowSpan: func(r Record) {
			mu.Lock()
			slow = append(slow, r)
			mu.Unlock()
		},
	})
	tr.StartRoot("first").End() // sampled (head of the cycle)
	s := tr.StartRoot("second") // unsampled, but still slow
	time.Sleep(time.Millisecond)
	s.End()
	mu.Lock()
	defer mu.Unlock()
	if len(slow) != 2 {
		t.Fatalf("slow hook fired %d times, want 2 (sampled and unsampled)", len(slow))
	}
	if slow[1].Name != "second" || slow[1].Dur <= 0 {
		t.Fatalf("bad slow record: %+v", slow[1])
	}
	if len(tr.Records()) != 1 {
		t.Fatalf("unsampled slow span leaked into the ring: %d records", len(tr.Records()))
	}
}

// TestConcurrentRecording exercises the ring buffer and the per-name totals
// from many goroutines at once, each naming its child's parent; run under
// -race.
func TestConcurrentRecording(t *testing.T) {
	tr := New(Config{Service: "test", Capacity: 64})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				root := tr.StartRoot(fmt.Sprintf("g%d", g))
				child := tr.StartChild("child", root.Context())
				child.End()
				root.End()
				tr.Records()
				tr.Phases()
			}
		}(g)
	}
	wg.Wait()
	if got := tr.Recorded(); got != 8*200*2 {
		t.Fatalf("Recorded() = %d, want %d", got, 8*200*2)
	}
	for _, p := range tr.Phases() {
		want := int64(200) // each goroutine's roots, "g0".."g7"
		if p.Name == "child" {
			want = 8 * 200
		}
		if p.Count != want {
			t.Fatalf("phase %s counted %d, want %d", p.Name, p.Count, want)
		}
	}
	if len(tr.Records()) != 64 {
		t.Fatalf("ring holds %d, want capacity 64", len(tr.Records()))
	}
	if tr.SetCurrent(SpanContext{}).Valid() {
		t.Fatal("a current span leaked")
	}
}

func TestRecordsJSONRoundTrip(t *testing.T) {
	tr := New(Config{Service: "svc"})
	root := tr.StartRoot("op")
	tr.StartChild("sub", root.Context()).End()
	root.End()
	b, err := MarshalRecords(tr.Records())
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalRecords(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Name != "sub" || back[0].Service != "svc" {
		t.Fatalf("bad roundtrip: %+v", back)
	}
}

func TestSpanAccumulation(t *testing.T) {
	tr := New(Config{Service: "test"})
	for i := 0; i < 3; i++ {
		sp := tr.Start("lattice/level-01")
		time.Sleep(time.Millisecond)
		sp.End()
	}
	ph := tr.Phases()
	if len(ph) != 1 {
		t.Fatalf("phases = %d, want 1", len(ph))
	}
	if ph[0].Count != 3 {
		t.Fatalf("count = %d, want 3", ph[0].Count)
	}
	if ph[0].Total < 3*time.Millisecond {
		t.Fatalf("total = %v, want >= 3ms", ph[0].Total)
	}
	if m := ph[0].Mean(); m < time.Millisecond {
		t.Fatalf("mean = %v, want >= 1ms", m)
	}
}

// TestPhaseOrderIsFirstStart: phases are ordered by each name's earliest
// start, not by when a span was recorded, so an enclosing span (recorded
// last) is listed before the spans it contains.
func TestPhaseOrderIsFirstStart(t *testing.T) {
	tr := New(Config{Service: "test"})
	root := tr.StartRoot("discover")
	up := tr.SetCurrent(root.Context())
	for _, n := range []string{"setup", "lattice/level-01", "lattice/level-02", "setup"} {
		time.Sleep(time.Microsecond) // distinct start times
		tr.Start(n).End()
	}
	tr.SetCurrent(up)
	root.End()
	ph := tr.Phases()
	want := []string{"discover", "setup", "lattice/level-01", "lattice/level-02"}
	if len(ph) != len(want) {
		t.Fatalf("phases = %+v, want %v", ph, want)
	}
	for i, w := range want {
		if ph[i].Name != w {
			t.Fatalf("phase[%d] = %s, want %s", i, ph[i].Name, w)
		}
	}
	if ph[1].Count != 2 {
		t.Fatalf("setup count = %d, want 2", ph[1].Count)
	}
}

// TestPhasesSurviveRingWrap: the per-name totals count every recorded span,
// not just the ones the ring still holds.
func TestPhasesSurviveRingWrap(t *testing.T) {
	tr := New(Config{Service: "test", Capacity: 4})
	for i := 0; i < 10; i++ {
		tr.StartRoot("rpc/ReadPath").End()
	}
	if n := len(tr.Records()); n != 4 {
		t.Fatalf("ring holds %d records, want 4", n)
	}
	ph := tr.Phases()
	if len(ph) != 1 || ph[0].Name != "rpc/ReadPath" || ph[0].Count != 10 {
		t.Fatalf("phases = %+v, want rpc/ReadPath counted 10 times", ph)
	}
}

// TestPhasesSampledOnly: an unsampled span reaches neither the ring nor the
// totals, even when the slow-span hook sees it.
func TestPhasesSampledOnly(t *testing.T) {
	tr := New(Config{Service: "test", SampleEvery: 2, SlowSpan: time.Nanosecond, OnSlowSpan: func(Record) {}})
	for i := 0; i < 4; i++ {
		tr.StartRoot("root").End()
	}
	if ph := tr.Phases(); len(ph) != 1 || ph[0].Count != 2 {
		t.Fatalf("phases = %+v, want root counted twice", ph)
	}
}

func TestResetClearsPhases(t *testing.T) {
	tr := New(Config{Service: "test"})
	tr.StartRoot("a").End()
	tr.Reset()
	if ph := tr.Phases(); len(ph) != 0 {
		t.Fatalf("phases after Reset = %+v, want none", ph)
	}
	tr.StartRoot("b").End()
	if ph := tr.Phases(); len(ph) != 1 || ph[0].Name != "b" || ph[0].Count != 1 {
		t.Fatalf("phases = %+v, want b once", ph)
	}
}

func TestRenderPhasesEmpty(t *testing.T) {
	if got := RenderPhases(nil, 0); !strings.Contains(got, "no phases") {
		t.Fatalf("empty render = %q", got)
	}
}

func TestRenderPhases(t *testing.T) {
	out := RenderPhases([]Phase{
		{Name: "lattice/level-00", Count: 1, Total: 2 * time.Second},
		{Name: "candidate/single", Count: 1, Total: time.Second},
	}, 4*time.Second)
	for _, want := range []string{"phase", "%wall", "lattice/level-00", "2s", "50.0%", "candidate/single", "25.0%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
