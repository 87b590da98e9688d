package transport

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"github.com/oblivfd/oblivfd/internal/otrace"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/wire"
)

// codecRequests covers every kind, with the ciphertext shapes callers
// produce: absent, empty, and lists holding nil and zero-length elements.
func codecRequests() []request {
	cell := bytes.Repeat([]byte{0xC7}, 45)
	big := bytes.Repeat([]byte{0x11}, 300)
	reqs := []request{
		{Op: store.Op{Kind: store.KindCreateArray, Name: "db:sort:col0", N: 4096}},
		{Op: store.Op{Kind: store.KindCreateArray, Name: "", N: -1}},
		{Op: store.Op{Kind: store.KindArrayLen, Name: "a"}},
		{Op: store.Op{Kind: store.KindReadCells, Name: "a", Idx: []int64{0, 1, 2, 3, 200, 100}}},
		{Op: store.Op{Kind: store.KindReadCells, Name: "a"}},
		{Op: store.Op{Kind: store.KindWriteCells, Name: "a", Idx: []int64{64, 65, 66}, Cts: [][]byte{cell, big, cell}}},
		{Op: store.Op{Kind: store.KindWriteCells, Name: "a", Idx: []int64{}, Cts: [][]byte{}}},
		{Op: store.Op{Kind: store.KindWriteCells, Name: "a", Idx: []int64{-5, 1 << 62}, Cts: [][]byte{nil, {}}}},
		{Op: store.Op{Kind: store.KindCreateTree, Name: "t", Levels: 11, Slots: 4}},
		{Op: store.Op{Kind: store.KindReadPath, Name: "t", Leaf: 1023}},
		{Op: store.Op{Kind: store.KindReadPath, Name: "t", Leaf: 1<<32 - 1}},
		{Op: store.Op{Kind: store.KindWritePath, Name: "t", Leaf: 7, Cts: [][]byte{cell, nil, cell, nil}}},
		{Op: store.Op{Kind: store.KindWriteBuckets, Name: "t", N: 512, Cts: [][]byte{cell, cell}}},
		{Op: store.Op{Kind: store.KindDelete, Name: "a"}},
		{Op: store.Op{Kind: store.KindReveal, Name: "fd:0,1->2", Value: -1}},
		{Op: store.Op{Kind: store.KindStats}},
		{Op: store.Op{Kind: store.KindCheckpoint, Value: 9}},
		{Op: store.Op{Kind: store.KindBatch, Ops: []store.BatchOp{
			{Name: "a", Idx: []int64{0, 1}},
			{Write: true, Name: "a", Idx: []int64{0, 1}, Cts: [][]byte{cell, nil}},
			{Write: true, Name: "b"},
		}}},
		{Op: store.Op{Kind: store.KindBatch}},
		{Op: store.Op{Kind: store.KindHello, Name: "tenant", Value: 3}, Token: "hunter2"},
		{Op: store.Op{Kind: store.KindReplicate, Value: 2, Cts: [][]byte{big, cell}}, Token: "hunter2", Seq: 1 << 40},
		{Op: store.Op{Kind: store.KindSync, Value: 2, Cts: [][]byte{big}}, Seq: 17},
		{Op: store.Op{Kind: store.KindPromote, Value: 5}, Token: "t"},
		{Op: store.Op{Kind: store.KindTraceDump, Name: "0123456789abcdef0123456789abcdef"}, Token: "t"},
		{Op: store.Op{Kind: store.KindRepair, Value: 4, Name: "t", N: 1, Idx: []int64{40, 41}}, Token: "t"},
		// A fused ORAM round: write-backs, then fetches, each a tree's
		// buckets by flat position.
		{Op: store.Op{Kind: store.KindBatch, Ops: []store.BatchOp{
			{Write: true, Name: "or1:1:IL", Idx: []int64{0, 2, 1<<32 - 2}, Cts: [][]byte{cell, cell, big}},
			{Name: "or1:2:KL", Idx: []int64{0, 1, 2, 4, 700}},
			{Name: "or1:2:IL"},
			{Name: "a", Idx: []int64{7}},
		}}},
		// The forms that touch no cell, each beside what rides with it: an
		// array's create with its first write, a tree's with its first
		// dummy buckets, a level's reveals.
		{Op: store.Op{Kind: store.KindBatch, Ops: []store.BatchOp{
			store.CreateArrayOp("db:sort:col0", 4096),
			{Write: true, Name: "db:sort:col0", Idx: []int64{0, 1}, Cts: [][]byte{cell, cell}},
		}}},
		{Op: store.Op{Kind: store.KindBatch, Ops: []store.BatchOp{
			store.CreateArrayOp("or1:1:IL", 1024),
			store.CreateTreeOp("or1:1:KL", 10, 1),
			{Write: true, Name: "or1:1:KL", Idx: []int64{0, 1, 2}, Cts: [][]byte{cell, cell, cell}},
		}}},
		{Op: store.Op{Kind: store.KindBatch, Ops: []store.BatchOp{
			store.RevealOp("fd:0,1->2", 1),
			store.RevealOp("fd:0->2", 0),
			store.RevealOp("fd:", -1),
		}}},
	}
	ctx := otrace.SpanContext{Sampled: true}
	for i := range ctx.Trace {
		ctx.Trace[i] = byte(0x80 + i)
	}
	for i := range reqs {
		if i%2 == 1 {
			reqs[i].Ctx = ctx.Wire()
		} else {
			reqs[i].Ctx = otrace.SpanContext{}.Wire()
		}
	}
	return reqs
}

func codecResponses() []response {
	path := make([][]byte, 44)
	for i := range path {
		path[i] = bytes.Repeat([]byte{byte(i)}, 57)
	}
	return []response{
		{},
		{Err: "store: unknown object: \"a\"", Code: codeUnknownObject},
		{Result: store.Result{N: 4096}},
		{Result: store.Result{N: -1}},
		{Result: store.Result{Cts: path}},
		{Result: store.Result{Cts: [][]byte{nil, {1}, {}, {2, 3}}}},
		{Result: store.Result{Stats: store.Stats{Objects: 3, StoredBytes: 1 << 33, FaultsInjected: 1, Retries: 2, Reconnects: 3,
			Epoch: 4, MutationsSinceEpoch: 5, Primary: true, Fence: 6, ReplicaLag: 7, Watermark: -1, Failovers: 8}}},
		{Result: store.Result{Stats: store.Stats{Objects: 1}}},
		{Fence: 3, Seq: 99},
		{Err: "store: fenced", Code: codeFenced, Fence: 4, Seq: -1},
		{Err: "x", Code: codeGeneric, Result: store.Result{N: 1, Cts: [][]byte{{1}}, Stats: store.Stats{Primary: true}}, Fence: 1, Seq: 1},
	}
}

// nilEmpty rewrites v the way decoding does: empty lists and zero-length
// byte strings become nil.
func nilEmptyRun(run [][]byte) [][]byte {
	if len(run) == 0 {
		return nil
	}
	out := make([][]byte, len(run))
	for i, p := range run {
		if len(p) != 0 {
			out[i] = p
		}
	}
	return out
}

func nilEmptyIdx(idx []int64) []int64 {
	if len(idx) == 0 {
		return nil
	}
	return idx
}

func normalizedRequest(req request) request {
	req.Idx, req.Cts = nilEmptyIdx(req.Idx), nilEmptyRun(req.Cts)
	if len(req.Ops) == 0 {
		req.Ops = nil
	}
	for i, op := range req.Ops {
		if i == 0 {
			req.Ops = append([]store.BatchOp(nil), req.Ops...)
		}
		op.Idx, op.Cts = nilEmptyIdx(op.Idx), nilEmptyRun(op.Cts)
		req.Ops[i] = op
	}
	return req
}

func TestRequestRoundTripEveryKind(t *testing.T) {
	seen := map[store.Kind]bool{}
	for _, req := range codecRequests() {
		seen[req.Kind] = true
		body := appendRequest(nil, &req)
		var got request
		if err := decodeRequest(body, &got); err != nil {
			t.Fatalf("%s: %v", req.Kind, err)
		}
		if want := normalizedRequest(req); !reflect.DeepEqual(got, want) {
			t.Errorf("%s round trip:\n got %+v\nwant %+v", req.Kind, got, want)
		}
		if got, want := 1+uvarintLen(uint64(len(body)))+len(body), frameLen(&req); got != want {
			t.Errorf("%s: frame is %d bytes, closed form says %d", req.Kind, got, want)
		}
	}
	for k := store.Kind(0); k < store.NumKinds; k++ {
		if !seen[k] {
			t.Errorf("no round-trip case for %s", k)
		}
	}
	var req request
	err := decodeRequest(appendRequest(nil, &request{Op: store.Op{Kind: store.NumKinds}}), &req)
	if !errors.Is(err, wire.ErrMalformed) || !strings.Contains(err.Error(), "unknown request kind") {
		t.Errorf("a kind outside the table decoded: %v", err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for i, resp := range codecResponses() {
		var got response
		if err := decodeResponse(appendResponse(nil, &resp), &got); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		want := resp
		want.Cts = nilEmptyRun(want.Cts)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("response %d round trip:\n got %+v\nwant %+v", i, got, want)
		}
	}
	// What a successful write is answered with: version, length, no parts.
	if body := appendResponse(nil, &response{}); len(body) != 1 {
		t.Errorf("empty response body is %d bytes, want 1", len(body))
	}
}

// The closed form, written against the grammar in codec.go and not against
// the encoder: which fields each kind carries, in order.
var requestLayout = [store.NumKinds]string{
	store.KindCreateArray:  "name n",
	store.KindArrayLen:     "name",
	store.KindReadCells:    "name idx",
	store.KindWriteCells:   "name idx cts",
	store.KindCreateTree:   "name levels slots",
	store.KindReadPath:     "name leaf",
	store.KindWritePath:    "name leaf cts",
	store.KindWriteBuckets: "name n cts",
	store.KindDelete:       "name",
	store.KindReveal:       "name value",
	store.KindStats:        "",
	store.KindCheckpoint:   "value",
	store.KindBatch:        "ops",
	store.KindHello:        "name token value",
	store.KindReplicate:    "token value seq cts",
	store.KindSync:         "token value seq cts",
	store.KindPromote:      "token value",
	store.KindTraceDump:    "name token",
	store.KindRepair:       "token value name n idx",
}

func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

func varintLen(v int64) int {
	if v < 0 {
		return uvarintLen(^(uint64(v) << 1))
	}
	return uvarintLen(uint64(v) << 1)
}

func bytesLen(n int) int { return uvarintLen(uint64(n)) + n }

func idxLen(idx []int64) int {
	n, prev := uvarintLen(uint64(len(idx))), int64(0)
	for _, v := range idx {
		n += varintLen(v - prev)
		prev = v
	}
	return n
}

func runLen(run [][]byte) int {
	n := uvarintLen(uint64(len(run)))
	for _, p := range run {
		n += bytesLen(len(p))
	}
	return n
}

// frameLen is the length on the wire of req's frame: a function of the kind,
// the lengths of the name and token, the public scalars, the indices and the
// ciphertext lengths — and of nothing in the trace context.
func frameLen(req *request) int {
	body := 1 + otrace.WireSize + fieldsLen(req)
	return 1 + uvarintLen(uint64(body)) + body
}

// fieldsLen is the encoded size of req's fields after its header, in its
// kind's layout. A batched op is its flag byte and the fields of the
// operation it stands for.
func fieldsLen(req *request) (body int) {
	for _, field := range strings.Fields(requestLayout[req.Kind]) {
		switch field {
		case "name":
			body += bytesLen(len(req.Name))
		case "token":
			body += bytesLen(len(req.Token))
		case "n":
			body += varintLen(int64(req.N))
		case "levels":
			body += varintLen(int64(req.Levels))
		case "slots":
			body += varintLen(int64(req.Slots))
		case "value":
			body += varintLen(req.Value)
		case "seq":
			body += varintLen(req.Seq)
		case "leaf":
			body += uvarintLen(uint64(req.Leaf))
		case "idx":
			body += idxLen(req.Idx)
		case "cts":
			body += runLen(req.Cts)
		case "ops":
			body += uvarintLen(uint64(len(req.Ops)))
			for i := range req.Ops {
				body += 1 + fieldsLen(&request{Op: req.Ops[i].Op()})
			}
		}
	}
	return body
}

// discardConn is a connection end whose writes go nowhere.
type discardConn struct{ io.Reader }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

func TestCodecAllocations(t *testing.T) {
	reqs := codecRequests()
	fc := newFrameConn(discardConn{})
	send := func() {
		for i := range reqs {
			if err := fc.flush(appendRequest(fc.begin(), &reqs[i])); err != nil {
				t.Fatal(err)
			}
		}
	}
	send() // grow the buffer once
	if n := testing.AllocsPerRun(50, send); n != 0 {
		t.Errorf("steady-state encode of %d frames: %v allocations, want 0", len(reqs), n)
	}

	resps := codecResponses()
	body := appendResponse(nil, &resps[4]) // the 44-slot ReadPath answer
	if n := testing.AllocsPerRun(50, func() {
		var resp response
		if err := decodeResponse(body, &resp); err != nil || len(resp.Cts) != 44 {
			t.Fatal(err, len(resp.Cts))
		}
	}); n > 3 {
		t.Errorf("client decode of a 44-slot path: %v allocations, want at most 3", n)
	}
}

// TestResponseSlabDoesNotAliasFrame: what a client hands its caller must
// survive the next frame overwriting the connection's read buffer.
func TestResponseSlabDoesNotAliasFrame(t *testing.T) {
	resp := codecResponses()[4]
	body := appendResponse(nil, &resp)
	var got response
	if err := decodeResponse(body, &got); err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 0xEE
	}
	if !reflect.DeepEqual(got.Cts, resp.Cts) {
		t.Error("decoded ciphertexts changed when the frame buffer was overwritten")
	}
}

func TestFrameConnRoundTrip(t *testing.T) {
	var pipe bytes.Buffer
	fc := newFrameConn(&pipe)
	bodies := [][]byte{
		{1},
		bytes.Repeat([]byte{2}, readBufSize),   // the largest that is peeked
		bytes.Repeat([]byte{3}, readBufSize+1), // the smallest that spills
		bytes.Repeat([]byte{4}, 2*keepBuf+readBufSize), // grows in steps, buffers not kept
		{},
		{5, 6},
	}
	for _, b := range bodies {
		if err := fc.flush(append(fc.begin(), b...)); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range bodies {
		got, err := fc.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := fc.next(); err != io.EOF {
		t.Errorf("after the last frame: %v, want io.EOF", err)
	}
	if cap(fc.wbuf) > keepBuf || cap(fc.spill) > keepBuf {
		t.Errorf("connection kept a %d-byte encode and a %d-byte spill buffer", cap(fc.wbuf), cap(fc.spill))
	}
}

func TestFrameConnRefusals(t *testing.T) {
	next := func(stream []byte) error {
		_, err := newFrameConn(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(stream), io.Discard}).next()
		return err
	}
	// How a gob stream opens: a message length, then a type definition.
	if err := next([]byte{0x5c, 0x7f, 0x03, 0x01, 0x01, 0x07, 'r', 'e', 'q'}); !errors.Is(err, errFrameVersion) {
		t.Errorf("gob-era stream: %v, want errFrameVersion", err)
	}
	if err := next([]byte{frameVersion, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}); !errors.Is(err, wire.ErrMalformed) {
		t.Errorf("length beyond the bound: %v, want ErrMalformed", err)
	}
	for _, cut := range [][]byte{{frameVersion}, {frameVersion, 0x85}, {frameVersion, 5, 1, 2}} {
		if err := next(cut); err != io.ErrUnexpectedEOF {
			t.Errorf("stream cut at %v: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}

	// A frame that declares a gigabyte and delivers ten bytes costs about
	// ten bytes' worth of buffer, not a gigabyte.
	lie := append([]byte{frameVersion, 0x80, 0x80, 0x80, 0x80, 0x04}, make([]byte, 10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := next(lie)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Errorf("lying length: %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*keepBuf {
		t.Errorf("lying length allocated %d bytes", grew)
	}
}

// TestOldFormatPeerIsToldWhy: a peer that opens with anything but a version-1
// frame gets one answer saying so, and the connection is closed.
func TestOldFormatPeerIsToldWhy(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store.NewServer())
	go func() { _ = srv.Serve(l) }()
	defer srv.Shutdown(0)
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0x5c, 0x7f, 0x03, 0x01, 0x01, 0x07, 'r', 'e', 'q'}); err != nil {
		t.Fatal(err)
	}
	fc := newFrameConn(conn)
	body, err := fc.next()
	if err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := decodeResponse(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Err, "frame version 1") || !strings.Contains(resp.Err, "gob") {
		t.Errorf("refusal %q does not name the format", resp.Err)
	}
	if _, err := fc.next(); err != io.EOF {
		t.Errorf("connection after the refusal: %v, want io.EOF", err)
	}
}

// footprint bounds what decoding may have allocated: each list element (a
// 24-byte header, an 8-byte index, a batch op) took at least one input byte,
// and the bytes themselves are copied once.
func footprint(name, token string, idx []int64, cts [][]byte) int {
	n := len(name) + len(token) + 8*len(idx) + 24*len(cts)
	for _, ct := range cts {
		n += len(ct)
	}
	return n
}

func addMangled(f *testing.F, body []byte) {
	f.Add(body)
	flipped := append([]byte(nil), body...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add(body[:len(body)/2])
}

// TestPathBatchOpRefused: a batch op addresses cells by flat position or
// touches none (a create, a reveal), and a flag byte naming no such form —
// 2 and 3, the retired path forms, or one past the last form — is refused by
// name. The fixture is the fused ORAM round the golden file held while a
// batch op could also name a tree's path by leaf (flag bit 1): its first op,
// a path write, carries flag 3.
func TestPathBatchOpRefused(t *testing.T) {
	raw, err := os.ReadFile("testdata/path-batch-frame.txt")
	if err != nil {
		t.Fatal(err)
	}
	frame, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	body, err := newFrameConn(bytes.NewBuffer(frame)).next()
	if err != nil {
		t.Fatal(err)
	}
	type refused struct {
		flag byte
		body []byte
	}
	cases := []refused{{3, body}}
	for _, flag := range []byte{2, 3, 7, 0x81} {
		b := appendRequest(nil, &request{Op: store.Op{Kind: store.KindBatch, Ops: []store.BatchOp{{Name: "t", Idx: []int64{0, 1, 4}}}}})
		b[1+otrace.WireSize+1] = flag // after the kind, the context and the op count
		cases = append(cases, refused{flag, b})
	}
	for _, c := range cases {
		flag := fmt.Sprintf("batch op flag %d", c.flag)
		var req request
		if err := decodeRequest(c.body, &req); !errors.Is(err, wire.ErrMalformed) || !strings.Contains(err.Error(), flag) {
			t.Errorf("decoding a batch op with %s: %v, want ErrMalformed naming the flag", flag, err)
		}
	}
}

// FuzzDecodeRequest: any body either fails to decode or decodes to a request
// that survives a round trip; never a panic, never an allocation sized by a
// count or length the bytes present cannot back.
func FuzzDecodeRequest(f *testing.F) {
	for _, req := range codecRequests() {
		addMangled(f, appendRequest(nil, &req))
	}
	f.Add(append(appendRequest(nil, &request{Op: store.Op{Kind: store.KindReadCells}})[:1+otrace.WireSize], 0, 0xff, 0xff, 0xff, 0xff, 0x0f))
	// One batched op whose flag byte names no form: a retired path form, and
	// one past the last form.
	f.Add(append(appendRequest(nil, &request{Op: store.Op{Kind: store.KindBatch}})[:1+otrace.WireSize], 1, 2, 1, 't', 9))
	f.Add(append(appendRequest(nil, &request{Op: store.Op{Kind: store.KindBatch}})[:1+otrace.WireSize], 1, 7, 1, 't', 9))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req request
		if err := decodeRequest(body, &req); err != nil {
			if !errors.Is(err, wire.ErrMalformed) {
				t.Fatalf("decode error %v does not wrap ErrMalformed", err)
			}
			return
		}
		size := footprint(req.Name, req.Token, req.Idx, req.Cts)
		for _, op := range req.Ops {
			size += int(unsafe.Sizeof(op)) + footprint(op.Name, "", op.Idx, op.Cts)
		}
		// The densest decoding is a batch of empty ops: 88 bytes of BatchOp
		// for the 3 each takes on the wire.
		if size > 30*len(body) {
			t.Fatalf("%d-byte body decoded into %d bytes", len(body), size)
		}
		var again request
		if err := decodeRequest(appendRequest(nil, &req), &again); err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("round trip changed the request:\n got %+v\nwant %+v", again, req)
		}
	})
}

// FuzzDecodeResponse is FuzzDecodeRequest for the other direction.
func FuzzDecodeResponse(f *testing.F) {
	for _, resp := range codecResponses() {
		addMangled(f, appendResponse(nil, &resp))
	}
	f.Add([]byte{flagCts, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, body []byte) {
		var resp response
		if err := decodeResponse(body, &resp); err != nil {
			if !errors.Is(err, wire.ErrMalformed) {
				t.Fatalf("decode error %v does not wrap ErrMalformed", err)
			}
			return
		}
		if size := footprint(resp.Err, "", nil, resp.Cts); size > 25*len(body) {
			t.Fatalf("%d-byte body decoded into %d bytes", len(body), size)
		}
		var again response
		if err := decodeResponse(appendResponse(nil, &resp), &again); err != nil {
			t.Fatalf("re-encoded response does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, resp) {
			t.Fatalf("round trip changed the response:\n got %+v\nwant %+v", again, resp)
		}
	})
}

// BenchmarkFrameRoundTrip is the codec's share of one round trip, both
// directions, without a socket: encode into a connection's buffer, frame,
// read the frame back, decode. The two shapes are the ones the wire
// workloads are made of.
func BenchmarkFrameRoundTrip(b *testing.B) {
	path := codecResponses()[4] // 44 slots × 57 bytes ≈ 2.5 KB
	batch := request{Op: store.Op{Kind: store.KindBatch, Ops: make([]store.BatchOp, 2)}}
	batch.Ctx = otrace.SpanContext{}.Wire()
	for i := range batch.Ops {
		op := store.BatchOp{Write: true, Name: "db:sort:col1", Idx: make([]int64, 32), Cts: make([][]byte, 32)}
		for j := range op.Idx {
			op.Idx[j] = int64(64*i + j)
			op.Cts[j] = bytes.Repeat([]byte{byte(j)}, 45)
		}
		batch.Ops[i] = op
	}
	var pipe bytes.Buffer
	fc := newFrameConn(&pipe)

	b.Run("ReadPathResponse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := fc.flush(appendResponse(fc.begin(), &path)); err != nil {
				b.Fatal(err)
			}
			body, err := fc.next()
			if err != nil {
				b.Fatal(err)
			}
			var resp response
			if err := decodeResponse(body, &resp); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(frameBytes(appendResponse(nil, &path))))
	})
	b.Run("Batch64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := fc.flush(appendRequest(fc.begin(), &batch)); err != nil {
				b.Fatal(err)
			}
			body, err := fc.next()
			if err != nil {
				b.Fatal(err)
			}
			var req request
			if err := decodeRequest(body, &req); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(frameBytes(appendRequest(nil, &batch))))
	})
}

func frameBytes(body []byte) int { return 1 + uvarintLen(uint64(len(body))) + len(body) }

// BenchmarkLoopbackRTT is one whole round trip: a 32-cell ReadCells through
// a Client, a loopback socket and a Server into an in-memory store — first
// with no tracer at either end, then with an always-sampling otrace tracer
// on both and the calls made under a current root span, so every round trip
// records a client RPC span and a server span parented under it. The
// difference is what tracing costs per round trip; times a discovery's
// rounds, it is that discovery's tracing overhead at any n.
func BenchmarkLoopbackRTT(b *testing.B) {
	for _, name := range []string{"untraced", "traced"} {
		traced := name == "traced"
		b.Run(name, func(b *testing.B) {
			// Rings are preallocated here, outside the timed region, as a
			// long-lived process has them.
			newTracer := func(service string) *otrace.Tracer {
				if !traced {
					return nil
				}
				return otrace.New(otrace.Config{Service: service, Capacity: 1 << 14, SampleEvery: 1})
			}
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			srv := NewServer(store.NewServer())
			srv.SetTracer(newTracer("fdserver"))
			go func() { _ = srv.Serve(l) }()
			defer srv.Shutdown(0)
			cfg := DefaultClientConfig()
			cfg.Trace = newTracer("fdbench")
			c, err := DialWith(l.Addr().String(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			idx, cts := make([]int64, 32), make([][]byte, 32)
			for i := range idx {
				idx[i] = int64(i)
				cts[i] = bytes.Repeat([]byte{byte(i)}, 45)
			}
			if err := c.CreateArray("a", 32); err != nil {
				b.Fatal(err)
			}
			if err := c.WriteCells("a", idx, cts); err != nil {
				b.Fatal(err)
			}
			var before uint64
			if traced {
				root := cfg.Trace.StartRoot("discover")
				defer root.End()
				defer cfg.Trace.SetCurrent(cfg.Trace.SetCurrent(root.Context()))
				before = cfg.Trace.Recorded()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.ReadCells("a", idx); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if traced && cfg.Trace.Recorded()-before != uint64(b.N) {
				b.Fatalf("%d round trips recorded %d client spans", b.N, cfg.Trace.Recorded()-before)
			}
		})
	}
}
