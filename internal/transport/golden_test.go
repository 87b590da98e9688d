package transport

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/oblivfd/oblivfd/internal/store"
)

const goldenPath = "testdata/golden-frames.txt"

// goldenResponses is what a server answers each kind with, in the shapes the
// handlers produce: an acknowledgement, a count, ciphertexts, stats, a typed
// error, a replication position.
func goldenResponses() [store.NumKinds]response {
	cell := bytes.Repeat([]byte{0xC7}, 45)
	return [store.NumKinds]response{
		store.KindCreateArray:  {},
		store.KindArrayLen:     {Result: store.Result{N: 4096}},
		store.KindReadCells:    {Result: store.Result{Cts: [][]byte{cell, nil, cell}}},
		store.KindWriteCells:   {Err: "store: index out of range: array \"a\" index 9 (len 4)", Code: codeOutOfRange},
		store.KindCreateTree:   {Err: "store: object already exists: tree \"t\"", Code: codeObjectExists},
		store.KindReadPath:     {Result: store.Result{Cts: [][]byte{cell, cell, cell, cell}}},
		store.KindWritePath:    {Err: "store: malformed path payload: tree \"t\": got 3 slots, want 4", Code: codeBadPath},
		store.KindWriteBuckets: {Err: "store: disk full", Code: codeDiskFull},
		store.KindDelete:       {Err: "store: unknown object: \"a\"", Code: codeUnknownObject},
		store.KindReveal:       {Err: "store: transient fault: injected before Reveal (call 7)", Code: codeTransient},
		store.KindStats: {Result: store.Result{Stats: store.Stats{Objects: 3, StoredBytes: 1 << 33, FaultsInjected: 1, Retries: 2, Reconnects: 3,
			Epoch: 4, MutationsSinceEpoch: 5, Primary: true, Fence: 6, ReplicaLag: 7, Watermark: -1, Failovers: 8}}},
		store.KindCheckpoint: {Err: "store: server killed (crash injection)", Code: codeServerKilled},
		store.KindBatch:      {Result: store.Result{Cts: [][]byte{cell, cell, nil}}},
		store.KindHello:      {Err: "store: fenced by a newer primary epoch: client fence 2 below local 3", Code: codeFenced, Fence: 3},
		store.KindReplicate:  {Seq: 1<<40 + 2},
		store.KindSync:       {Err: "store: integrity verification failed: sync carries 2 snapshots, want 1", Code: codeIntegrity, Fence: 2, Seq: 17},
		store.KindPromote:    {Fence: 5},
		store.KindTraceDump:  {Result: store.Result{Cts: [][]byte{[]byte(`[{"name":"server/ReadCells"}]`)}}},
		store.KindRepair:     {Err: "store: not the primary", Code: codeNotPrimary, Fence: 4, Seq: -1},
	}
}

// goldenFrames renders every codecRequests case and one response per kind as
// whole frames (version, length, body), one labelled hex line each.
func goldenFrames(t *testing.T) string {
	var pipe bytes.Buffer
	fc := newFrameConn(&pipe)
	var out strings.Builder
	line := func(label string) {
		fmt.Fprintf(&out, "%s %s\n", label, hex.EncodeToString(pipe.Bytes()))
		pipe.Reset()
	}
	seen := map[store.Kind]bool{}
	for i, req := range codecRequests() {
		seen[req.Kind] = true
		if err := fc.flush(appendRequest(fc.begin(), &req)); err != nil {
			t.Fatal(err)
		}
		line(fmt.Sprintf("request/%02d/%s", i, req.Kind))
	}
	for k, resp := range goldenResponses() {
		if !seen[store.Kind(k)] {
			t.Errorf("no golden request frame for %s", store.Kind(k))
		}
		if err := fc.flush(appendResponse(fc.begin(), &resp)); err != nil {
			t.Fatal(err)
		}
		line("response/" + store.Kind(k).String())
	}
	return out.String()
}

// TestGoldenWireBytes pins the bytes on the wire, not just that encode and
// decode agree with each other: the file was written by the encoder as it
// stood before the request became a store.Op, and a slip that changes both
// directions alike — a reordered field, a renumbered kind — passes every
// round-trip and fuzz test but not this one. Lines are only ever appended (a
// new kind's frames, which this test prints ready to paste); changing one is a
// format change and goes with a frameVersion bump — unless it withdraws a form
// the decoder then refuses by name, whose old line is kept as a refusal
// fixture (TestPathBatchOpRefused).
func TestGoldenWireBytes(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		label, frame, _ := strings.Cut(line, " ")
		want[label] = frame
	}
	have := strings.Split(strings.TrimSpace(goldenFrames(t)), "\n")
	for _, line := range have {
		label, frame, _ := strings.Cut(line, " ")
		switch golden, ok := want[label]; {
		case !ok:
			t.Errorf("no golden bytes for this frame; if it is a new kind's, append to %s:\n%s", goldenPath, line)
		case frame != golden:
			t.Errorf("%s differs from the golden bytes:\n got %s\nwant %s", label, frame, golden)
		}
		delete(want, label)
	}
	for label := range want {
		t.Errorf("golden frame %s is no longer encoded", label)
	}
}

// TestWireNumbering: the numbers themselves are the format. A kind or an
// error code inserted mid-list renumbers its successors, and both ends of a
// mixed-version pair would then agree on nothing while each passes its own
// tests.
func TestWireNumbering(t *testing.T) {
	kinds := [...]store.Kind{
		0: store.KindCreateArray, 1: store.KindArrayLen, 2: store.KindReadCells, 3: store.KindWriteCells,
		4: store.KindCreateTree, 5: store.KindReadPath, 6: store.KindWritePath, 7: store.KindWriteBuckets,
		8: store.KindDelete, 9: store.KindReveal, 10: store.KindStats, 11: store.KindCheckpoint, 12: store.KindBatch,
		13: store.KindHello, 14: store.KindReplicate, 15: store.KindSync, 16: store.KindPromote,
		17: store.KindTraceDump, 18: store.KindRepair, 19: store.NumKinds,
	}
	for want, k := range kinds {
		if int(k) != want {
			t.Errorf("%s is %d on the wire, want %d", k, k, want)
		}
	}
	codes := [...]errCode{
		0: codeOK, 1: codeGeneric, 2: codeUnknownObject, 3: codeObjectExists,
		4: codeOutOfRange, 5: codeBadPath, 6: codeTransient, 7: codeCorruptSnapshot,
		8: codeCorruptWAL, 9: codeServerKilled, 10: codeNoSuchEpoch, 11: codeIntegrity,
		12: codeOverloaded, 13: codeUnauthorized, 14: codeNotPrimary, 15: codeFenced,
		16: codeDiskFull,
	}
	for want, c := range codes {
		if int(c) != want {
			t.Errorf("error code %d is %d on the wire", want, c)
		}
	}
	if len(codeSentinel) != len(codes)-2 || len(sentinelCodes) != len(codes)-2 {
		t.Errorf("%d codes map to sentinels and %d sentinels to codes, want %d each (every code but OK and generic)",
			len(codeSentinel), len(sentinelCodes), len(codes)-2)
	}
}
