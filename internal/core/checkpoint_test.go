package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/oblivfd/oblivfd/internal/baseline"
	"github.com/oblivfd/oblivfd/internal/oram"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/trace"
)

// ckptRelation returns a small relation with a known FD structure.
func ckptRelation(t testing.TB) *relation.Relation {
	t.Helper()
	schema, err := relation.NewSchema("A", "B", "C", "D")
	if err != nil {
		t.Fatal(err)
	}
	rows := []relation.Row{
		{"a1", "b1", "c1", "d1"},
		{"a1", "b1", "c2", "d1"},
		{"a2", "b2", "c1", "d1"},
		{"a2", "b2", "c3", "d2"},
		{"a3", "b1", "c2", "d2"},
		{"a3", "b1", "c1", "d1"},
		{"a4", "b2", "c3", "d2"},
		{"a4", "b2", "c2", "d1"},
	}
	rel, err := relation.FromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// TestCheckpointFileRoundTrip covers the framed file format: write, read
// back, then verify truncations and bit flips are rejected as
// ErrCorruptCheckpoint, never a panic.
func TestCheckpointFileRoundTrip(t *testing.T) {
	eng, edb := openFor[*OrEngine](t, nil, ProtocolORAM, ckptRelation(t), opts{name: "ckpt-test"})
	if _, err := CardinalitySingle(eng, 0); err != nil {
		t.Fatal(err)
	}
	cp := &Checkpoint{
		Epoch:  1,
		EDB:    edb.State(),
		Engine: CaptureState(eng),
		Lattice: &LatticeState{
			M:             4,
			NextLevel:     1,
			Cardinalities: []SetCard{{relation.SingleAttr(0), 4}},
		},
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := WriteCheckpointFile(path, cp); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 1 || got.EDB.Name != "ckpt-test" || got.Engine.Kind != ProtocolORAM.String() {
		t.Errorf("round trip: %+v", got)
	}
	if got.EDB.Key != cp.EDB.Key {
		t.Error("encryption key did not survive the round trip")
	}
	if !reflect.DeepEqual(got.Lattice, cp.Lattice) {
		t.Errorf("lattice state = %+v, want %+v", got.Lattice, cp.Lattice)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut += 7 {
		tmp := filepath.Join(t.TempDir(), "trunc.ckpt")
		if err := os.WriteFile(tmp, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpointFile(tmp); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("truncation at %d: err = %v, want ErrCorruptCheckpoint", cut, err)
		}
	}
	for i := 0; i < len(data); i += 11 {
		tmp := filepath.Join(t.TempDir(), "flip.ckpt")
		mutated := append([]byte(nil), data...)
		mutated[i] ^= 0x20
		if err := os.WriteFile(tmp, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpointFile(tmp); err == nil {
			t.Fatalf("byte %d flipped: checkpoint accepted", i)
		}
	}
}

// requireRetiredCheckpointRefused: a checkpoint in a format this build no
// longer reads is refused before anything is decoded, with an error naming the
// magic found, the one this build reads, and whatever else also lists.
func requireRetiredCheckpointRefused(t *testing.T, file, magic string, also ...string) {
	t.Helper()
	_, err := ReadCheckpointFile(filepath.Join("testdata", file))
	if !errors.Is(err, ErrCorruptCheckpoint) {
		t.Errorf("%s: ReadCheckpointFile = %v, want ErrCorruptCheckpoint", file, err)
		return
	}
	for _, want := range append([]string{magic, string(checkpointMagic[:])}, also...) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not mention %q", file, err, want)
		}
	}
}

// TestPerBlockEraCheckpointIsRefused: pre-bucket-seal.ckpt (OFDCKPT1) was
// written at commit 53bc857 by `fddiscover -protocol or-oram -data-dir d
// -checkpoint f` over an 8×3 relation; its trees hold levels×Z block
// ciphertexts where PathORAM now keeps one per bucket.
func TestPerBlockEraCheckpointIsRefused(t *testing.T) {
	requireRetiredCheckpointRefused(t, "pre-bucket-seal.ckpt", "OFDCKPT1")
}

// TestScanORAMCheckpointIsRefused: scan-oram.ckpt (OFDCKPT2) was written at
// commit 56f5a87 by securefd.DiscoverResumable with the scan ORAM; gob would
// decode its states to ones with nothing in them.
func TestScanORAMCheckpointIsRefused(t *testing.T) {
	requireRetiredCheckpointRefused(t, "scan-oram.ckpt", "OFDCKPT2")
}

// TestMapEraCheckpointIsRefused: pr18/parent-{or,ex}.ckpt (OFDCKPT2) were
// written by commit 76ffe46, with ORAM client state kept as three maps; gob
// would decode them to slot-native states with nothing in them.
func TestMapEraCheckpointIsRefused(t *testing.T) {
	for _, file := range []string{"pr18/parent-or.ckpt", "pr18/parent-ex.ckpt"} {
		requireRetiredCheckpointRefused(t, file, "OFDCKPT2")
	}
}

// TestIDORAMCheckpointIsRefused: pr31/or.ckpt (OFDCKPT3) was written at
// commit a6b2aef, the last to run Algorithms 1 and 2 with O^IL an ORAM. Its
// magic is refused since trees were halved (TestFullTreeCheckpointIsRefused);
// its payload still reads as this build's, but its sets carry an ID ORAM's
// client state where this build keeps a label array: resuming it is refused,
// by name.
func TestIDORAMCheckpointIsRefused(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "pr31", "or.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := decodeCheckpoint(data[8+8+4:]) // past magic, length and CRC
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = ResumeEngine(store.NewServer(), cp, nil)
	if !errors.Is(err, ErrCorruptCheckpoint) || !strings.Contains(err.Error(), "a6b2aef") {
		t.Errorf("ResumeEngine = %v, want ErrCorruptCheckpoint naming commit a6b2aef", err)
	}
}

// errSimulatedCrash aborts a discovery run from inside the checkpoint
// callback once the requested level boundary is reached, after the full
// checkpoint is captured the way securefd.DiscoverResumable does.
var errSimulatedCrash = errors.New("simulated client crash")

// TestDiscoverResumeMatchesFullRun is the client-side recovery core, for every
// resumable row, keeping partitions and not, on one worker and two: crash at
// every level boundary, resume from the captured checkpoint on the same
// server, and require the uninterrupted run's FD set, counters and
// cardinalities — and, from the epoch on, what the server sees of each
// structure. The runs end with what a keep-on caller may ask of the
// partitions left (reread), so a resumed set that forgot what its run had done
// to it shows there.
func TestDiscoverResumeMatchesFullRun(t *testing.T) {
	rel := ckptRelation(t)
	m := rel.NumAttrs()
	for _, p := range rows(resumable) {
		for _, keep := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%v/keep=%t/workers=%d", p, keep, workers), func(t *testing.T) {
					o := opts{workers: workers}
					// The uninterrupted run, its trace cut at each boundary.
					srv := store.NewServer()
					srv.Trace().Enable()
					eng, _ := openFor[Engine](t, srv, p, rel, o)
					var cuts []int
					want, err := Discover(eng, m, &Options{KeepPartitions: keep, Checkpoint: func(ls *LatticeState) error {
						cuts = append(cuts, len(srv.Trace().Events()))
						return nil
					}})
					if err != nil {
						t.Fatal(err)
					}
					reread(t, eng, want)
					full := srv.Trace().Events()
					if len(cuts) < 2 {
						t.Fatalf("test relation yields %d level boundaries; need ≥ 2 to exercise resume", len(cuts))
					}
					for i, cut := range cuts {
						crashAt := i + 1 // the level the resumed run starts at
						cp, eng2, svc := crashBefore(t, p, rel, o, Options{KeepPartitions: keep}, crashAt)
						svc.Trace().Reset()
						svc.Trace().Enable()
						got, err := Discover(eng2, m, &Options{Resume: cp.Lattice})
						if err != nil {
							t.Fatalf("crash %d: resumed Discover: %v", crashAt, err)
						}
						reread(t, eng2, got)
						if !relation.FDSetEqual(got.Minimal, want.Minimal) {
							t.Errorf("crash %d: resumed FDs = %v, want %v", crashAt, got.Minimal, want.Minimal)
						}
						if got.SetsMaterialized != want.SetsMaterialized || got.Checks != want.Checks {
							t.Errorf("crash %d: counters = %d sets/%d checks, want %d/%d",
								crashAt, got.SetsMaterialized, got.Checks, want.SetsMaterialized, want.Checks)
						}
						for x, card := range want.Cardinalities {
							if got.Cardinalities[x] != card {
								t.Errorf("crash %d: |π_%v| = %d, want %d", crashAt, x, got.Cardinalities[x], card)
							}
						}
						a := trace.ShapeOf(full[cut:]).CanonicalPerStructure()
						b := trace.ShapeOf(svc.Trace().Events()).CanonicalPerStructure()
						if !a.Equal(b) {
							t.Errorf("crash %d: from the epoch on, the resumed run shows the server %d events, the uninterrupted one %d, per structure not the same",
								crashAt, len(b), len(a))
						}
					}
				})
			}
		}
	}
}

// reread asks eng, once a discovery is over, for π_{X∪Y} of every two sets X
// and Y it still holds, neither holding the other, each pair read as a
// Property 1 cover: what a caller that kept the partitions may ask of them.
func reread(t *testing.T, eng Engine, res *Result) {
	t.Helper()
	var held []relation.AttrSet
	for x := range res.Cardinalities {
		if _, ok := eng.Cardinality(x); ok {
			held = append(held, x)
		}
	}
	sortSets(held)
	for i, x := range held {
		for _, y := range held[i+1:] {
			if u := x.Union(y); u != x && u != y {
				if _, err := CardinalityUnion(eng, x, y); err != nil {
					t.Fatalf("π of %v ∪ %v: %v", x, y, err)
				}
			}
		}
	}
}

// crashAfterLevel1 runs row p's discovery of rel with opts until its first
// checkpoint — the singletons built — and returns the checkpoint and a fresh
// engine resumed from it on the same server.
func crashAfterLevel1(t *testing.T, p Protocol, rel *relation.Relation, o Options) (*Checkpoint, Engine) {
	t.Helper()
	cp, eng, _ := crashBefore(t, p, rel, opts{}, o, 1)
	return cp, eng
}

// crashBefore runs row p's discovery of rel, its engine opened with eo, with
// opts o until its checkpoint before level next, and returns the checkpoint, a
// fresh engine resumed from it and the server both share.
func crashBefore(t *testing.T, p Protocol, rel *relation.Relation, eo opts, o Options, next int) (*Checkpoint, Engine, *store.Server) {
	t.Helper()
	svc := store.NewServer()
	eng, edb := openFor[Engine](t, svc, p, rel, eo)
	var cp *Checkpoint
	o.Checkpoint = func(ls *LatticeState) error {
		if ls.NextLevel < next {
			return nil
		}
		epoch := int64(ls.NextLevel)
		if err := svc.Checkpoint(epoch); err != nil {
			return err
		}
		cp = &Checkpoint{Epoch: epoch, EDB: edb.State(), Engine: CaptureState(eng), Lattice: ls}
		return errSimulatedCrash
	}
	if _, err := Discover(eng, rel.NumAttrs(), &o); !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("Discover err = %v, want simulated crash", err)
	}
	if cp.Lattice.NextLevel != next {
		t.Fatalf("checkpoint at level %d, want %d", cp.Lattice.NextLevel, next)
	}
	// Same server: its state is exactly the epoch's, nothing mutated since
	// the callback.
	if err := VerifyEpoch(svc, cp.Epoch); err != nil {
		t.Fatal(err)
	}
	eng2, _, _, err := ResumeEngine(svc, cp, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cp, eng2, svc
}

// TestResumeWithoutKeepingReleasesTheRest: a keep-on checkpoint holds every
// set its run built, not only its level. Resumed without keeping, the run
// releases the rest before its first check, and when Discover returns the
// server holds the database's column arrays alone.
func TestResumeWithoutKeepingReleasesTheRest(t *testing.T) {
	rel := ckptRelation(t)
	for _, p := range rows(resumable) {
		t.Run(p.String(), func(t *testing.T) {
			cp, eng, svc := crashBefore(t, p, rel, opts{}, Options{KeepPartitions: true}, 3)
			cp.Lattice.KeepPartitions = false
			got, err := Discover(eng, rel.NumAttrs(), &Options{Resume: cp.Lattice})
			if err != nil {
				t.Fatal(err)
			}
			if want := baseline.MinimalFDs(rel); !relation.FDSetEqual(got.Minimal, want) {
				t.Errorf("resumed FDs = %v, want %v", got.Minimal, want)
			}
			if st, _ := svc.Stats(); st.Objects != rel.NumAttrs() {
				t.Errorf("after the resumed Discover the server holds %d objects, want the %d column arrays", st.Objects, rel.NumAttrs())
			}
		})
	}
}

// TestResumeLeavesOptionsAlone: a resumed run takes MaxLHS and KeepPartitions
// from the state and writes neither into the caller's Options.
func TestResumeLeavesOptionsAlone(t *testing.T) {
	rel := ckptRelation(t)
	want, err := Discover(oracle(rel), rel.NumAttrs(), &Options{MaxLHS: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rows(resumable) {
		t.Run(p.String(), func(t *testing.T) {
			cp, eng := crashAfterLevel1(t, p, rel, Options{MaxLHS: 2, KeepPartitions: true})
			opts := &Options{Resume: cp.Lattice}
			got, err := Discover(eng, rel.NumAttrs(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if !relation.FDSetEqual(got.Minimal, want.Minimal) {
				t.Errorf("resumed FDs = %v, want the MaxLHS = 2 run's %v", got.Minimal, want.Minimal)
			}
			if opts.MaxLHS != 0 || opts.KeepPartitions {
				t.Errorf("after the resumed run the caller's Options read MaxLHS %d, KeepPartitions %t; it passed 0, false",
					opts.MaxLHS, opts.KeepPartitions)
			}
		})
	}
}

// TestResumeRefusesUnbackedCardinality: a checkpoint whose CRC holds but whose
// Cardinalities lack or misstate a frontier set's |π_X| would have the
// resumed run decide on a number no partition backs — here {A,C}→B, {A,C}→D
// and {A,D}→B instead of A→B and {A,C}→D, with no error. It is refused.
func TestResumeRefusesUnbackedCardinality(t *testing.T) {
	rel := ckptRelation(t)
	a := relation.SingleAttr(0)
	for name, edit := range map[string]func([]SetCard) []SetCard{
		"dropped": func(cs []SetCard) []SetCard {
			return slices.DeleteFunc(cs, func(c SetCard) bool { return c.Set == a })
		},
		"misstated": func(cs []SetCard) []SetCard {
			for i := range cs {
				if cs[i].Set == a {
					cs[i].Card--
				}
			}
			return cs
		},
	} {
		t.Run(name, func(t *testing.T) {
			for _, p := range rows(resumable) {
				t.Run(p.String(), func(t *testing.T) {
					cp, eng := crashAfterLevel1(t, p, rel, Options{KeepPartitions: true})
					cp.Lattice.Cardinalities = edit(cp.Lattice.Cardinalities)
					res, err := Discover(eng, rel.NumAttrs(), &Options{Resume: cp.Lattice})
					if !errors.Is(err, ErrCorruptCheckpoint) {
						t.Fatalf("resumed Discover = %v, %v; want ErrCorruptCheckpoint", res, err)
					}
				})
			}
		})
	}
}

// TestResumeReplaysParentFrontier: an OFDCKPT5 file held, beside the
// cardinalities, the copies the plan derives from them — the level, the level
// below, C⁺, the FDs found so far and two counters — and a file whose CRC held
// but whose copies disagreed with its cardinalities resumed to whatever the
// copies said. Here the first checkpoint is framed by hand in that format with
// a bogus FD among the found ones, one singleton's C⁺ emptied and the level
// cut short; the resumed run reads only the answers and finds the relation's
// FDs.
func TestResumeReplaysParentFrontier(t *testing.T) {
	rel := ckptRelation(t)
	for _, p := range rows(resumable) {
		t.Run(p.String(), func(t *testing.T) {
			cp, eng := crashAfterLevel1(t, p, rel, Options{})
			type parentLattice struct {
				M, NextLevel                     int
				Level, PrevLevel                 []relation.AttrSet
				CPlus                            [][2]relation.AttrSet
				Minimal                          []relation.FD
				Cardinalities                    []SetCard
				SetsMaterialized, Checks, MaxLHS int
				KeepPartitions                   bool
			}
			a, b := relation.SingleAttr(0), relation.SingleAttr(1)
			parent := struct {
				Epoch   int64
				EDB     *EDBState
				Engine  *EngineState
				Lattice *parentLattice
			}{cp.Epoch, cp.EDB, cp.Engine, &parentLattice{
				M:                cp.Lattice.M,
				NextLevel:        cp.Lattice.NextLevel,
				Level:            relation.AllSingletons(rel.NumAttrs() - 1),
				CPlus:            [][2]relation.AttrSet{{0, relation.FullSet(rel.NumAttrs())}, {a, 0}},
				Minimal:          []relation.FD{{LHS: b, RHS: a}},
				Cardinalities:    cp.Lattice.Cardinalities,
				SetsMaterialized: rel.NumAttrs(),
				MaxLHS:           cp.Lattice.MaxLHS,
				KeepPartitions:   cp.Lattice.KeepPartitions,
			}}
			var payload bytes.Buffer
			if err := gob.NewEncoder(&payload).Encode(parent); err != nil {
				t.Fatal(err)
			}
			file := binary.LittleEndian.AppendUint64([]byte("OFDCKPT5"), uint64(payload.Len()))
			file = binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(payload.Bytes()))
			read, err := readCheckpoint(bytes.NewReader(append(file, payload.Bytes()...)))
			if err != nil {
				t.Fatal(err)
			}
			got, err := Discover(eng, rel.NumAttrs(), &Options{Resume: read.Lattice})
			if err != nil {
				t.Fatal(err)
			}
			if want := baseline.MinimalFDs(rel); !relation.FDSetEqual(got.Minimal, want) {
				t.Errorf("resumed FDs = %v, want %v", got.Minimal, want)
			}
		})
	}
}

// TestResumeEpochMismatch: mutating the server after the epoch mark must make
// VerifyEpoch refuse — resuming ORAM client state against drifted server
// state would silently corrupt partitions.
func TestResumeEpochMismatch(t *testing.T) {
	svc := store.NewServer()
	if err := svc.CreateArray("x", 2); err != nil {
		t.Fatal(err)
	}
	if err := svc.Checkpoint(3); err != nil {
		t.Fatal(err)
	}
	if err := VerifyEpoch(svc, 3); err != nil {
		t.Fatalf("clean epoch rejected: %v", err)
	}
	if err := VerifyEpoch(svc, 2); !errors.Is(err, ErrEpochMismatch) {
		t.Errorf("wrong epoch = %v, want ErrEpochMismatch", err)
	}
	if err := svc.WriteCells("x", []int64{0}, [][]byte{{1}}); err != nil {
		t.Fatal(err)
	}
	if err := VerifyEpoch(svc, 3); !errors.Is(err, ErrEpochMismatch) {
		t.Errorf("mutated-since-epoch = %v, want ErrEpochMismatch", err)
	}
}

// TestResumeExEngine exercises the dynamic engine's checkpoint path,
// including continued mutations after resume.
func TestResumeExEngine(t *testing.T) {
	rel := ckptRelation(t)
	m := rel.NumAttrs()
	svc := store.NewServer()
	eng, edb := openFor[Engine](t, svc, ProtocolDynamicORAM, rel, opts{headroom: 4})
	// Dynamic use keeps partitions; discover fully, then checkpoint.
	want, err := Discover(eng, m, &Options{KeepPartitions: true})
	if err != nil {
		t.Fatal(err)
	}
	st := CaptureState(eng)
	if st.Kind != ProtocolDynamicORAM.String() {
		t.Fatalf("kind = %q", st.Kind)
	}

	resumed, _, _, err := ResumeEngine(svc, &Checkpoint{EDB: edb.State(), Engine: st}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng2 := resumed.(*ExEngine)
	if eng2.NumRows() != eng.NumRows() {
		t.Errorf("resumed rows = %d, want %d", eng2.NumRows(), eng.NumRows())
	}
	for x, card := range want.Cardinalities {
		got, ok := eng2.Cardinality(x)
		if !ok || got != card {
			t.Errorf("resumed |π_%v| = %d (ok %v), want %d", x, got, ok, card)
		}
	}
	// The resumed engine supports the dynamic protocol end to end.
	id, err := eng2.Insert(relation.Row{"a9", "b9", "c9", "d9"})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Delete(id); err != nil {
		t.Fatal(err)
	}
}

// TestResumeEngineKindMismatch: a checkpoint resumes only as an engine this
// build has, only over the rows its dead ids can name, and a Sort state only
// with no dead ids and every set an array at a cardinality in [1, n].
func TestResumeEngineKindMismatch(t *testing.T) {
	svc := store.NewServer()
	_, edb := openFor[Engine](t, svc, ProtocolORAM, ckptRelation(t), opts{})
	a, sort := relation.SingleAttr(0), ProtocolSort.String()
	for _, es := range []*EngineState{
		{Kind: "bogus"},
		{Kind: ProtocolDeterministic.String()},
		{Kind: sort, Dead: []int{0}},
		{Kind: sort, Sets: []SetState{{Set: a, Card: 1}}},
		{Kind: sort, Sets: []SetState{{Set: a, Card: 0, Labels: "t:1:B"}}},
		{Kind: sort, Sets: []SetState{{Set: a, Card: uint64(edb.NumRows()) + 1, Labels: "t:1:B"}}},
		{Kind: ProtocolORAM.String(), Dead: []int{edb.NumRows()}},
		{Kind: ProtocolDynamicORAM.String(), Dead: []int{-1}},
		{Kind: ProtocolDynamicORAM.String(), Dead: []int{2, 1}},
		{Kind: ProtocolORAM.String(), Dead: []int{3, 3}},
	} {
		if _, _, _, err := ResumeEngine(svc, &Checkpoint{EDB: edb.State(), Engine: es}, nil); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Errorf("%+v: err = %v, want ErrCorruptCheckpoint", es, err)
		}
		if p, err := ParseProtocol(es.Kind); err == nil && resumable(p) {
			if e, err := protocols[p].resume(edb, es, nil); e != nil || err == nil {
				t.Errorf("%+v: the %v row resumes a %T beside err = %v, want a nil engine and an error", es, p, e, err)
			}
		}
	}
}

// FuzzDecodeCheckpoint: the decoder behind readCheckpoint, past the CRC,
// either refuses a payload with an error wrapping ErrCorruptCheckpoint or
// returns a checkpoint that survives writeCheckpoint → readCheckpoint
// unchanged, and whose lattice resumePlan, over ckptRelation's plaintext
// cardinalities, replays to a plan or refuses with ErrCorruptCheckpoint;
// neither ever panics. Seeded with real Or- and Ex-ORAM checkpoints
// (whole, bit-flipped and cut) and the payloads of every fixture under
// testdata, the refused formats' included.
func FuzzDecodeCheckpoint(f *testing.F) {
	const header = 8 + 8 + 4 // magic, payload length, CRC
	for _, cp := range fuzzCheckpoints(f) {
		var buf bytes.Buffer
		if err := writeCheckpoint(&buf, cp); err != nil {
			f.Fatal(err)
		}
		payload := buf.Bytes()[header:]
		f.Add(payload)
		for i := 0; i < len(payload); i += len(payload)/16 + 1 {
			flipped := bytes.Clone(payload)
			flipped[i] ^= 0x40
			f.Add(flipped)
		}
		for _, cut := range []int{0, 1, len(payload) / 4, len(payload) / 2, len(payload) - 1} {
			f.Add(payload[:cut])
		}
	}
	for _, file := range []string{"pre-bucket-seal.ckpt", "scan-oram.ckpt", "pr18/parent-or.ckpt", "pr18/parent-ex.ckpt", "pr31/or.ckpt", "pr31/ex.ckpt", "label-array/or.ckpt", "half-tree/or.ckpt", "half-tree/ex.ckpt", "narrow-blocks/or.ckpt", "narrow-blocks/ex.ckpt"} {
		data, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data[header:])
	}
	rel := ckptRelation(f)
	f.Fuzz(func(t *testing.T, payload []byte) {
		cp, err := decodeCheckpoint(payload)
		if err != nil {
			if !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("error does not wrap ErrCorruptCheckpoint: %v", err)
			}
			return
		}
		if _, err := resumePlan(cp.Lattice, rel.NumAttrs(), rel.NumRows(), plaintextCards(rel)); err != nil && !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("replay error does not wrap ErrCorruptCheckpoint: %v", err)
		}
		var buf bytes.Buffer
		if err := writeCheckpoint(&buf, cp); err != nil {
			t.Fatal(err)
		}
		again, err := readCheckpoint(&buf)
		if err != nil {
			t.Fatalf("a decoded checkpoint does not read back: %v", err)
		}
		if !reflect.DeepEqual(cp, again) {
			t.Fatalf("round trip changed the checkpoint:\n%+v\n%+v", cp, again)
		}
	})
}

// fuzzCheckpoints returns a checkpoint of every resumable row taken after a
// full discovery that kept its partitions and, for an ORAM row, an insertion
// (and, in Ex, the deletion of the inserted record), so the ORAM ones carry
// slots, stashes, unions and the Ex one a dead id, and the Sort one arrays in
// both orders.
func fuzzCheckpoints(f *testing.F) []*Checkpoint {
	rel := ckptRelation(f)
	var cps []*Checkpoint
	for _, p := range rows(resumable) {
		eng, edb := openFor[Engine](f, nil, p, rel, opts{name: "fuzz", workers: 2, headroom: 1})
		var ls *LatticeState
		if _, err := Discover(eng, rel.NumAttrs(), &Options{KeepPartitions: true, Checkpoint: func(s *LatticeState) error { ls = s; return nil }}); err != nil {
			f.Fatal(err)
		}
		if ins, ok := eng.(inserter); ok {
			id, err := ins.Insert(relation.Row{"a9", "b9", "c9", "d9"})
			if dyn, ok := eng.(DynamicEngine); ok && err == nil {
				err = dyn.Delete(id)
			}
			if err != nil {
				f.Fatal(err)
			}
		}
		cps = append(cps, &Checkpoint{Epoch: 1, EDB: edb.State(), Engine: CaptureState(eng), Lattice: ls})
	}
	return cps
}

// TestResumableRowsRoundTrip pins the table's resume column to the engines:
// over every row, after a discovery that kept its partitions, an engine of a
// row with the column captures a state that resumes to an engine capturing
// the same state again, and an engine of a row without it captures nothing.
func TestResumableRowsRoundTrip(t *testing.T) {
	rel := ckptRelation(t)
	for _, p := range rows(everyRow) {
		t.Run(p.String(), func(t *testing.T) {
			svc := store.NewServer()
			eng, edb := openFor[Engine](t, svc, p, rel, opts{workers: 2})
			if _, err := Discover(eng, rel.NumAttrs(), &Options{KeepPartitions: true}); err != nil {
				t.Fatal(err)
			}
			if _, ok := eng.(stateful); ok != resumable(p) {
				t.Fatalf("the engine captures a state: %t; the row has a resume column: %t", ok, resumable(p))
			}
			if !resumable(p) {
				return
			}
			es := CaptureState(eng)
			if es.Kind != p.String() || len(es.Sets) == 0 {
				t.Fatalf("captured kind %q with %d sets, want %q with every kept set", es.Kind, len(es.Sets), p)
			}
			resumed, _, got, err := ResumeEngine(svc, &Checkpoint{EDB: edb.State(), Engine: es}, nil)
			if err != nil || got != p {
				t.Fatalf("ResumeEngine = %v, %v; want the %v row's engine", got, err, p)
			}
			// A capture draws each ORAM's next leaf-choice seed afresh.
			again := CaptureState(resumed)
			for _, st := range [][]SetState{es.Sets, again.Sets} {
				for _, s := range st {
					for _, o := range []*oram.State{s.Primary, s.Secondary} {
						if o != nil {
							o.Seed = 0
						}
					}
				}
			}
			if !reflect.DeepEqual(again, es) {
				t.Errorf("capture → resume → capture:\n%+v\nwant\n%+v", again, es)
			}
		})
	}
}
