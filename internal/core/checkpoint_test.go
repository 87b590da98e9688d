package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
)

// ckptRelation returns a small relation with a known FD structure.
func ckptRelation(t *testing.T) *relation.Relation {
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

func ckptUpload(t *testing.T, svc store.Service, rel *relation.Relation) *EncryptedDB {
	t.Helper()
	edb, err := Upload(svc, crypto.MustNewCipher(crypto.MustNewKey()), "ckpt-test", rel)
	if err != nil {
		t.Fatal(err)
	}
	return edb
}

// TestCheckpointFileRoundTrip covers the framed file format: write, read
// back, then verify truncations and bit flips are rejected as
// ErrCorruptCheckpoint, never a panic.
func TestCheckpointFileRoundTrip(t *testing.T) {
	svc := store.NewServer()
	rel := ckptRelation(t)
	edb := ckptUpload(t, svc, rel)
	eng := NewOrEngine(edb)
	if _, err := CardinalitySingle(eng, 0); err != nil {
		t.Fatal(err)
	}
	cp := &Checkpoint{
		Epoch:  1,
		EDB:    edb.State(),
		Engine: eng.CheckpointState(),
		Lattice: &LatticeState{
			M:         4,
			NextLevel: 1,
			Level:     relation.AllSingletons(4),
			CPlus:     map[relation.AttrSet]relation.AttrSet{0: relation.FullSet(4)},
			Cardinalities: map[relation.AttrSet]int{
				relation.SingleAttr(0): 4,
			},
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
	if got.Epoch != 1 || got.EDB.Name != "ckpt-test" || got.Engine.Kind != engineKindOr {
		t.Errorf("round trip: %+v", got)
	}
	if got.EDB.Key != cp.EDB.Key {
		t.Error("encryption key did not survive the round trip")
	}
	if len(got.Lattice.Level) != 4 {
		t.Errorf("lattice frontier = %v", got.Lattice.Level)
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

// TestPerBlockEraCheckpointIsRefused: a checkpoint written by the last build
// whose PathORAM sealed every block separately (testdata, generated at commit
// 53bc857 by `fddiscover -protocol or-oram -data-dir d -checkpoint f` over an
// 8×3 relation; it holds six live PathORAM states) is refused before anything
// is decoded, with an error naming both formats. Its server-side trees hold
// levels×Z block ciphertexts where this build expects one per bucket, so
// resuming it could only fail later and less clearly, in the first access.
func TestPerBlockEraCheckpointIsRefused(t *testing.T) {
	_, err := ReadCheckpointFile(filepath.Join("testdata", "pre-bucket-seal.ckpt"))
	if !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("ReadCheckpointFile = %v, want ErrCorruptCheckpoint", err)
	}
	for _, want := range []string{"OFDCKPT1", "OFDCKPT2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestScanORAMCheckpointIsRefused: a checkpoint whose ORAM states are the scan
// ORAM's (testdata, generated at commit 56f5a87 by securefd.DiscoverResumable
// with Options{Protocol: ProtocolORAM, ORAM: ORAMLinear, KeepPartitions: true}
// over an 8×3 relation; six sets) carries the current magic, and gob would
// decode it to states with nothing in them. It is refused when read, with an
// error that says what it was written for and which commit can still resume it.
func TestScanORAMCheckpointIsRefused(t *testing.T) {
	_, err := ReadCheckpointFile(filepath.Join("testdata", "scan-oram.ckpt"))
	if !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("ReadCheckpointFile = %v, want ErrCorruptCheckpoint", err)
	}
	for _, want := range []string{"scan ORAM", "56f5a87"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// crashAfter aborts a discovery run from inside the checkpoint callback once
// the requested level boundary is reached, capturing the full checkpoint the
// way securefd.DiscoverResumable does.
var errSimulatedCrash = errors.New("simulated client crash")

// TestDiscoverResumeMatchesFullRun is the client-side recovery core: crash at
// every level boundary, resume from the captured checkpoint on the same
// server, and require the identical FD set, counters, and cardinalities.
func TestDiscoverResumeMatchesFullRun(t *testing.T) {
	rel := ckptRelation(t)
	m := rel.NumAttrs()

	baselineSvc := store.NewServer()
	baseEng := NewOrEngine(ckptUpload(t, baselineSvc, rel))
	want, err := Discover(baseEng, m, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Find how many level boundaries a full run has.
	probeSvc := store.NewServer()
	probeEng := NewOrEngine(ckptUpload(t, probeSvc, rel))
	boundaries := 0
	if _, err := Discover(probeEng, m, &Options{
		Checkpoint: func(*LatticeState) error { boundaries++; return nil },
	}); err != nil {
		t.Fatal(err)
	}
	if boundaries < 2 {
		t.Fatalf("test relation yields %d level boundaries; need ≥ 2 to exercise resume", boundaries)
	}

	for crashAt := 1; crashAt <= boundaries; crashAt++ {
		svc := store.NewServer()
		edb := ckptUpload(t, svc, rel)
		eng := NewOrEngine(edb)

		var cp *Checkpoint
		seen := 0
		_, err := Discover(eng, m, &Options{
			Checkpoint: func(ls *LatticeState) error {
				seen++
				if seen == crashAt {
					epoch := int64(ls.NextLevel)
					if err := svc.Checkpoint(epoch); err != nil {
						return err
					}
					cp = &Checkpoint{Epoch: epoch, EDB: edb.State(), Engine: eng.CheckpointState(), Lattice: ls}
					return errSimulatedCrash
				}
				return nil
			},
		})
		if !errors.Is(err, errSimulatedCrash) {
			t.Fatalf("crash %d: Discover err = %v, want simulated crash", crashAt, err)
		}

		// Resume: same server (its state is exactly the epoch's, nothing
		// mutated since the callback), fresh engine from the checkpoint.
		if err := VerifyEpoch(svc, cp.Epoch); err != nil {
			t.Fatalf("crash %d: %v", crashAt, err)
		}
		edb2, err := AttachEDB(svc, cp.EDB)
		if err != nil {
			t.Fatal(err)
		}
		eng2, err := ResumeEngine(edb2, cp.Engine)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Discover(eng2, m, &Options{Resume: cp.Lattice})
		if err != nil {
			t.Fatalf("crash %d: resumed Discover: %v", crashAt, err)
		}

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
	key, _ := crypto.NewKey()
	cipher, err := crypto.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	edb, err := UploadWithCapacity(svc, cipher, "ex-ckpt", rel, rel.NumRows()+4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewExEngine(edb)
	if err != nil {
		t.Fatal(err)
	}
	// Dynamic use keeps partitions; discover fully, then checkpoint.
	want, err := Discover(eng, m, &Options{KeepPartitions: true})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.CheckpointState()
	if st.Kind != engineKindEx {
		t.Fatalf("kind = %q", st.Kind)
	}

	eng2, err := ResumeExEngine(edb, st)
	if err != nil {
		t.Fatal(err)
	}
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

// TestResumeEngineKindMismatch: a checkpoint may only resume as the engine
// that wrote it.
func TestResumeEngineKindMismatch(t *testing.T) {
	svc := store.NewServer()
	edb := ckptUpload(t, svc, ckptRelation(t))
	if _, err := ResumeOrEngine(edb, &EngineState{Kind: engineKindEx}); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Errorf("or-from-ex = %v, want ErrCorruptCheckpoint", err)
	}
	if _, err := ResumeExEngine(edb, &EngineState{Kind: engineKindOr}); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Errorf("ex-from-or = %v, want ErrCorruptCheckpoint", err)
	}
	if _, err := ResumeEngine(edb, &EngineState{Kind: "bogus"}); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Errorf("unknown kind = %v, want ErrCorruptCheckpoint", err)
	}
}
