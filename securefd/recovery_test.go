package securefd

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/oblivfd/oblivfd/internal/store"
)

var errStopAtEpoch = errors.New("stopped at an epoch")

// atEpoch passes every operation to svc and runs hook on the Checkpoint op
// that marks epoch, before passing it on; a hook error fails that op.
func atEpoch(svc Service, epoch int64, hook func() error) Service {
	return store.Adapt(func(op *store.Op, res *store.Result) error {
		if op.Kind == store.KindCheckpoint && op.Value == epoch {
			if err := hook(); err != nil {
				return err
			}
		}
		return store.Invoke(svc, op, res)
	})
}

// TestResumedHandleIsInstrumented: a handle resumed with a registry counts
// the rest of its discovery, ORAM paths and integrity checks, exactly as a
// handle instrumented since Outsource counts the same rest of an
// uninterrupted run — the resumed sets' ORAMs included.
func TestResumedHandleIsInstrumented(t *testing.T) {
	schema, err := NewSchema("A", "B", "C", "D")
	if err != nil {
		t.Fatal(err)
	}
	rel := NewRelation(schema)
	for i := range 24 { // small domains: the lattice climbs past level 2
		if err := rel.Append(Row{fmt.Sprint(i % 2), fmt.Sprint(i % 3), fmt.Sprint(i / 2 % 3), fmt.Sprint(i % 4)}); err != nil {
			t.Fatal(err)
		}
	}
	counters := []string{"oblivfd_oram_path_reads_total", "oblivfd_oram_path_writes_total", "oblivfd_integrity_checks_total"}
	for _, p := range []Protocol{ProtocolORAM, ProtocolDynamicORAM} {
		t.Run(p.String(), func(t *testing.T) {
			// The uninterrupted run: what its registry counted after epoch 1.
			reg := NewRegistry()
			atOne := make([]int64, len(counters))
			svc := atEpoch(NewServer(), 1, func() error {
				for i, name := range counters {
					atOne[i] = reg.Counter(name).Value()
				}
				return nil
			})
			db, err := Outsource(svc, rel, Options{Protocol: p, Telemetry: reg})
			if err != nil {
				t.Fatal(err)
			}
			want, err := db.DiscoverResumable(filepath.Join(t.TempDir(), "full.ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			db.Close()

			// The interrupted run stops before marking epoch 2 and resumes
			// from epoch 1's checkpoint with a fresh registry.
			dir := t.TempDir()
			ckpt := filepath.Join(dir, "run.ckpt")
			srv, err := OpenDir(dir, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			db, err = Outsource(atEpoch(srv, 2, func() error { return errStopAtEpoch }), rel, Options{Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.DiscoverResumable(ckpt); !errors.Is(err, errStopAtEpoch) {
				t.Fatalf("interrupted run: %v, want it stopped at epoch 2", err)
			}
			srv.Close()
			resumedReg := NewRegistry()
			cp, err := ReadCheckpointFile(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if srv, err = OpenDirAtEpoch(dir, cp.Epoch, DurableOptions{}); err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if db, err = Resume(srv, ckpt, resumedReg, nil); err != nil {
				t.Fatal(err)
			}
			got, err := db.DiscoverResumable(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Minimal) != len(want.Minimal) {
				t.Errorf("resumed run found %d FDs, the uninterrupted one %d", len(got.Minimal), len(want.Minimal))
			}
			for i, name := range counters {
				rest, resumed := reg.Counter(name).Value()-atOne[i], resumedReg.Counter(name).Value()
				switch {
				case resumed == 0:
					t.Errorf("%s did not grow after the resume", name)
				case name != "oblivfd_integrity_checks_total" && resumed != rest:
					// An integrity check is a bucket opened, which depends
					// on how the round's paths overlap; paths do not.
					t.Errorf("%s grew by %d after the resume, by %d after epoch 1 of an uninterrupted run", name, resumed, rest)
				}
			}
		})
	}
}

// TestDiscoverResumableFollowsTheTable: every protocol that Resumable admits
// checkpoints a discovery, and every other one — plaintext, enclave and
// deterministic — is refused by name before anything is discovered.
func TestDiscoverResumableFollowsTheTable(t *testing.T) {
	schema, err := NewSchema("A", "B")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := FromRows(schema, []Row{{"a1", "b1"}, {"a1", "b1"}, {"a2", "b1"}})
	if err != nil {
		t.Fatal(err)
	}
	refused := 0
	for _, name := range strings.Split(ProtocolNames(), "|") {
		p, err := ParseProtocol(name)
		if err != nil {
			t.Fatal(err)
		}
		db, err := Outsource(NewServer(), rel, Options{Protocol: p})
		if err != nil {
			t.Fatal(err)
		}
		ckpt := filepath.Join(t.TempDir(), "run.ckpt")
		_, err = db.DiscoverResumable(ckpt)
		db.Close()
		_, statErr := os.Stat(ckpt)
		switch {
		case p.Resumable() && (err != nil || statErr != nil):
			t.Errorf("%v: DiscoverResumable = %v, checkpoint file: %v", p, err, statErr)
		case !p.Resumable() && (err == nil || !strings.Contains(err.Error(), name) || statErr == nil):
			t.Errorf("%v: DiscoverResumable = %v, checkpoint file: %v; want it refused by name, no file", p, err, statErr)
		case !p.Resumable():
			refused++
		}
	}
	if refused != 3 {
		t.Errorf("%d protocols refused, want plaintext, enclave and deterministic", refused)
	}
}
