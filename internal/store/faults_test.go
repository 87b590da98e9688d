package store

import (
	"errors"
	"testing"
	"time"
)

// driveFaults runs a fixed call sequence and records which calls failed.
func driveFaults(t *testing.T, f *FaultService) []bool {
	t.Helper()
	var schedule []bool
	record := func(err error) {
		if err != nil && !errors.Is(err, ErrTransient) {
			t.Fatalf("injected error is not ErrTransient: %v", err)
		}
		schedule = append(schedule, err != nil)
	}
	record(f.CreateArray("a", 8))
	for i := 0; i < 200; i++ {
		record(f.WriteCells("a", []int64{int64(i % 8)}, [][]byte{{byte(i)}}))
		_, err := f.ReadCells("a", []int64{int64(i % 8)})
		record(err)
	}
	return schedule
}

func TestFaultScheduleDeterministic(t *testing.T) {
	cfg := FaultConfig{Seed: 7, ErrorRate: 0.2}
	a := driveFaults(t, WithFaults(NewServer(), cfg))
	b := driveFaults(t, WithFaults(NewServer(), cfg))
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	faults := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at call %d", i)
		}
		if a[i] {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("no faults injected at 20% rate over 401 calls")
	}
	// A different seed must give a different schedule (overwhelmingly).
	c := driveFaults(t, WithFaults(NewServer(), FaultConfig{Seed: 8, ErrorRate: 0.2}))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 7 and 8 produced identical schedules")
	}
}

func TestFaultsCounted(t *testing.T) {
	f := WithFaults(NewServer(), FaultConfig{Seed: 1, ErrorRate: 0.5})
	injected := int64(0)
	for {
		err := f.CreateArray("a", 4)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrTransient) {
			t.Fatal(err)
		}
		injected++ // creates fail before applying, so plain retry is safe
	}
	for i := 0; i < 100; i++ {
		if _, err := f.ArrayLen("a"); err != nil {
			injected++
		}
	}
	if got := f.Injected(); got != injected {
		t.Errorf("Injected() = %d, observed %d failing calls", got, injected)
	}
	st, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.FaultsInjected != f.Injected() {
		t.Errorf("Stats.FaultsInjected = %d, want %d", st.FaultsInjected, f.Injected())
	}
	if st.FaultsInjected == 0 {
		t.Error("no faults injected at 50% rate")
	}
}

func TestFaultSpikesDelay(t *testing.T) {
	f := WithFaults(NewServer(), FaultConfig{Seed: 3, SpikeRate: 1, Spike: 2 * time.Millisecond})
	if err := f.CreateArray("a", 1); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := f.ArrayLen("a"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 2*time.Millisecond {
		t.Errorf("spike not applied: call took %v", d)
	}
	if f.Spikes() < 2 {
		t.Errorf("Spikes() = %d, want >= 2", f.Spikes())
	}
}

// TestFaultFailAfterApplies: a fail-after error still applies the write, so
// a retry of the identical write is a no-op — the idempotency the retry
// layer relies on.
func TestFaultFailAfterApplies(t *testing.T) {
	srv := NewServer()
	f := WithFaults(srv, FaultConfig{Seed: 2, ErrorRate: 1}) // every call fails
	_ = f.CreateArray("a", 2)                                // fail-before only (non-idempotent op)
	if _, err := srv.ArrayLen("a"); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("CreateArray applied despite fail-before-only rule: %v", err)
	}
	if err := srv.CreateArray("a", 2); err != nil {
		t.Fatal(err)
	}
	// Drive writes until one fail-after lands, then check it applied.
	applied := false
	for i := 0; i < 50 && !applied; i++ {
		err := f.WriteCells("a", []int64{0}, [][]byte{{0xAB}})
		if !errors.Is(err, ErrTransient) {
			t.Fatalf("expected injected error, got %v", err)
		}
		got, rerr := srv.ReadCells("a", []int64{0})
		if rerr != nil {
			t.Fatal(rerr)
		}
		applied = len(got[0]) == 1 && got[0][0] == 0xAB
	}
	if !applied {
		t.Error("no fail-after write applied in 50 attempts at 100% error rate")
	}
}

// TestFaultScheduleSlotPerBatchedCellOp: the schedule is indexed by cell
// operations, an array's or a tree's, however a caller groups them. The same
// ops issued one by one and as one Batch through the injector's typed facade
// draw the same slots: the batch fails at the op the serial run first failed
// at, naming the same call number, and has consumed exactly the slots up to
// it.
func TestFaultScheduleSlotPerBatchedCellOp(t *testing.T) {
	cfg := FaultConfig{Seed: 11, ErrorRate: 0.15}
	ops := make([]BatchOp, 40)
	for i := range ops {
		ops[i] = BatchOp{Write: i%2 == 0, Name: "a", Idx: []int64{int64(i % 8)}}
		if ops[i].Write {
			ops[i].Cts = [][]byte{{byte(i)}}
		}
		if i%4 >= 2 { // every other pair is a write and a read of a tree path
			ops[i].Name, ops[i].Idx = "t", []int64{0, 2, int64(3 + i%4)} // leaf i%4
			if ops[i].Write {
				ops[i].Cts = [][]byte{{byte(i)}, {byte(i)}, {byte(i)}}
			}
		}
	}
	backend := func() *Server {
		s := NewServer()
		if err := s.CreateArray("a", 8); err != nil {
			t.Fatal(err)
		}
		if err := s.CreateTree("t", 3, 1); err != nil {
			t.Fatal(err)
		}
		return s
	}

	serial := WithFaults(backend(), cfg)
	first, want := -1, error(nil)
	for i, op := range ops {
		var err error
		switch op.Kind() {
		case KindWriteCells:
			err = serial.WriteCells(op.Name, op.Idx, op.Cts)
		case KindReadCells:
			_, err = serial.ReadCells(op.Name, op.Idx)
		}
		if err != nil {
			first, want = i, err
			break
		}
	}
	if first < 1 {
		t.Fatalf("first serial fault at op %d; the seed must let a few ops through and then fail one", first)
	}

	batched := WithFaults(backend(), cfg)
	_, err := batched.Batch(ops)
	if err == nil || err.Error() != want.Error() {
		t.Errorf("batch of the same ops: %v, want the serial run's %v", err, want)
	}
	if batched.seq != int64(first+1) {
		t.Errorf("batch consumed %d schedule slots, want %d (one per op up to the fault)", batched.seq, first+1)
	}

	clean := WithFaults(backend(), FaultConfig{Seed: 11})
	if _, err := DoBatch(clean, ops); err != nil {
		t.Fatal(err)
	}
	if clean.seq != int64(len(ops)) {
		t.Errorf("a clean batch of %d ops consumed %d slots", len(ops), clean.seq)
	}
}
