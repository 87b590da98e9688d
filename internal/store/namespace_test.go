package store

import (
	"strings"
	"testing"

	"github.com/oblivfd/oblivfd/internal/trace"
)

func TestNamespaceOf(t *testing.T) {
	cases := []struct{ name, want string }{
		{"fd1:cells", ""},            // engine names use ':', never '/'
		{"alpha/fd1:cells", "alpha"}, // tenant-prefixed
		{"alpha/x/y", "alpha"},       // only the first '/' splits
		{"", ""},
	}
	for _, c := range cases {
		if got := NamespaceOf(c.name); got != c.want {
			t.Errorf("NamespaceOf(%q) = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestValidDBName(t *testing.T) {
	for _, db := range []string{"a", "tenant-1", "A.B_c9"} {
		if !ValidDBName(db) {
			t.Errorf("ValidDBName(%q) = false, want true", db)
		}
	}
	for _, db := range []string{"", "a/b", "a b", "é", strings.Repeat("x", 129)} {
		if ValidDBName(db) {
			t.Errorf("ValidDBName(%q) = true, want false", db)
		}
	}
}

// TestNamespacedIsolation: two tenants on one backend neither see nor
// clobber each other's objects, even with identical object names.
func TestNamespacedIsolation(t *testing.T) {
	backend := NewServer()
	alpha := Namespaced(backend, "alpha")
	beta := Namespaced(backend, "beta")

	if err := alpha.CreateArray("arr", 4); err != nil {
		t.Fatal(err)
	}
	if err := beta.CreateArray("arr", 9); err != nil {
		t.Fatalf("same object name in a second namespace: %v", err)
	}
	if n, err := alpha.ArrayLen("arr"); err != nil || n != 4 {
		t.Fatalf("alpha ArrayLen = %d, %v; want 4", n, err)
	}
	if n, err := beta.ArrayLen("arr"); err != nil || n != 9 {
		t.Fatalf("beta ArrayLen = %d, %v; want 9", n, err)
	}

	if err := alpha.WriteCells("arr", []int64{0}, [][]byte{[]byte("A0")}); err != nil {
		t.Fatal(err)
	}
	if err := beta.WriteCells("arr", []int64{0}, [][]byte{[]byte("B0")}); err != nil {
		t.Fatal(err)
	}
	got, err := alpha.ReadCells("arr", []int64{0})
	if err != nil {
		t.Fatal(err)
	}
	if string(got[0]) != "A0" {
		t.Errorf("alpha cell = %q after beta's write, want %q", got[0], "A0")
	}

	// Deleting one tenant's object leaves the other's intact.
	if err := alpha.Delete("arr"); err != nil {
		t.Fatal(err)
	}
	if _, err := alpha.ArrayLen("arr"); err == nil {
		t.Error("alpha arr survives its own Delete")
	}
	if n, err := beta.ArrayLen("arr"); err != nil || n != 9 {
		t.Errorf("beta arr damaged by alpha's Delete: %d, %v", n, err)
	}
}

// TestNamespacedRoot: the empty namespace is the identity — same Service,
// unprefixed names, so single-tenant callers are untouched.
func TestNamespacedRoot(t *testing.T) {
	backend := NewServer()
	if got := Namespaced(backend, ""); got != Service(backend) {
		t.Fatalf("Namespaced(svc, \"\") = %T, want the backend itself", got)
	}
}

// TestNamespacedMarks: checkpoints and dirty counters are per-namespace —
// one tenant's writes never disturb another's resume-consistency check.
func TestNamespacedMarks(t *testing.T) {
	backend := NewServer()
	alpha := Namespaced(backend, "alpha")
	beta := Namespaced(backend, "beta")
	for _, svc := range []Service{alpha, beta} {
		if err := svc.CreateArray("arr", 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := alpha.Checkpoint(3); err != nil {
		t.Fatal(err)
	}
	// Beta keeps mutating after alpha's checkpoint.
	if err := beta.WriteCells("arr", []int64{0}, [][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	stA, err := alpha.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stA.Epoch != 3 || stA.MutationsSinceEpoch != 0 {
		t.Errorf("alpha mark = epoch %d/%d dirty, want 3/0 (beta's writes leaked in)",
			stA.Epoch, stA.MutationsSinceEpoch)
	}
	if stA.Objects != 1 {
		t.Errorf("alpha Stats.Objects = %d, want 1 (its own array only)", stA.Objects)
	}
	stB, err := beta.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stB.Epoch != 0 || stB.MutationsSinceEpoch == 0 {
		t.Errorf("beta mark = epoch %d/%d dirty, want 0 epoch and non-zero dirty",
			stB.Epoch, stB.MutationsSinceEpoch)
	}
	// The root namespace has its own independent mark.
	if err := backend.CreateArray("plain", 1); err != nil {
		t.Fatal(err)
	}
	stRoot, err := backend.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stRoot.Epoch != 0 {
		t.Errorf("root epoch = %d, want 0", stRoot.Epoch)
	}
}

// TestNamespacedReveal: reveal tags are tenant-prefixed in the public log,
// keeping the union-of-traces leakage argument syntactic.
func TestNamespacedReveal(t *testing.T) {
	backend := NewServer()
	backend.Trace().Enable()
	alpha := Namespaced(backend, "alpha")
	if err := alpha.Reveal("fd:A->B", 1); err != nil {
		t.Fatal(err)
	}
	events := backend.Trace().Events()
	var found bool
	for _, e := range events {
		if e.Op == trace.OpReveal {
			found = true
			if e.Object != "alpha/fd:A->B" {
				t.Errorf("reveal tag = %q, want %q", e.Object, "alpha/fd:A->B")
			}
		}
	}
	if !found {
		t.Fatal("no reveal event recorded")
	}
}

// TestNamespacedBatch: batch op names are prefixed and the batch still runs
// through the backend's fused path.
func TestNamespacedBatch(t *testing.T) {
	backend := NewServer()
	alpha := Namespaced(backend, "alpha")
	if err := alpha.CreateArray("arr", 2); err != nil {
		t.Fatal(err)
	}
	batcher, ok := alpha.(Batcher)
	if !ok {
		t.Fatal("namespaced service lost the Batcher extension")
	}
	res, err := batcher.Batch([]BatchOp{
		{Write: true, Name: "arr", Idx: []int64{0, 1}, Cts: [][]byte{[]byte("x"), []byte("y")}},
		{Name: "arr", Idx: []int64{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(res[1][0]) != "y" {
		t.Errorf("batched read = %q, want %q", res[1][0], "y")
	}
	// The write really landed under the prefixed name.
	if got, err := backend.ReadCells("alpha/arr", []int64{0}); err != nil || string(got[0]) != "x" {
		t.Errorf("backend alpha/arr cell = %q, %v; want %q", got, err, "x")
	}
}

// TestCheckpointInFallback: a typed-only backend still works for the root
// namespace but refuses a named one instead of silently checkpointing across
// tenants.
func TestCheckpointInFallback(t *testing.T) {
	plain := &plainOnlySvc{Service: NewServer()}
	if err := CheckpointIn(plain, "", 1); err != nil {
		t.Errorf("root checkpoint through plain backend: %v", err)
	}
	if err := CheckpointIn(plain, "alpha", 1); err == nil {
		t.Error("namespaced checkpoint on a plain backend must fail")
	}
	if _, err := StatsIn(plain, "alpha"); err == nil {
		t.Error("namespaced stats on a plain backend must fail")
	}
}

// plainOnlySvc hides the backend's Handler (Adapter.Do), leaving the typed
// method set alone.
type plainOnlySvc struct{ Service }
