package core

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/oram"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
)

var errInjected = errors.New("injected storage failure")

// failNth is a storage service that fails the k-th operation matching a
// predicate, counted from arm(k), and passes everything else through.
type failNth struct {
	store.Adapter
	left atomic.Int64
}

func newFailNth(svc store.Service, match func(*store.Op) bool) *failNth {
	f := &failNth{}
	f.Adapter = store.Adapt(func(op *store.Op, res *store.Result) error {
		if match(op) && f.left.Add(-1) == 0 {
			return errInjected
		}
		return store.Invoke(svc, op, res)
	})
	return f
}

func (f *failNth) arm(k int)   { f.left.Store(int64(k)) }
func (f *failNth) fired() bool { return f.left.Load() <= 0 }

// secureEngines builds each engine the orphan and Close tests run against.
// The orphan test fails every stride-th operation of a run: no engine's
// operations repeat with a period of 3 or 31, and the scan ORAM issues ten
// times as many as the others.
var secureEngines = []struct {
	name   string
	stride int
	make   func(t *testing.T, edb *EncryptedDB) ParallelEngine
}{
	{"or", 3, func(t *testing.T, edb *EncryptedDB) ParallelEngine { return NewOrEngine(edb) }},
	{"or-linear", 31, func(t *testing.T, edb *EncryptedDB) ParallelEngine {
		eng := NewOrEngine(edb)
		eng.Factory = oram.LinearFactory
		return eng
	}},
	{"ex", 3, func(t *testing.T, edb *EncryptedDB) ParallelEngine {
		eng, err := NewExEngine(edb)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}},
	{"sort", 3, func(t *testing.T, edb *EncryptedDB) ParallelEngine { return NewSortEngine(edb, 1) }},
}

// TestFailedMaterializationLeavesNoOrphans: whichever storage operation of a
// materialization fails — during set-up, mid-traversal, in the first job of a
// batch or the last, serially or with jobs in flight beside it — the error is
// the injected one and, once the engine is closed, the server holds exactly
// what it held after the upload. Before the table, the structures of the
// failed set (and of every job of an abandoned wave) were in no map, so Close
// could not reach them.
func TestFailedMaterializationLeavesNoOrphans(t *testing.T) {
	rel := fixedWidthRel(3, 8, 4, 3)
	a, b, c := relation.SingleAttr(0), relation.SingleAttr(1), relation.SingleAttr(2)
	unions := []UnionJob{{X1: a, X2: b}, {X1: a, X2: c}, {X1: b, X2: c}}
	singles := func(eng ParallelEngine) error {
		_, err := eng.CardinalitySingleBatch([]int{0, 1, 2}, 1)
		return err
	}
	scenarios := []struct {
		name  string
		setup func(eng ParallelEngine) error // runs before the fault is armed
		run   func(eng ParallelEngine) error
	}{
		{"single", nil, func(eng ParallelEngine) error {
			_, err := eng.CardinalitySingle(0)
			return err
		}},
		{"union", singles, func(eng ParallelEngine) error {
			_, err := eng.CardinalityUnion(a, b)
			return err
		}},
		{"single-batch/workers=1", nil, singles},
		{"single-batch/workers=4", nil, func(eng ParallelEngine) error {
			_, err := eng.CardinalitySingleBatch([]int{0, 1, 2}, 4)
			return err
		}},
		{"union-batch/workers=1", singles, func(eng ParallelEngine) error {
			_, err := eng.CardinalityUnionBatch(unions, 1)
			return err
		}},
		{"union-batch/workers=4", singles, func(eng ParallelEngine) error {
			_, err := eng.CardinalityUnionBatch(unions, 4)
			return err
		}},
	}
	for _, e := range secureEngines {
		for _, sc := range scenarios {
			t.Run(e.name+"/"+sc.name, func(t *testing.T) {
				for k := 1; ; k += e.stride {
					srv := store.NewServer()
					svc := newFailNth(srv, func(op *store.Op) bool { return op.Kind != store.KindDelete })
					edb, err := Upload(svc, crypto.MustNewCipher(crypto.MustNewKey()), "t", rel)
					if err != nil {
						t.Fatal(err)
					}
					base, _ := srv.Stats()
					eng := e.make(t, edb)
					if sc.setup != nil {
						if err := sc.setup(eng); err != nil {
							t.Fatal(err)
						}
					}
					svc.arm(k)
					err = sc.run(eng)
					if svc.fired() && !errors.Is(err, errInjected) {
						t.Fatalf("operation %d failed, run returned %v", k, err)
					}
					if !svc.fired() && err != nil {
						t.Fatalf("nothing was injected, run returned %v", err)
					}
					if err := eng.Close(); err != nil {
						t.Fatalf("operation %d failed: Close: %v", k, err)
					}
					end, _ := srv.Stats()
					if end.Objects != base.Objects || end.StoredBytes != base.StoredBytes {
						t.Fatalf("operation %d failed: server holds %d objects / %d bytes after Close, %d / %d after upload",
							k, end.Objects, end.StoredBytes, base.Objects, base.StoredBytes)
					}
					if !svc.fired() {
						if k == 1 {
							t.Fatal("the run issued no storage operation")
						}
						return // k is past the run's last operation
					}
				}
			})
		}
	}
}

// TestCloseAttemptsEverySet: one Delete the server refuses must cost one
// object, not every set Close had not reached yet.
func TestCloseAttemptsEverySet(t *testing.T) {
	rel := fixedWidthRel(3, 8, 4, 3)
	for _, e := range secureEngines {
		t.Run(e.name, func(t *testing.T) {
			srv := store.NewServer()
			svc := newFailNth(srv, func(op *store.Op) bool { return op.Kind == store.KindDelete })
			edb, err := Upload(svc, crypto.MustNewCipher(crypto.MustNewKey()), "t", rel)
			if err != nil {
				t.Fatal(err)
			}
			base, _ := srv.Stats()
			eng := e.make(t, edb)
			if _, err := eng.CardinalitySingleBatch([]int{0, 1, 2}, 1); err != nil {
				t.Fatal(err)
			}
			svc.arm(1)
			if err := eng.Close(); !errors.Is(err, errInjected) {
				t.Fatalf("Close = %v, want the injected failure", err)
			}
			end, _ := srv.Stats()
			if end.Objects != base.Objects+1 {
				t.Errorf("%d objects outlive a Close with one refused Delete, want 1", end.Objects-base.Objects)
			}
		})
	}
}

// TestOnlyTheTableDrivesMaterialization keeps the per-engine drivers from
// growing back. In this package's non-test sources, table.go alone calls
// runBatch, declares the two batch entry points and calls validateUnion — so
// the cached/pending logic, the cover look-ups and the orphan clean-up exist
// once — and setsBySize is declared in one file. An engine is a state type
// and a fills implementation; see CONTRIBUTING.md, "Adding an engine".
func TestOnlyTheTableDrivesMaterialization(t *testing.T) {
	const table = "table.go"
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var setsBySize, validateUnionCalls []string
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil {
				continue
			}
			switch fn.Name.Name {
			case "CardinalitySingleBatch", "CardinalityUnionBatch":
				if name != table {
					t.Errorf("%s declares %s: embed parallelTable and supply fills instead", name, fn.Name.Name)
				}
			case "setsBySize":
				setsBySize = append(setsBySize, name)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch id, _ := call.Fun.(*ast.Ident); {
			case id == nil:
			case id.Name == "runBatch" && name != table:
				t.Errorf("%s calls runBatch: only the table schedules fills", name)
			case id.Name == "validateUnion":
				validateUnionCalls = append(validateUnionCalls, name)
			}
			return true
		})
	}
	if len(setsBySize) != 1 {
		t.Errorf("setsBySize is declared in %v, want one declaration", setsBySize)
	}
	if len(validateUnionCalls) != 1 || validateUnionCalls[0] != table {
		t.Errorf("validateUnion is called from %v, want one call, in %s", validateUnionCalls, table)
	}
}
