package core

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
)

var errInjected = errors.New("injected storage failure")

// failNth is a storage service that fails the k-th operation matching a
// predicate, counted from arm(k), and passes everything else through.
type failNth struct {
	store.Adapter
	left atomic.Int64
	lost []store.BatchOp // the ops of the batch it failed, if it was one
}

func newFailNth(svc store.Service, match func(*store.Op) bool) *failNth {
	f := &failNth{}
	f.Adapter = store.Adapt(func(op *store.Op, res *store.Result) error {
		if match(op) && f.left.Add(-1) == 0 {
			f.lost = slices.Clone(op.Ops)
			return errInjected
		}
		return store.Invoke(svc, op, res)
	})
	return f
}

func (f *failNth) arm(k int)   { f.left.Store(int64(k)) }
func (f *failNth) fired() bool { return f.left.Load() <= 0 }

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
	singleReqs := []Request{Single(0), Single(1), Single(2)}
	unionReqs := []Request{Union(a, b), Union(a, c), Union(b, c)}
	singles := func(eng Engine) error {
		_, err := eng.Materialize(singleReqs)
		return err
	}
	unions := func(eng Engine) error {
		_, err := eng.Materialize(unionReqs)
		return err
	}
	scenarios := []struct {
		name    string
		workers int
		setup   func(eng Engine) error // runs before the fault is armed
		run     func(eng Engine) error
	}{
		{"single", 1, nil, func(eng Engine) error {
			_, err := CardinalitySingle(eng, 0)
			return err
		}},
		{"union", 1, singles, func(eng Engine) error {
			_, err := CardinalityUnion(eng, a, b)
			return err
		}},
		{"single-batch/workers=1", 1, nil, singles},
		{"single-batch/workers=4", 4, nil, singles},
		{"union-batch/workers=1", 1, singles, unions},
		{"union-batch/workers=4", 4, singles, unions},
	}
	for _, p := range rows(encrypted) {
		for _, sc := range scenarios {
			t.Run(short(p)+"/"+sc.name, func(t *testing.T) {
				// Every third operation of a run: no engine's operations repeat
				// with a period of 3.
				for k := 1; ; k += 3 {
					srv := store.NewServer()
					svc := newFailNth(srv, func(op *store.Op) bool { return op.Kind != store.KindDelete })
					eng, _ := openFor[Engine](t, svc, p, rel, opts{workers: sc.workers})
					base, _ := srv.Stats()
					if sc.setup != nil {
						if err := sc.setup(eng); err != nil {
							t.Fatal(err)
						}
					}
					svc.arm(k)
					err := sc.run(eng)
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
	for _, p := range rows(encrypted) {
		t.Run(short(p), func(t *testing.T) {
			srv := store.NewServer()
			svc := newFailNth(srv, func(op *store.Op) bool { return op.Kind == store.KindDelete })
			eng, _ := openFor[Engine](t, svc, p, rel, opts{})
			base, _ := srv.Stats()
			if _, err := eng.Materialize([]Request{Single(0), Single(1), Single(2)}); err != nil {
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
// growing back. In this package's non-test sources, table.go alone declares
// Materialize, calls runBatch and calls validateCover — so the cached/pending
// logic, the cover checks and look-ups and the orphan clean-up exist once —
// no type has an entry point of its own beside it, setsBySize is declared in
// one file, and the lattice asks nothing of an engine but the interface. An
// engine is a state type and a fills implementation; see CONTRIBUTING.md,
// "Adding an engine". And a record's accesses have one sender: in the ORAM
// engines' files a pipeline's Do is called from levelStep — for fills and
// insertions alike — and from ExEngine.Delete, nowhere else, so no per-set
// loop can grow back beside the level step.
func TestOnlyTheTableDrivesMaterialization(t *testing.T) {
	const table = "table.go"
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var materialize, setsBySize, validateCoverCalls []string
	senders := make(map[string]bool) // functions that call <pipeline>.Do
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
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Do" {
						senders[name+":"+fn.Name.Name] = true
					}
				}
				return true
			})
			if fn.Recv == nil {
				continue
			}
			switch fn.Name.Name {
			case "Materialize":
				materialize = append(materialize, name)
			case "CardinalitySingle", "CardinalityUnion", "CardinalitySingleBatch", "CardinalityUnionBatch":
				t.Errorf("%s declares method %s: Materialize is the one entry point", name, fn.Name.Name)
			case "setsBySize":
				setsBySize = append(setsBySize, name)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeAssertExpr:
				if name == "lattice.go" {
					t.Errorf("%s asserts a type: the lattice asks the Engine interface and nothing else", name)
				}
			case *ast.CallExpr:
				switch id, _ := n.Fun.(*ast.Ident); {
				case id == nil:
				case id.Name == "runBatch" && name != table:
					t.Errorf("%s calls runBatch: only the table schedules fills", name)
				case id.Name == "validateCover":
					validateCoverCalls = append(validateCoverCalls, name)
				}
			}
			return true
		})
	}
	for _, want := range []string{"oramcore.go:levelStep", "exoram.go:Delete"} {
		if !senders[want] {
			t.Errorf("%s does not call a pipeline's Do: the test no longer sees the senders", want)
		}
		delete(senders, want)
	}
	for fn := range senders {
		t.Errorf("%s calls Do: a record's accesses are sent by levelStep (and a deletion's by Delete) alone", fn)
	}
	for what, files := range map[string][]string{
		"Materialize is declared":   materialize,
		"validateCover is called":   validateCoverCalls,
		"setsBySize is declared in": setsBySize,
	} {
		if len(files) != 1 || files[0] != table {
			t.Errorf("%s in %v, want only %s", what, files, table)
		}
	}
}

// TestPlanIsEngineFree keeps the lattice's plan pure: in lattice.go no method
// of plan, and no function that returns one, names an engine type or calls a
// method the Engine interface declares. The schedule stays a function of the
// plan's state and the cardinalities it is handed, and Discover alone speaks
// to the engine.
func TestPlanIsEngineFree(t *testing.T) {
	engineMethods := make(map[string]bool)
	for i, et := 0, reflect.TypeFor[Engine](); i < et.NumMethod(); i++ {
		engineMethods[et.Method(i).Name] = true
	}
	file, err := parser.ParseFile(token.NewFileSet(), "lattice.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	isPlan := func(e ast.Expr) bool {
		if star, ok := e.(*ast.StarExpr); ok {
			e = star.X
		}
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "plan"
	}
	seen := make(map[string]bool)
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		var fields []*ast.Field
		if fn.Recv != nil {
			fields = append(fields, fn.Recv.List...)
		}
		if fn.Type.Results != nil {
			fields = append(fields, fn.Type.Results.List...)
		}
		if !slices.ContainsFunc(fields, func(f *ast.Field) bool { return isPlan(f.Type) }) {
			continue
		}
		seen[fn.Name.Name] = true
		ast.Inspect(fn, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if strings.HasSuffix(n.Name, "Engine") {
					t.Errorf("lattice.go: %s names %s: the plan takes no engine", fn.Name.Name, n.Name)
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && engineMethods[sel.Sel.Name] {
					t.Errorf("lattice.go: %s calls %s: the plan calls no engine", fn.Name.Name, sel.Sel.Name)
				}
			}
			return true
		})
	}
	for _, want := range []string{"newPlan", "resumePlan", "check", "record", "state", "result"} {
		if !seen[want] {
			t.Errorf("lattice.go declares no plan function %s: the test no longer sees the plan", want)
		}
	}
}
