package oblivfd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoUnsafeOrLinkname keeps the runtime's internals out of the program: no
// non-test Go file in the module imports "unsafe" or pulls a symbol in with
// //go:linkname, so no Go release can break the build by moving one. Span
// parents travel explicitly (store.Op.Parent, otrace.Tracer.SetCurrent),
// which is what made the goroutine-local slot these were once used for
// unnecessary. Tests may still import unsafe: internal/transport's codec
// tests size a decoded op with unsafe.Sizeof.
//
// The same walk keeps the typed path operations from gaining callers: no
// non-test file outside internal/store (which dispatches them) and benchmark/
// (whose seam forwards them) calls ReadPath or WritePath. An ORAM round is
// cell ops on a tree's flat positions, so the typed forms can go once the
// benchmark's seam lets them, by deletion alone.
func TestNoUnsafeOrLinkname(t *testing.T) {
	eachSource(t, func(path string, file *ast.File) {
		for _, imp := range file.Imports {
			if imp.Path.Value == `"unsafe"` {
				t.Errorf("%s imports unsafe", path)
			}
		}
		for _, group := range file.Comments {
			for _, c := range group.List {
				if strings.HasPrefix(c.Text, "//go:linkname") {
					t.Errorf("%s: %s", path, c.Text)
				}
			}
		}
		if strings.HasPrefix(path, "internal/store/") || strings.HasPrefix(path, "benchmark/") {
			return
		}
		eachMethodCall(file, func(name string) {
			if name == "ReadPath" || name == "WritePath" {
				t.Errorf("%s calls %s: address a tree's buckets with ReadCells/WriteCells", path, name)
			}
		})
	})
}

// TestCreatesRideInBatches keeps creates and bulk tree fills off rounds of
// their own: no non-test file outside internal/store calls CreateArray,
// CreateTree or WriteBuckets. A create travels in the batch that carries its
// object's first writes (store.CreateArrayOp, store.CreateTreeOp), and an
// ORAM's dummy buckets are tree-cell writes (oram.SetupAll). benchmark/seam.go
// forwards the typed method set and is exempt, so WriteBuckets can go by
// deletion alone once the seam lets it.
func TestCreatesRideInBatches(t *testing.T) {
	eachSource(t, func(path string, file *ast.File) {
		if strings.HasPrefix(path, "internal/store/") || path == "benchmark/seam.go" {
			return
		}
		eachMethodCall(file, func(name string) {
			switch name {
			case "CreateArray", "CreateTree", "WriteBuckets":
				t.Errorf("%s calls %s: send it in a batch beside the first writes (store.CreateArrayOp, store.CreateTreeOp, oram.SetupAll)", path, name)
			}
		})
	})
}

// TestNoFakeEmbedsTheServer keeps test fakes from being silently bypassed:
// no test type embeds *store.Server (*Server inside package store). The
// server is a Handler behind an Adapter, so the embedding promotes its Do,
// and store.Invoke hands an Op to Do whole — past every typed method the
// fake overrides. A fake embeds store.Service and delegates to that.
func TestNoFakeEmbedsTheServer(t *testing.T) {
	eachGoFile(t, true, func(path string, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				typ := f.Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				server := false
				switch x := typ.(type) {
				case *ast.SelectorExpr:
					pkg, ok := x.X.(*ast.Ident)
					server = ok && pkg.Name == "store" && x.Sel.Name == "Server"
				case *ast.Ident:
					server = file.Name.Name == "store" && x.Name == "Server"
				}
				if len(f.Names) == 0 && server {
					t.Errorf("%s: a struct embeds the store server: embed store.Service instead, or store.Invoke bypasses the methods it overrides", path)
				}
			}
			return true
		})
	})
}

// eachSource parses every non-test Go file of the module, comments
// included, and hands it to visit with its slash-separated path.
func eachSource(t *testing.T, visit func(path string, file *ast.File)) {
	t.Helper()
	eachGoFile(t, false, visit)
}

// eachGoFile parses every Go file of the module that is a test file exactly
// when tests is set, and hands it to visit with its slash-separated path.
func eachGoFile(t *testing.T, tests bool, visit func(path string, file *ast.File)) {
	t.Helper()
	parsed := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") != tests {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		parsed++
		visit(filepath.ToSlash(path), file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The module has about a hundred files of either sort; far fewer means
	// the walk started in the wrong place and proved nothing.
	if parsed < 50 {
		t.Fatalf("parsed %d Go files (tests: %v), want the whole module", parsed, tests)
	}
}

// eachMethodCall hands visit the name of every call of the form x.Name(…) in
// file.
func eachMethodCall(file *ast.File, visit func(name string)) {
	ast.Inspect(file, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				visit(sel.Sel.Name)
			}
		}
		return true
	})
}
