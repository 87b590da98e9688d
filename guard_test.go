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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		parsed++
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
		if slash := filepath.ToSlash(path); strings.HasPrefix(slash, "internal/store/") || strings.HasPrefix(slash, "benchmark/") {
			return nil
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "ReadPath" || sel.Sel.Name == "WritePath") {
					t.Errorf("%s calls %s: address a tree's buckets with ReadCells/WriteCells", path, sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The module has about a hundred non-test files; far fewer means the
	// walk started in the wrong place and proved nothing.
	if parsed < 50 {
		t.Fatalf("parsed %d non-test Go files, want the whole module", parsed)
	}
}
