package store

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOnlyAdapterSpellsOutTheMethodSet keeps the forwarders from growing
// back: in the two packages that implement the storage seam, the Adapter is
// the only type that declares the typed method set (WriteBuckets stands for
// it — no other interface has one). Everything else, the in-memory Server
// included, is a Handler behind an Adapter; see CONTRIBUTING.md, "Adding a
// decorator".
func TestOnlyAdapterSpellsOutTheMethodSet(t *testing.T) {
	allowed := map[string]bool{"store.Adapter": true}
	for _, dir := range []string{".", "../transport"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		parsed := 0
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			file, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			parsed++
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || fn.Name.Name != "WriteBuckets" {
					continue
				}
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if typ := file.Name.Name + "." + recv.(*ast.Ident).Name; !allowed[typ] {
					t.Errorf("%s declares WriteBuckets: write it as a store.Handler behind store.Adapt instead of forwarding the method set by hand", typ)
				}
			}
		}
		if parsed == 0 {
			t.Fatalf("no Go source found in %s", dir)
		}
	}
}

// TestEveryKindHasItsRow: a kind appended without a row in the table would
// report under an empty op label, never be failed after applying, and never
// be logged or shipped.
func TestEveryKindHasItsRow(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(0); k < NumKinds; k++ {
		name := kinds[k].name
		if name == "" {
			t.Errorf("kind %d has no row in the kinds table", k)
			continue
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
	if got := Kind(NumKinds).String(); got != "kind(19)" {
		t.Errorf("a kind past the table prints as %q", got)
	}
	// The mutates column and the WAL agree on what is logged: every mutation,
	// plus the fence (Promote) and self-heal (Repair) records no client sends.
	for k := Kind(0); k <= NumKinds; k++ {
		_, err := encodeWALRecord(&Op{Kind: k})
		if logged, want := err == nil, k.info().mutates || k == KindPromote || k == KindRepair; logged != want {
			t.Errorf("%v: mutates column and the two server records say %v, the WAL logs it: %v (%v)", k, want, logged, err)
		}
	}
	// The service column and both dispatch switches agree on what a Service
	// runs: the server's own Do, and Invoke's typed switch, which a service
	// without Do — here the server with Do hidden — is driven through.
	srv := NewServer()
	for _, c := range []struct {
		name string
		svc  Service
	}{{"the server's Do", srv}, {"Invoke's typed switch", struct {
		Service
		Batcher
	}{srv, srv}}} {
		for k := Kind(0); k <= NumKinds; k++ {
			err := Invoke(c.svc, &Op{Kind: k}, &Result{})
			refused := err != nil && strings.Contains(err.Error(), "is not a Service operation")
			if refused == k.info().service {
				t.Errorf("%v: service column says %v, %s answered %v", k, k.info().service, c.name, err)
			}
		}
	}
}
