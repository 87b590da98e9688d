package core

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/telemetry"
)

// opts are openFor's settings. The zero value opens as Open(svc, rel, p, 0,
// 0, nil) does, over database "t".
type opts struct {
	name     string              // the database's name, "t" if empty (the goldens pin it)
	workers  int                 // the Sort and enclave sorting networks' parallelism
	headroom int                 // rows the database has room to append
	reg      *telemetry.Registry // nil: not instrumented
}

// openFor builds row p's engine over rel as Open does — an encrypted row's
// relation uploaded first, to svc or, for nil, to a fresh server — and returns
// it as an E with the database handle (nil for a row that uploads nothing).
// It fails t if the row refuses rel or builds something else. Every engine a
// test of this package builds comes from here (TestOnlyOpenForBuildsEngines).
func openFor[E Engine](t testing.TB, svc store.Service, p Protocol, rel *relation.Relation, o opts) (E, *EncryptedDB) {
	t.Helper()
	if svc == nil {
		svc = store.NewServer()
	}
	if o.name == "" {
		o.name = "t"
	}
	eng, edb, err := open(svc, o.name, rel, p, o.workers, o.headroom, o.reg)
	if err != nil {
		t.Fatalf("opening %v: %v", p, err)
	}
	e, ok := eng.(E)
	if !ok {
		t.Fatalf("%v opens a %T", p, eng)
	}
	return e, edb
}

// oracle is the plaintext row's engine over rel: the partitions and FDs every
// other row must agree with.
func oracle(rel *relation.Relation) *PlainEngine {
	eng, _, _ := open(nil, "", rel, ProtocolPlaintext, 0, 0, nil)
	return eng.(*PlainEngine)
}

// rows lists, in table order, the protocols whose row keep admits. A
// property ranges over rows(…): a new row joins every property that admits
// it.
func rows(keep func(Protocol) bool) []Protocol {
	var ps []Protocol
	for p := range Protocol(len(protocols)) {
		if keep(p) {
			ps = append(ps, p)
		}
	}
	return ps
}

func everyRow(Protocol) bool { return true }

// encrypted rows upload the relation: the server holds what they build.
func encrypted(p Protocol) bool { return protocols[p].encrypted }

// oblivious rows are the paper's three protocols: the encrypted rows but
// deterministic, whose tags leak every attribute's frequencies by design
// (TestFrequencyAttackBreaksDeterministicTags).
func oblivious(p Protocol) bool { return encrypted(p) && p != ProtocolDeterministic }

// resumable rows have a resume column: a checkpoint carries their engine's
// client state.
func resumable(p Protocol) bool { return p.Resumable() }

// oramRow rows are the ORAM engines: they step a lattice level record by
// record and take insertions.
func oramRow(p Protocol) bool { return p == ProtocolORAM || p == ProtocolDynamicORAM }

// named is row p's subtest name where the tests ranged over every engine
// before the table named them: its String, but "plain" for plaintext.
func named(p Protocol) string {
	if p == ProtocolPlaintext {
		return "plain"
	}
	return p.String()
}

// short is row p's subtest name in the tests written for the ORAM engines'
// level step: its String without "-oram".
func short(p Protocol) string { return strings.TrimSuffix(p.String(), "-oram") }

// oramOf is the ORAM core of an oramRow's engine.
func oramOf(eng Engine) *oramCore {
	switch e := eng.(type) {
	case *OrEngine:
		return &e.oramCore
	case *ExEngine:
		return &e.oramCore
	}
	panic(fmt.Sprintf("%T has no ORAM core", eng))
}

// inserter is an engine that takes insertions: the oramRows'.
type inserter interface {
	Engine
	Insert(relation.Row) (int, error)
}

// TestOnlyOpenForBuildsEngines keeps the tests on the protocol table: outside
// this file no test of the package names an engine's constructor or upload
// (edb_test.go, which tests upload itself, excepted), so every engine comes
// from openFor; and no composite literal lists two protocols, so a property
// takes its engines from rows and a new row joins it.
func TestOnlyOpenForBuildsEngines(t *testing.T) {
	const helper = "protocol_test.go"
	banned := map[string]bool{"upload": true}
	for _, kind := range []string{"Sort", "Or", "Ex", "Det", "Plain", "Enclave"} {
		banned["new"+kind+"Engine"] = true
	}
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	opened := 0 // calls of openFor outside this file
	for _, name := range files {
		if name == helper {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				switch {
				case n.Name == "openFor":
					opened++
				case banned[n.Name] && !(n.Name == "upload" && name == "edb_test.go"):
					t.Errorf("%s names %s: open engines with openFor", name, n.Name)
				}
			case *ast.CompositeLit:
				listed := 0
				for _, el := range n.Elts {
					if id, ok := el.(*ast.Ident); ok && strings.HasPrefix(id.Name, "Protocol") {
						listed++
					}
				}
				if listed > 1 {
					t.Errorf("%s lists %d protocols: range over rows", name, listed)
				}
			}
			return true
		})
	}
	if opened == 0 {
		t.Error("no test calls openFor: the scan no longer sees the tests")
	}
}
