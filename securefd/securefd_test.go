package securefd

import (
	"errors"
	"net"
	"strings"
	"testing"

	"github.com/oblivfd/oblivfd/internal/baseline"
	"github.com/oblivfd/oblivfd/internal/relation"
)

func employeeRelation(t *testing.T) *Relation {
	t.Helper()
	schema, err := NewSchema("Position", "Department", "Office")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := FromRows(schema, []Row{
		{"Engineer", "R&D", "B1"},
		{"Engineer", "R&D", "B2"},
		{"Manager", "R&D", "B1"},
		{"Sales", "Market", "B3"},
		{"Sales", "Market", "B3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func allProtocols() []Protocol {
	return []Protocol{
		ProtocolSort, ProtocolORAM, ProtocolDynamicORAM,
		ProtocolPlaintext, ProtocolEnclave, ProtocolDeterministic,
	}
}

func TestDiscoverAllProtocolsAgree(t *testing.T) {
	rel := employeeRelation(t)
	want := baseline.MinimalFDs(rel)
	for _, p := range allProtocols() {
		t.Run(p.String(), func(t *testing.T) {
			db, err := Outsource(NewServer(), rel, Options{Protocol: p, Workers: 2})
			if err != nil {
				t.Fatalf("Outsource: %v", err)
			}
			defer db.Close()
			report, err := db.Discover()
			if err != nil {
				t.Fatalf("Discover: %v", err)
			}
			if !relation.FDSetEqual(report.Minimal, want) {
				t.Errorf("Minimal = %v, want %v", report.Minimal, want)
			}
			if len(report.Aggregated) == 0 || len(report.Aggregated) > len(report.Minimal) {
				t.Errorf("Aggregated size %d vs minimal %d", len(report.Aggregated), len(report.Minimal))
			}
			if report.Checks == 0 || report.SetsMaterialized == 0 {
				t.Errorf("work counters empty: %+v", report)
			}
		})
	}
}

func TestDiscoverFindsPositionDepartment(t *testing.T) {
	rel := employeeRelation(t)
	db, err := Outsource(NewServer(), rel, Options{Protocol: ProtocolSort})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	report, err := db.Discover()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, fd := range report.Minimal {
		if fd.LHS == NewAttrSet(0) && fd.RHS == NewAttrSet(1) {
			found = true
		}
	}
	if !found {
		t.Errorf("Position -> Department missing from %v", report.Minimal)
	}
}

func TestValidate(t *testing.T) {
	rel := employeeRelation(t)
	for _, p := range []Protocol{ProtocolSort, ProtocolDynamicORAM} {
		db, err := Outsource(NewServer(), rel, Options{Protocol: p})
		if err != nil {
			t.Fatal(err)
		}
		holds, err := db.Validate(NewAttrSet(0), NewAttrSet(1))
		if err != nil || !holds {
			t.Errorf("%v: Position -> Department = %v, %v", p, holds, err)
		}
		holds, err = db.Validate(NewAttrSet(1), NewAttrSet(0))
		if err != nil || holds {
			t.Errorf("%v: Department -> Position = %v, %v", p, holds, err)
		}
		db.Close()
	}
}

func TestDynamicLifecycle(t *testing.T) {
	rel := employeeRelation(t)
	db, err := Outsource(NewServer(), rel, Options{
		Protocol:       ProtocolDynamicORAM,
		InsertHeadroom: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Discover(); err != nil {
		t.Fatal(err)
	}
	// Violate Position -> Department, re-validate via cardinalities.
	id, err := db.Insert(Row{"Engineer", "Support", "B9"})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	pos, _ := db.Cardinality(NewAttrSet(0))
	posDep, _ := db.Cardinality(NewAttrSet(0, 1))
	if pos == posDep {
		t.Error("FD still holds after violating insert")
	}
	if err := db.Delete(id); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	pos, _ = db.Cardinality(NewAttrSet(0))
	posDep, _ = db.Cardinality(NewAttrSet(0, 1))
	if pos != posDep {
		t.Error("FD did not recover after delete")
	}
	if db.NumRows() != rel.NumRows() {
		t.Errorf("NumRows = %d, want %d", db.NumRows(), rel.NumRows())
	}
}

func TestStaticProtocolsRejectMutation(t *testing.T) {
	rel := employeeRelation(t)
	db, err := Outsource(NewServer(), rel, Options{Protocol: ProtocolSort})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Insert(Row{"a", "b", "c"}); !errors.Is(err, ErrStatic) {
		t.Errorf("Insert on sort err = %v", err)
	}
	if err := db.Delete(0); !errors.Is(err, ErrStatic) {
		t.Errorf("Delete on sort err = %v", err)
	}
	// Or-ORAM: insert OK (with headroom), delete rejected.
	db2, err := Outsource(NewServer(), rel, Options{Protocol: ProtocolORAM, InsertHeadroom: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Insert(Row{"a", "b", "c"}); err != nil {
		t.Errorf("Insert on or-oram: %v", err)
	}
	if err := db2.Delete(0); !errors.Is(err, ErrStatic) {
		t.Errorf("Delete on or-oram err = %v", err)
	}
}

func TestOutsourceValidation(t *testing.T) {
	schema, _ := NewSchema("a")
	empty := NewRelation(schema)
	if _, err := Outsource(NewServer(), empty, Options{}); err == nil {
		t.Error("empty relation accepted")
	}
	rel := employeeRelation(t)
	if _, err := Outsource(NewServer(), rel, Options{Protocol: Protocol(99)}); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestProtocolParseAndString(t *testing.T) {
	for _, p := range allProtocols() {
		got, err := ParseProtocol(p.String())
		if err != nil || got != p {
			t.Errorf("round trip %v: %v, %v", p, got, err)
		}
	}
	// The names help and error texts print are exactly the ones that parse.
	names := strings.Split(ProtocolNames(), "|")
	if len(names) != len(allProtocols()) {
		t.Errorf("ProtocolNames() = %q, want one name per protocol", ProtocolNames())
	}
	for i, name := range names {
		if p, err := ParseProtocol(name); err != nil || p != allProtocols()[i] {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", name, p, err, allProtocols()[i])
		}
	}
	if _, err := ParseProtocol("nope"); err == nil || !strings.Contains(err.Error(), ProtocolNames()) {
		t.Errorf("unknown name: err = %v, want one listing %s", err, ProtocolNames())
	}
	if Protocol(99).String() == "" {
		t.Error("unknown protocol renders empty")
	}
}

func TestDiscoverOverTCP(t *testing.T) {
	backend := NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = ServeTCP(l, backend) }()

	svc, err := DialTCP(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	rel := employeeRelation(t)
	db, err := Outsource(svc, rel, Options{Protocol: ProtocolSort})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	report, err := db.Discover()
	if err != nil {
		t.Fatalf("Discover over TCP: %v", err)
	}
	want := baseline.MinimalFDs(rel)
	if !relation.FDSetEqual(report.Minimal, want) {
		t.Errorf("Minimal over TCP = %v, want %v", report.Minimal, want)
	}
	// The server's public log holds only FD decisions.
	for _, rv := range backend.Reveals() {
		if rv.Value != 0 && rv.Value != 1 {
			t.Errorf("non-boolean reveal %v", rv)
		}
	}
	if len(backend.Reveals()) == 0 {
		t.Error("no reveals logged")
	}
}

func TestGenerateDatasetAndCSVRoundTrip(t *testing.T) {
	rel, err := GenerateDataset("adult", 25, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 25 || rel.NumAttrs() != 14 {
		t.Errorf("adult shape = %dx%d", rel.NumAttrs(), rel.NumRows())
	}
	path := t.TempDir() + "/a.csv"
	if err := WriteCSVFile(path, rel); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 25 {
		t.Errorf("rows after round trip = %d", back.NumRows())
	}
	r := GenerateRND(4, 10, 2)
	if r.NumAttrs() != 4 || r.NumRows() != 10 {
		t.Errorf("rnd shape = %dx%d", r.NumAttrs(), r.NumRows())
	}
}
