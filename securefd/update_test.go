package securefd

import (
	"testing"
)

func TestUpdateReplacesRecord(t *testing.T) {
	rel := employeeRelation(t)
	db, err := Outsource(NewServer(), rel, Options{
		Protocol:       ProtocolDynamicORAM,
		InsertHeadroom: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	report, err := db.Discover()
	if err != nil {
		t.Fatal(err)
	}

	// Update record 0 (Engineer, R&D, B1) to a violating row, then back.
	newID, err := db.Update(0, Row{"Engineer", "Support", "B1"})
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if db.NumRows() != rel.NumRows() {
		t.Errorf("NumRows after update = %d, want %d", db.NumRows(), rel.NumRows())
	}
	rv, err := db.Revalidate(report.Minimal)
	if err != nil {
		t.Fatal(err)
	}
	if len(rv.Invalidated) == 0 {
		t.Error("violating update did not invalidate any FD")
	}
	if _, err := db.Update(newID, Row{"Engineer", "R&D", "B1"}); err != nil {
		t.Fatal(err)
	}
	rv, err = db.Revalidate(report.Minimal)
	if err != nil {
		t.Fatal(err)
	}
	if len(rv.Invalidated) != 0 {
		t.Errorf("FDs still broken after restoring update: %v", rv.Invalidated)
	}
}

func TestUpdateErrors(t *testing.T) {
	rel := employeeRelation(t)
	db, err := Outsource(NewServer(), rel, Options{
		Protocol:       ProtocolDynamicORAM,
		InsertHeadroom: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Discover(); err != nil {
		t.Fatal(err)
	}
	// Unknown id: nothing deleted, nothing inserted.
	before := db.NumRows()
	if _, err := db.Update(99, Row{"a", "b", "c"}); err == nil {
		t.Error("Update of unknown id succeeded")
	}
	if db.NumRows() != before {
		t.Error("failed Update changed row count")
	}
	// Static protocol.
	db2, err := Outsource(NewServer(), rel, Options{Protocol: ProtocolSort})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Update(0, Row{"a", "b", "c"}); err == nil {
		t.Error("Update on static protocol succeeded")
	}
}

func TestDatabaseAccessors(t *testing.T) {
	rel := employeeRelation(t)
	db, err := Outsource(NewServer(), rel, Options{Protocol: ProtocolPlaintext})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Schema() != rel.Schema() {
		t.Error("Schema mismatch")
	}
	if db.NumRows() != rel.NumRows() {
		t.Error("NumRows mismatch")
	}
	if _, ok := db.Cardinality(NewAttrSet(0)); ok {
		t.Error("Cardinality before discovery")
	}
	if _, err := db.Discover(); err != nil {
		t.Fatal(err)
	}
	if db.ClientMemoryBytes() < 0 {
		t.Error("negative client memory")
	}
}
