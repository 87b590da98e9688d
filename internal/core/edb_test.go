package core

import (
	"errors"
	"fmt"
	"testing"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
)

func TestUploadAndCellValue(t *testing.T) {
	rel := testRelation()
	srv := store.NewServer()
	edb, err := Upload(srv, crypto.MustNewCipher(crypto.MustNewKey()), "emp", rel)
	if err != nil {
		t.Fatalf("Upload: %v", err)
	}
	if edb.NumRows() != 4 || edb.NumAttrs() != 3 || edb.Name() != "emp" {
		t.Errorf("metadata: rows=%d attrs=%d name=%q", edb.NumRows(), edb.NumAttrs(), edb.Name())
	}
	for i := 0; i < rel.NumRows(); i++ {
		for j := 0; j < rel.NumAttrs(); j++ {
			got, err := edb.CellValue(i, j)
			if err != nil {
				t.Fatalf("CellValue(%d,%d): %v", i, j, err)
			}
			if got != rel.Value(i, j) {
				t.Errorf("cell (%d,%d) = %q, want %q", i, j, got, rel.Value(i, j))
			}
		}
	}
}

func TestUploadServerSeesOnlyCiphertexts(t *testing.T) {
	rel := testRelation()
	srv := store.NewServer()
	if _, err := Upload(srv, crypto.MustNewCipher(crypto.MustNewKey()), "emp", rel); err != nil {
		t.Fatal(err)
	}
	cts, err := srv.ReadCells("db:emp:col0", []int64{0})
	if err != nil {
		t.Fatal(err)
	}
	if string(cts[0]) == "Alice" {
		t.Error("plaintext stored on server")
	}
	if len(cts[0]) != len("Alice")+crypto.Overhead {
		t.Errorf("ciphertext length = %d, want %d", len(cts[0]), len("Alice")+crypto.Overhead)
	}
}

func TestUploadWithCapacityValidation(t *testing.T) {
	rel := testRelation()
	srv := store.NewServer()
	c := crypto.MustNewCipher(crypto.MustNewKey())
	if _, err := upload(srv, c, "x", rel, 2); err == nil {
		t.Error("capacity below row count accepted")
	}
	empty := relation.New(rel.Schema())
	if _, err := upload(srv, c, "y", empty, 0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestAppendRow(t *testing.T) {
	rel := testRelation()
	srv := store.NewServer()
	edb, err := upload(srv, crypto.MustNewCipher(crypto.MustNewKey()), "emp", rel, 5)
	if err != nil {
		t.Fatal(err)
	}
	id, err := edb.AppendRow(relation.Row{"Dave", "Chicago", "Feb"})
	if err != nil {
		t.Fatalf("AppendRow: %v", err)
	}
	if id != 4 || edb.NumRows() != 5 {
		t.Errorf("id=%d rows=%d", id, edb.NumRows())
	}
	got, err := edb.CellValue(4, 1)
	if err != nil || got != "Chicago" {
		t.Errorf("appended cell = %q, %v", got, err)
	}
	if _, err := edb.AppendRow(relation.Row{"Eve", "Austin", "Mar"}); err == nil {
		t.Error("append beyond capacity accepted")
	}
	if _, err := edb.AppendRow(relation.Row{"short"}); err == nil {
		t.Error("bad-width append accepted")
	}
}

func TestEncryptedDBDelete(t *testing.T) {
	rel := testRelation()
	srv := store.NewServer()
	edb, err := Upload(srv, crypto.MustNewCipher(crypto.MustNewKey()), "emp", rel)
	if err != nil {
		t.Fatal(err)
	}
	if err := edb.Delete(); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	st, _ := srv.Stats()
	if st.Objects != 0 {
		t.Errorf("objects after delete = %d", st.Objects)
	}
}

func TestUploadEmptyRelationWithCapacity(t *testing.T) {
	srv := store.NewServer()
	empty := relation.New(relation.MustNewSchema("a", "b"))
	edb, err := upload(srv, crypto.MustNewCipher(crypto.MustNewKey()), "grow", empty, 8)
	if err != nil {
		t.Fatalf("empty upload: %v", err)
	}
	if edb.NumRows() != 0 {
		t.Errorf("rows = %d", edb.NumRows())
	}
	if _, err := edb.AppendRow(relation.Row{"1", "2"}); err != nil {
		t.Fatalf("append into empty db: %v", err)
	}
	v, err := edb.CellValue(0, 0)
	if err != nil || v != "1" {
		t.Errorf("cell = %q, %v", v, err)
	}
}

// TestColumnCellsAreLocationBound: a column cell is sealed to its column and
// row, so a server that answers a read with another row's cell of the same
// column, or with the same row's cell of another column, is refused.
func TestColumnCellsAreLocationBound(t *testing.T) {
	srv := store.NewServer()
	edb, err := Upload(srv, crypto.MustNewCipher(crypto.MustNewKey()), "emp", testRelation())
	if err != nil {
		t.Fatal(err)
	}
	for _, from := range []struct{ col, row int64 }{{0, 1}, {1, 0}} {
		cts, err := srv.ReadCells(fmt.Sprintf("db:emp:col%d", from.col), []int64{from.row})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.WriteCells("db:emp:col0", []int64{0}, cts); err != nil {
			t.Fatal(err)
		}
		if v, err := edb.CellValue(0, 0); !errors.Is(err, store.ErrIntegrity) {
			t.Errorf("cell (%d,%d) moved to (0,0) reads %q, %v; want ErrIntegrity", from.row, from.col, v, err)
		}
	}
}
