package core

import (
	"fmt"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
)

// EncryptedDB is the client's handle to an outsourced database: each cell is
// individually encrypted (cell-level encryption, §II-A) and stored in one
// server array per column. The server sees only ciphertexts and their
// positions; ciphertext lengths reveal cell lengths, which is part of the
// accepted size leakage of cell-level encrypted databases.
type EncryptedDB struct {
	svc      store.Service
	cipher   *crypto.Cipher
	name     string
	schema   *relation.Schema
	n        int // rows written (monotonic: appended rows get ids n, n+1, …)
	capacity int
}

// Upload encrypts rel cell by cell and stores it on the server under the
// given database name, in column arrays sized to rel's row count. It builds
// no engine: Open uploads for the engines, with headroom for appended rows.
func Upload(svc store.Service, cipher *crypto.Cipher, name string, rel *relation.Relation) (*EncryptedDB, error) {
	return upload(svc, cipher, name, rel, rel.NumRows())
}

// upload uploads rel into column arrays sized for capacity rows, so the
// client can later append up to capacity-n additional records (the dynamic
// setting of §V).
func upload(svc store.Service, cipher *crypto.Cipher, name string, rel *relation.Relation, capacity int) (*EncryptedDB, error) {
	if capacity < rel.NumRows() {
		return nil, fmt.Errorf("core: capacity %d < %d rows", capacity, rel.NumRows())
	}
	if capacity < 1 {
		return nil, fmt.Errorf("core: capacity must be positive")
	}
	e := &EncryptedDB{
		svc:      svc,
		cipher:   cipher,
		name:     name,
		schema:   rel.Schema(),
		n:        rel.NumRows(),
		capacity: capacity,
	}
	// A column is one batch: its create, then its cells.
	for j := 0; j < rel.NumAttrs(); j++ {
		col, ad := e.columnName(j), e.cellPlace(j)
		ops := []store.BatchOp{store.CreateArrayOp(col, capacity)}
		if n := rel.NumRows(); n > 0 {
			write := store.BatchOp{Write: true, Name: col, Idx: make([]int64, n), Cts: make([][]byte, n)}
			for i := range n {
				ct, err := cipher.Seal([]byte(rel.Value(i, j)), ad.At(int64(i)))
				if err != nil {
					return nil, fmt.Errorf("core: encrypting cell (%d,%d): %w", i, j, err)
				}
				write.Idx[i], write.Cts[i] = int64(i), ct
			}
			ops = append(ops, write)
		}
		if _, err := store.DoBatch(svc, ops); err != nil {
			return nil, fmt.Errorf("core: uploading column %d: %w", j, err)
		}
	}
	return e, nil
}

// AppendRow encrypts and stores a new record, returning its id. The row
// occupies the next free slot of every column, written in one round;
// capacity bounds total appends.
func (e *EncryptedDB) AppendRow(row relation.Row) (int, error) {
	if len(row) != e.schema.Width() {
		return 0, fmt.Errorf("%w: row has %d values, schema %d", ErrRowWidth, len(row), e.schema.Width())
	}
	if e.n >= e.capacity {
		return 0, fmt.Errorf("core: database full (%d rows, capacity %d)", e.n, e.capacity)
	}
	id := e.n
	idx := []int64{int64(id)}
	ops := make([]store.BatchOp, len(row))
	for j, v := range row {
		ct, err := e.cipher.Seal([]byte(v), e.cellPlace(j).At(int64(id)))
		if err != nil {
			return 0, fmt.Errorf("core: encrypting appended cell %d: %w", j, err)
		}
		ops[j] = store.BatchOp{Write: true, Name: e.columnName(j), Idx: idx, Cts: [][]byte{ct}}
	}
	if _, err := store.DoBatch(e.svc, ops); err != nil {
		return 0, fmt.Errorf("core: appending row %d: %w", id, err)
	}
	e.n++
	return id, nil
}

// Capacity returns the maximum row count.
func (e *EncryptedDB) Capacity() int { return e.capacity }

func (e *EncryptedDB) columnName(j int) string {
	return fmt.Sprintf("db:%s:col%d", e.name, j)
}

// cellPlace binds a cell ciphertext of column j to its row, as
// "cell:<column name>:<i>". The column arrays are append-only — a cell is
// written once and never moves — so location binding alone makes cross-cell
// substitution detectable; there is no version to track.
func (e *EncryptedDB) cellPlace(j int) crypto.Place {
	return crypto.NewPlace("cell:" + e.columnName(j) + ":")
}

// Name returns the database name.
func (e *EncryptedDB) Name() string { return e.name }

// Schema returns the schema (attribute names are metadata the server knows).
func (e *EncryptedDB) Schema() *relation.Schema { return e.schema }

// NumRows returns n.
func (e *EncryptedDB) NumRows() int { return e.n }

// NumAttrs returns m.
func (e *EncryptedDB) NumAttrs() int { return e.schema.Width() }

// CellValue retrieves and decrypts one cell: the server transfers the
// ciphertext of r_i[X], the client decrypts it (Algorithm 1 line 4).
func (e *EncryptedDB) CellValue(i, j int) (string, error) {
	cts, err := e.svc.ReadCells(e.columnName(j), []int64{int64(i)})
	if err != nil {
		return "", fmt.Errorf("core: reading cell (%d,%d): %w", i, j, err)
	}
	pt, err := e.cipher.Open(cts[0], e.cellPlace(j).At(int64(i)))
	if err != nil {
		return "", fmt.Errorf("core: cell (%d,%d) of %q failed verification: %v: %w", i, j, e.name, err, store.ErrIntegrity)
	}
	return string(pt), nil
}

// CellValues retrieves and decrypts the cells (lo..hi-1, j) of one column
// in a single ReadCells round. Callers bound hi-lo to a constant chunk to
// keep client memory O(1); the server still records one access per cell.
func (e *EncryptedDB) CellValues(lo, hi, j int) ([]string, error) {
	if lo < 0 || hi > e.n || lo > hi {
		return nil, fmt.Errorf("core: cell range [%d,%d) out of [0,%d)", lo, hi, e.n)
	}
	idx := make([]int64, hi-lo)
	for k := range idx {
		idx[k] = int64(lo + k)
	}
	cts, err := e.svc.ReadCells(e.columnName(j), idx)
	if err != nil {
		return nil, fmt.Errorf("core: reading %d cells of column %d: %w", len(idx), j, err)
	}
	return e.openCells(cts, idx, j)
}

// openCells opens the ciphertexts of the listed rows of column j, which need
// not be adjacent.
func (e *EncryptedDB) openCells(cts [][]byte, rows []int64, j int) ([]string, error) {
	out := make([]string, len(cts))
	ad := e.cellPlace(j)
	for k, ct := range cts {
		i := int(rows[k])
		pt, err := e.cipher.Open(ct, ad.At(rows[k]))
		if err != nil {
			return nil, fmt.Errorf("core: cell (%d,%d) of %q failed verification: %v: %w", i, j, e.name, err, store.ErrIntegrity)
		}
		out[k] = string(pt)
	}
	return out, nil
}

// Delete removes the database's column arrays from the server.
func (e *EncryptedDB) Delete() error {
	for j := 0; j < e.schema.Width(); j++ {
		if err := e.svc.Delete(e.columnName(j)); err != nil {
			return fmt.Errorf("core: deleting column %d: %w", j, err)
		}
	}
	return nil
}
