package relation

import (
	"fmt"
	"strings"
)

// Schema describes the attributes (columns) of a relation.
type Schema struct {
	names []string
	index map[string]int
}

// NewSchema builds a schema from attribute names. Names must be unique.
func NewSchema(names ...string) (*Schema, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("relation: schema needs at least one attribute")
	}
	if len(names) > MaxAttrs {
		return nil, fmt.Errorf("relation: %d attributes exceeds maximum %d", len(names), MaxAttrs)
	}
	s := &Schema{names: append([]string(nil), names...), index: make(map[string]int, len(names))}
	for i, n := range names {
		if n == "" {
			return nil, fmt.Errorf("relation: attribute %d has empty name", i)
		}
		if _, dup := s.index[n]; dup {
			return nil, fmt.Errorf("relation: duplicate attribute name %q", n)
		}
		s.index[n] = i
	}
	return s, nil
}

// MustNewSchema is NewSchema that panics on error, for tests and literals.
func MustNewSchema(names ...string) *Schema {
	s, err := NewSchema(names...)
	if err != nil {
		panic(err)
	}
	return s
}

// Width returns the number of attributes m.
func (s *Schema) Width() int { return len(s.names) }

// Name returns the name of attribute i.
func (s *Schema) Name(i int) string { return s.names[i] }

// Names returns a copy of all attribute names in order.
func (s *Schema) Names() []string { return append([]string(nil), s.names...) }

// Index returns the index of the named attribute and whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Set builds an AttrSet from attribute names.
func (s *Schema) Set(names ...string) (AttrSet, error) {
	var set AttrSet
	for _, n := range names {
		i, ok := s.index[n]
		if !ok {
			return 0, fmt.Errorf("relation: unknown attribute %q", n)
		}
		set = set.Add(i)
	}
	return set, nil
}

// MustSet is Set that panics on unknown names.
func (s *Schema) MustSet(names ...string) AttrSet {
	set, err := s.Set(names...)
	if err != nil {
		panic(err)
	}
	return set
}

// Row is one record's attribute values, indexed by attribute position.
type Row []string

// Relation is a plaintext table: a schema plus n rows. Row i has implicit
// identifier r[ID] = i (the paper lets r[ID] be the row number, §IV-C).
type Relation struct {
	schema *Schema
	rows   []Row
}

// New builds an empty relation over the schema.
func New(schema *Schema) *Relation {
	return &Relation{schema: schema}
}

// FromRows builds a relation and validates row widths.
func FromRows(schema *Schema, rows []Row) (*Relation, error) {
	r := New(schema)
	for i, row := range rows {
		if err := r.Append(row); err != nil {
			return nil, fmt.Errorf("relation: row %d: %w", i, err)
		}
	}
	return r, nil
}

// MustFromRows is FromRows that panics on error.
func MustFromRows(schema *Schema, rows []Row) *Relation {
	r, err := FromRows(schema, rows)
	if err != nil {
		panic(err)
	}
	return r
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// NumRows returns n.
func (r *Relation) NumRows() int { return len(r.rows) }

// NumAttrs returns m.
func (r *Relation) NumAttrs() int { return r.schema.Width() }

// Row returns row i (not a copy; callers must not mutate it).
func (r *Relation) Row(i int) Row { return r.rows[i] }

// Value returns r_i[attr].
func (r *Relation) Value(i, attr int) string { return r.rows[i][attr] }

// Append adds a row, validating its width.
func (r *Relation) Append(row Row) error {
	if len(row) != r.schema.Width() {
		return fmt.Errorf("row has %d values, schema has %d attributes", len(row), r.schema.Width())
	}
	r.rows = append(r.rows, row)
	return nil
}

// ProjectKey returns the composite value r_i[X] for attribute set X, encoded
// unambiguously (values joined with a length prefix so ("ab","c") and
// ("a","bc") differ).
func (r *Relation) ProjectKey(i int, x AttrSet) string {
	var b strings.Builder
	for _, a := range x.Attrs() {
		v := r.rows[i][a]
		fmt.Fprintf(&b, "%d:", len(v))
		b.WriteString(v)
		b.WriteByte('|')
	}
	return b.String()
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	rows := make([]Row, len(r.rows))
	for i, row := range r.rows {
		rows[i] = append(Row(nil), row...)
	}
	return &Relation{schema: r.schema, rows: rows}
}

// ByteSize returns the total plaintext payload size in bytes (sum of cell
// value lengths), matching Table I's "Size" column semantics.
func (r *Relation) ByteSize() int {
	total := 0
	for _, row := range r.rows {
		for _, v := range row {
			total += len(v)
		}
	}
	return total
}
