// Package schema describes the relational structure of a Prism source
// database: tables, typed columns, foreign keys, and the per-column
// statistics ("metadata") collected during preprocessing that low-resolution
// metadata constraints are checked against.
package schema

import (
	"fmt"
	"strings"

	"prism/internal/value"
)

// Column describes one attribute of a table.
type Column struct {
	// Name is the attribute name, unique within its table.
	Name string
	// Type is the declared data type of the column.
	Type value.Kind
	// Comment is optional human-readable documentation.
	Comment string
}

// ColumnRef names a column globally as Table.Column.
type ColumnRef struct {
	Table  string
	Column string
}

// String renders the reference in SQL dotted notation.
func (r ColumnRef) String() string { return r.Table + "." + r.Column }

// Less orders references lexicographically; used for canonicalisation.
func (r ColumnRef) Less(o ColumnRef) bool {
	if r.Table != o.Table {
		return r.Table < o.Table
	}
	return r.Column < o.Column
}

// ForeignKey declares that From references To (a key join edge in the
// schema graph). Prism enumerates join trees along these edges.
type ForeignKey struct {
	From ColumnRef
	To   ColumnRef
}

// String renders the foreign key as "a.b -> c.d".
func (fk ForeignKey) String() string { return fk.From.String() + " -> " + fk.To.String() }

// EdgeSignature renders the equi-join a = b independently of its direction
// and of letter case: the two ends lower-cased, ordered and joined by "=".
// A join tree's Canonical signature, the decomposer's edge ids and the
// normalised SQL's join order all read it, so two joins with equal
// signatures are one edge everywhere.
func EdgeSignature(a, b ColumnRef) string {
	x, y := strings.ToLower(a.String()), strings.ToLower(b.String())
	if x > y {
		x, y = y, x
	}
	return x + "=" + y
}

// Table is the schema of one relation.
type Table struct {
	Name    string
	Columns []Column
	// PrimaryKey lists column names forming the primary key (may be empty).
	PrimaryKey []string
	Comment    string

	byName map[string]int
}

// NewTable constructs a table schema and validates column-name uniqueness.
func NewTable(name string, cols ...Column) (*Table, error) {
	if strings.TrimSpace(name) == "" {
		return nil, fmt.Errorf("schema: table name must not be empty")
	}
	t := &Table{Name: name, Columns: append([]Column(nil), cols...), byName: make(map[string]int, len(cols))}
	for i, c := range t.Columns {
		if strings.TrimSpace(c.Name) == "" {
			return nil, fmt.Errorf("schema: table %s: column %d has empty name", name, i)
		}
		key := strings.ToLower(c.Name)
		if _, dup := t.byName[key]; dup {
			return nil, fmt.Errorf("schema: table %s: duplicate column %q", name, c.Name)
		}
		t.byName[key] = i
	}
	return t, nil
}

// MustTable is NewTable that panics on error; for use in tests and
// deterministic dataset construction.
func MustTable(name string, cols ...Column) *Table {
	t, err := NewTable(name, cols...)
	if err != nil {
		panic(err)
	}
	return t
}

// ColumnIndex returns the position of the named column (case-insensitive),
// or -1 when absent. It only reads, so the parallel set-up builders may call
// it from several goroutines.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.byName[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// Column returns the column with the given name.
func (t *Table) Column(name string) (Column, bool) {
	i := t.ColumnIndex(name)
	if i < 0 {
		return Column{}, false
	}
	return t.Columns[i], true
}

// Arity returns the number of columns.
func (t *Table) Arity() int { return len(t.Columns) }

// Schema is the full database schema: tables plus foreign-key edges.
type Schema struct {
	tables      map[string]*Table
	order       []string // table names in registration order
	foreignKeys []ForeignKey
}

// New returns an empty schema.
func New() *Schema {
	return &Schema{tables: make(map[string]*Table)}
}

// AddTable registers a table built by NewTable. Table names are
// case-insensitive and must be unique.
func (s *Schema) AddTable(t *Table) error {
	if t == nil || t.byName == nil {
		return fmt.Errorf("schema: table not built by NewTable")
	}
	key := strings.ToLower(t.Name)
	if _, dup := s.tables[key]; dup {
		return fmt.Errorf("schema: duplicate table %q", t.Name)
	}
	s.tables[key] = t
	s.order = append(s.order, t.Name)
	return nil
}

// Table looks up a table by name (case-insensitive).
func (s *Schema) Table(name string) (*Table, bool) {
	t, ok := s.tables[strings.ToLower(name)]
	return t, ok
}

// Tables returns the registered tables in registration order.
func (s *Schema) Tables() []*Table {
	out := make([]*Table, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, s.tables[strings.ToLower(name)])
	}
	return out
}

// Resolve validates a column reference against the schema and returns the
// canonical casing of the table and column names.
func (s *Schema) Resolve(ref ColumnRef) (ColumnRef, error) {
	t, ok := s.Table(ref.Table)
	if !ok {
		return ColumnRef{}, fmt.Errorf("schema: unknown table %q", ref.Table)
	}
	i := t.ColumnIndex(ref.Column)
	if i < 0 {
		return ColumnRef{}, fmt.Errorf("schema: unknown column %q in table %q", ref.Column, ref.Table)
	}
	return ColumnRef{Table: t.Name, Column: t.Columns[i].Name}, nil
}

// AddForeignKey registers a join edge after validating both endpoints.
func (s *Schema) AddForeignKey(fk ForeignKey) error {
	from, err := s.Resolve(fk.From)
	if err != nil {
		return fmt.Errorf("schema: foreign key %s: %w", fk, err)
	}
	to, err := s.Resolve(fk.To)
	if err != nil {
		return fmt.Errorf("schema: foreign key %s: %w", fk, err)
	}
	if strings.EqualFold(from.Table, to.Table) {
		return fmt.Errorf("schema: self-referencing foreign key %s not supported", fk)
	}
	s.foreignKeys = append(s.foreignKeys, ForeignKey{From: from, To: to})
	return nil
}

// ForeignKeys returns the registered join edges.
func (s *Schema) ForeignKeys() []ForeignKey {
	return append([]ForeignKey(nil), s.foreignKeys...)
}

// String renders a compact textual description of the schema, one table per
// line plus the foreign keys. Useful for debugging and golden tests.
func (s *Schema) String() string {
	var b strings.Builder
	for _, t := range s.Tables() {
		b.WriteString(t.Name)
		b.WriteByte('(')
		for i, c := range t.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.Name)
			b.WriteByte(' ')
			b.WriteString(c.Type.String())
		}
		b.WriteString(")\n")
	}
	for _, fk := range s.foreignKeys {
		b.WriteString("  FK ")
		b.WriteString(fk.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Stats holds the column metadata Prism collects during preprocessing and
// checks low-resolution metadata constraints against: declared type, value
// range, maximum text length, row/null/distinct counts.
type Stats struct {
	Ref       ColumnRef
	Type      value.Kind
	Min       value.Value // NULL when the column has no non-null values
	Max       value.Value
	MaxLength int // maximum rendered text length in runes
	RowCount  int
	NullCount int
	Distinct  int
}

// NonNullCount returns the number of non-null entries.
func (st Stats) NonNullCount() int { return st.RowCount - st.NullCount }

// String renders the stats compactly.
func (st Stats) String() string {
	return fmt.Sprintf("%s type=%s min=%s max=%s maxlen=%d rows=%d nulls=%d distinct=%d",
		st.Ref, st.Type, st.Min, st.Max, st.MaxLength, st.RowCount, st.NullCount, st.Distinct)
}

// StatsCollector incrementally accumulates Stats for one column: everything
// but the distinct count, which takes a dictionary of the values seen — the
// column's key dictionary (exec.ColumnIndex), whose pass the collector rides.
type StatsCollector struct{ st Stats }

// NewStatsCollector creates a collector for the given column.
func NewStatsCollector(ref ColumnRef, typ value.Kind) *StatsCollector {
	return &StatsCollector{Stats{Ref: ref, Type: typ, Min: value.NullValue, Max: value.NullValue}}
}

// Add accumulates one cell value.
func (c *StatsCollector) Add(v value.Value) {
	c.st.RowCount++
	if v.IsNull() {
		c.st.NullCount++
		return
	}
	if l := v.TextLength(); l > c.st.MaxLength {
		c.st.MaxLength = l
	}
	if c.st.Min.IsNull() || v.Less(c.st.Min) {
		c.st.Min = v
	}
	if c.st.Max.IsNull() || c.st.Max.Less(v) {
		c.st.Max = v
	}
}

// Stats returns the accumulated statistics; distinct is the number of
// distinct non-null values (by Value.Key) among the cells added.
func (c *StatsCollector) Stats(distinct int) Stats {
	c.st.Distinct = distinct
	return c.st
}
