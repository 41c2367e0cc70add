// Package mem implements Prism's in-memory relational engine: the substrate
// the paper runs on top of a conventional DBMS.
//
// A database loads typed rows until Analyze, the paper's preprocessing step,
// freezes it. The freeze builds one key dictionary per column
// (exec.ColumnIndex: which rows hold which value and which keyword, read by
// the statistics, the Bayesian model, related-column search and the columnar
// executor alike — the DBMS inverted index the paper leverages) and the
// per-column statistics (the "metadata collected during preprocessing" of
// §2.3), then drops the rows: from then on the dictionaries store the
// database, each column once, and writes are refused with ErrFrozen. The
// package also executes Project-Join query plans row by row, the reference
// the columnar executor is checked against.
package mem

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"prism/internal/exec"
	"prism/internal/par"
	"prism/internal/schema"
	"prism/internal/value"
)

// ErrFrozen is returned by every write (Insert, InsertStrings, BulkInsert,
// LoadCSV) to a database that Analyze has frozen; the write changes nothing.
var ErrFrozen = errors.New("mem: database is analysed and refuses writes")

// Relation is a copy of one table's rows.
//
// Deprecated: ROADMAP item 0f. A frozen database stores no rows, so
// Relation materialises all of them from the key dictionaries; read rows
// with SampleRows and a column with ColumnValues.
type Relation struct {
	Schema *schema.Table
	Rows   []value.Tuple
}

// table is one relation: its rows while the database loads, and once it is
// frozen the key dictionary and statistics of every column instead.
type table struct {
	schema *schema.Table
	n      int                 // row count
	rows   []value.Tuple       // the load buffer, nil once frozen
	cols   []*exec.ColumnIndex // column ci's key dictionary, once frozen
	stats  []schema.Stats      // column ci's statistics, once frozen
}

// column returns the cells of column ci in rows [0, n). Every reader of
// stored cells goes through it: before the freeze it copies them out of the
// load buffer, after it reads them off the column's key dictionary
// (ColumnIndex.Value), then their only copy.
func (t *table) column(ci, n int) []value.Value {
	out := make([]value.Value, n)
	if t.cols == nil {
		for row := range out {
			out[row] = t.rows[row][ci]
		}
		return out
	}
	x := t.cols[ci]
	for row := range out {
		out[row] = x.Value(int32(row))
	}
	return out
}

// tuples returns rows [0, n) of t as fresh tuples, filled column by column.
func (t *table) tuples(n int) []value.Tuple {
	w := len(t.schema.Columns)
	cells := make(value.Tuple, n*w)
	out := make([]value.Tuple, n)
	for row := range out {
		out[row] = cells[row*w : (row+1)*w : (row+1)*w]
	}
	for ci := 0; ci < w; ci++ {
		for row, v := range t.column(ci, n) {
			out[row][ci] = v
		}
	}
	return out
}

// Database is an in-memory relational database instance. It loads rows
// until Analyze freezes it; a frozen database is safe for any number of
// concurrent readers. Loading must not race with reads.
type Database struct {
	Name string

	sch    *schema.Schema
	tables map[string]*table // key: lower(table name)

	mu sync.Mutex // serialises writes and the freeze
	// version counts the rows inserted. Filter outcomes are ground truths
	// of one version of the database, so session caches key on it; it is
	// constant once the database is frozen.
	version uint64
	frozen  atomic.Bool
}

// NewDatabase creates an empty database over the given schema.
func NewDatabase(name string, sch *schema.Schema) *Database {
	db := &Database{
		Name:   name,
		sch:    sch,
		tables: make(map[string]*table),
	}
	for _, t := range sch.Tables() {
		db.tables[strings.ToLower(t.Name)] = &table{schema: t}
	}
	return db
}

// Schema returns the database schema.
func (db *Database) Schema() *schema.Schema { return db.sch }

func (db *Database) table(name string) (*table, bool) {
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
}

// find returns the table of ref and the position of its column.
func (db *Database) find(ref schema.ColumnRef) (*table, int, error) {
	t, ok := db.table(ref.Table)
	if !ok {
		return nil, 0, fmt.Errorf("mem: unknown table %q", ref.Table)
	}
	ci := t.schema.ColumnIndex(ref.Column)
	if ci < 0 {
		return nil, 0, fmt.Errorf("mem: unknown column %q in table %q", ref.Column, ref.Table)
	}
	return t, ci, nil
}

// Relation returns a copy of the named table's rows.
//
// Deprecated: ROADMAP item 0f, as the Relation type.
func (db *Database) Relation(name string) (*Relation, bool) {
	t, ok := db.table(name)
	if !ok {
		return nil, false
	}
	return &Relation{Schema: t.schema, Rows: t.tuples(t.n)}, true
}

// NumRows returns the number of rows stored for table, or 0 if unknown.
func (db *Database) NumRows(table string) int {
	if t, ok := db.table(table); ok {
		return t.n
	}
	return 0
}

// TotalRows returns the number of rows across all tables.
func (db *Database) TotalRows() int {
	n := 0
	for _, t := range db.tables {
		n += t.n
	}
	return n
}

// writable returns ErrFrozen once the database is frozen.
func (db *Database) writable(table string) error {
	if db.frozen.Load() {
		return fmt.Errorf("%w (a write to %s)", ErrFrozen, table)
	}
	return nil
}

// Insert appends a tuple to the named table. Values are coerced to the
// declared column types; incompatible values are an error.
func (db *Database) Insert(table string, tuple value.Tuple) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.writable(table); err != nil {
		return err
	}
	t, ok := db.table(table)
	if !ok {
		return fmt.Errorf("mem: unknown table %q", table)
	}
	if len(tuple) != t.schema.Arity() {
		return fmt.Errorf("mem: table %s expects %d values, got %d", t.schema.Name, t.schema.Arity(), len(tuple))
	}
	row := make(value.Tuple, len(tuple))
	for i, v := range tuple {
		if v.IsNull() {
			row[i] = value.NullValue
			continue
		}
		want := t.schema.Columns[i].Type
		coerced, ok := v.Coerce(want)
		if !ok {
			return fmt.Errorf("mem: table %s column %s: cannot store %s value %q as %s",
				t.schema.Name, t.schema.Columns[i].Name, v.Kind(), v.String(), want)
		}
		row[i] = coerced
	}
	t.rows = append(t.rows, row)
	t.n++
	db.version++
	return nil
}

// Version returns the data version of the database: the number of rows
// inserted, constant once the database is frozen. Session caches include it
// in their keys.
func (db *Database) Version() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.version
}

// InsertStrings parses and inserts a row given as raw strings, coercing each
// cell to the declared column type.
func (db *Database) InsertStrings(table string, cells ...string) error {
	if err := db.writable(table); err != nil {
		return err
	}
	t, ok := db.table(table)
	if !ok {
		return fmt.Errorf("mem: unknown table %q", table)
	}
	if len(cells) != t.schema.Arity() {
		return fmt.Errorf("mem: table %s expects %d values, got %d", t.schema.Name, t.schema.Arity(), len(cells))
	}
	tuple := make(value.Tuple, len(cells))
	for i, cell := range cells {
		v, err := value.ParseAs(cell, t.schema.Columns[i].Type)
		if err != nil {
			return fmt.Errorf("mem: table %s column %s: %w", t.schema.Name, t.schema.Columns[i].Name, err)
		}
		tuple[i] = v
	}
	return db.Insert(table, tuple)
}

// BulkInsert inserts many tuples into the named table.
func (db *Database) BulkInsert(table string, tuples []value.Tuple) error {
	if err := db.writable(table); err != nil {
		return err
	}
	for _, t := range tuples {
		if err := db.Insert(table, t); err != nil {
			return err
		}
	}
	return nil
}

// Analyze freezes the database. It builds the key dictionary and the
// statistics of every column — the paper's preprocessing step, which the
// lookup methods below need — and drops the rows: the dictionaries store
// the database from then on, and writes are refused (ErrFrozen). Columns
// are independent of one another and are built in parallel; what is built
// is a function of the data alone. Calling it again does nothing.
func (db *Database) Analyze() {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.frozen.Load() {
		return
	}
	type column struct {
		t  *table
		ci int
	}
	var cols []column
	for _, ts := range db.sch.Tables() {
		t := db.tables[strings.ToLower(ts.Name)]
		t.cols, t.stats = make([]*exec.ColumnIndex, len(ts.Columns)), make([]schema.Stats, len(ts.Columns))
		for ci := range ts.Columns {
			cols = append(cols, column{t, ci})
		}
	}
	par.Do(len(cols), func(i int) {
		t, ci := cols[i].t, cols[i].ci
		c := t.schema.Columns[ci]
		ref := schema.ColumnRef{Table: t.schema.Name, Column: c.Name}
		t.cols[ci], t.stats[ci] = exec.NewColumnIndex(ref, c.Type, t.rows, ci)
	})
	for _, t := range db.tables {
		t.rows = nil
	}
	db.frozen.Store(true)
}

// ColumnIndex implements exec.Source: the key dictionary Analyze built, the
// column's storage. An unanalysed database has none.
func (db *Database) ColumnIndex(ref schema.ColumnRef) (*exec.ColumnIndex, error) {
	t, ci, err := db.find(ref)
	if err != nil {
		return nil, err
	}
	if !db.frozen.Load() {
		return nil, fmt.Errorf("mem: column %s: database %s is not analysed", ref, db.Name)
	}
	return t.cols[ci], nil
}

// Analyzed reports whether Analyze has frozen the database.
func (db *Database) Analyzed() bool { return db.frozen.Load() }

// Stats returns the preprocessed statistics for a column.
func (db *Database) Stats(ref schema.ColumnRef) (schema.Stats, bool) {
	t, ci, err := db.find(ref)
	if err != nil || !db.frozen.Load() {
		return schema.Stats{}, false
	}
	return t.stats[ci], true
}

// AllStats returns statistics for every column, sorted by column reference.
func (db *Database) AllStats() []schema.Stats {
	out := make([]schema.Stats, 0)
	if db.frozen.Load() {
		for _, t := range db.tables {
			out = append(out, t.stats...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ref.Less(out[j].Ref) })
	return out
}

// ColumnHasKeyword reports whether some value of the given column matches
// the keyword as Value.MatchesKeyword does: a keyword that parses as a number
// when some value's numeric view equals it (never for NaN), any other when a
// value of the column renders as it, normalised (the key dictionary's Text)
// — the lookup the columnar executor seeds a keyword selection with
// (exec.ColumnIndex.KeywordIDs), so related-column search accepts every
// spelling the executor accepts. It answers false until the database is
// analysed.
func (db *Database) ColumnHasKeyword(ref schema.ColumnRef, keyword string) bool {
	x, err := db.ColumnIndex(ref)
	return err == nil && len(x.KeywordIDs(keyword)) > 0
}

// ColumnValues returns all values stored in the given column, in row order.
func (db *Database) ColumnValues(ref schema.ColumnRef) ([]value.Value, error) {
	t, ci, err := db.find(ref)
	if err != nil {
		return nil, err
	}
	return t.column(ci, t.n), nil
}
