// Package mem implements Prism's in-memory relational engine: the substrate
// the paper runs on top of a conventional DBMS.
//
// It provides typed row storage, one key dictionary per column (which rows
// hold which value and which keyword: exec.ColumnIndex, read by the
// statistics, the Bayesian model, related-column search and the columnar
// executor alike — the DBMS inverted index the paper leverages),
// per-column statistics (the "metadata collected during preprocessing" of
// §2.3), and execution of Project-Join query plans with selection push-down
// and early termination.
package mem

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"prism/internal/exec"
	"prism/internal/par"
	"prism/internal/schema"
	"prism/internal/value"
)

// Relation stores the rows of one table.
type Relation struct {
	Schema *schema.Table
	Rows   []value.Tuple
}

// NumRows returns the row count.
func (r *Relation) NumRows() int { return len(r.Rows) }

// Database is an in-memory relational database instance.
//
// A Database is safe for concurrent readers once Analyze has been called;
// writes (Insert) must not race with reads.
type Database struct {
	Name string

	sch       *schema.Schema
	relations map[string]*Relation

	mu       sync.RWMutex
	analyzed bool
	// version counts data mutations; session filter-outcome caches key on
	// it so entries computed against older contents can never be served
	// against newer ones.
	version uint64
	stats   map[string]schema.Stats // key: lower(Table.Column)
	// index maps lower(Table.Column) -> the column's key dictionary over the
	// current rows: every column's or none (nil). Analyze builds it, a
	// mutation drops it, a snapshot does not carry it — a restored database
	// builds it when it is first asked for (ColumnIndex).
	index map[string]*exec.ColumnIndex
}

// NewDatabase creates an empty database over the given schema.
func NewDatabase(name string, sch *schema.Schema) *Database {
	db := &Database{
		Name:      name,
		sch:       sch,
		relations: make(map[string]*Relation),
	}
	for _, t := range sch.Tables() {
		db.relations[strings.ToLower(t.Name)] = &Relation{Schema: t}
	}
	return db
}

// Schema returns the database schema.
func (db *Database) Schema() *schema.Schema { return db.sch }

// Relation returns the stored relation for a table name.
func (db *Database) Relation(table string) (*Relation, bool) {
	r, ok := db.relations[strings.ToLower(table)]
	return r, ok
}

// NumRows returns the number of rows stored for table, or 0 if unknown.
func (db *Database) NumRows(table string) int {
	if r, ok := db.Relation(table); ok {
		return r.NumRows()
	}
	return 0
}

// TotalRows returns the number of rows across all tables.
func (db *Database) TotalRows() int {
	n := 0
	for _, r := range db.relations {
		n += r.NumRows()
	}
	return n
}

// Insert appends a tuple to the named table. Values are coerced to the
// declared column types; incompatible values are an error.
func (db *Database) Insert(table string, tuple value.Tuple) error {
	rel, ok := db.Relation(table)
	if !ok {
		return fmt.Errorf("mem: unknown table %q", table)
	}
	if len(tuple) != rel.Schema.Arity() {
		return fmt.Errorf("mem: table %s expects %d values, got %d", rel.Schema.Name, rel.Schema.Arity(), len(tuple))
	}
	row := make(value.Tuple, len(tuple))
	for i, v := range tuple {
		if v.IsNull() {
			row[i] = value.NullValue
			continue
		}
		want := rel.Schema.Columns[i].Type
		coerced, ok := v.Coerce(want)
		if !ok {
			return fmt.Errorf("mem: table %s column %s: cannot store %s value %q as %s",
				rel.Schema.Name, rel.Schema.Columns[i].Name, v.Kind(), v.String(), want)
		}
		row[i] = coerced
	}
	// The row is published and the version bumped in one critical section,
	// so no reader can observe the new data under the old version — cache
	// keys tagged with a Version never describe newer contents.
	db.mu.Lock()
	rel.Rows = append(rel.Rows, row)
	db.analyzed, db.index = false, nil
	db.version++
	db.mu.Unlock()
	return nil
}

// Version returns the data version of the database: a counter bumped by
// every mutation. Filter outcomes are ground truths *of one version* of the
// database, so session caches include it in their keys — a mutation makes
// every older entry unreachable rather than wrong.
func (db *Database) Version() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.version
}

// InsertStrings parses and inserts a row given as raw strings, coercing each
// cell to the declared column type.
func (db *Database) InsertStrings(table string, cells ...string) error {
	rel, ok := db.Relation(table)
	if !ok {
		return fmt.Errorf("mem: unknown table %q", table)
	}
	if len(cells) != rel.Schema.Arity() {
		return fmt.Errorf("mem: table %s expects %d values, got %d", rel.Schema.Name, rel.Schema.Arity(), len(cells))
	}
	tuple := make(value.Tuple, len(cells))
	for i, cell := range cells {
		v, err := value.ParseAs(cell, rel.Schema.Columns[i].Type)
		if err != nil {
			return fmt.Errorf("mem: table %s column %s: %w", rel.Schema.Name, rel.Schema.Columns[i].Name, err)
		}
		tuple[i] = v
	}
	return db.Insert(table, tuple)
}

// BulkInsert inserts many tuples into the named table.
func (db *Database) BulkInsert(table string, tuples []value.Tuple) error {
	for _, t := range tuples {
		if err := db.Insert(table, t); err != nil {
			return err
		}
	}
	return nil
}

func statsKey(ref schema.ColumnRef) string {
	return strings.ToLower(ref.Table) + "." + strings.ToLower(ref.Column)
}

// indexColumns builds the key dictionary of every column over the current
// rows and installs them as db.index; the statistics ride the same pass and
// are returned in schema order. Columns are independent of one another and
// are indexed in parallel; the result is a function of the data alone. The
// caller holds db.mu for writing.
func (db *Database) indexColumns() []schema.Stats {
	type column struct {
		ref  schema.ColumnRef
		typ  value.Kind
		rows []value.Tuple
		ci   int
	}
	var cols []column
	for _, t := range db.sch.Tables() {
		rel := db.relations[strings.ToLower(t.Name)]
		for ci, c := range t.Columns {
			cols = append(cols, column{schema.ColumnRef{Table: t.Name, Column: c.Name}, c.Type, rel.Rows, ci})
		}
	}
	index, stats := make([]*exec.ColumnIndex, len(cols)), make([]schema.Stats, len(cols))
	par.Do(len(cols), func(i int) {
		c := cols[i]
		index[i], stats[i] = exec.NewColumnIndex(c.ref, c.typ, c.rows, c.ci)
	})
	db.index = make(map[string]*exec.ColumnIndex, len(cols))
	for i, x := range index {
		db.index[statsKey(stats[i].Ref)] = x
	}
	return stats
}

// Analyze (re)builds the key dictionaries and the column statistics. It
// corresponds to the paper's preprocessing step and must be called before
// the lookup methods below. Calling it repeatedly is cheap when nothing has
// changed.
func (db *Database) Analyze() {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.analyzed {
		return
	}
	stats := db.indexColumns()
	db.stats = make(map[string]schema.Stats, len(stats))
	for _, st := range stats {
		db.stats[statsKey(st.Ref)] = st
	}
	db.analyzed = true
}

// ColumnIndex implements exec.Source. The dictionaries Analyze built are
// kept until the next mutation; when there are none — after a mutation, or
// on a database restored from a snapshot — every column is indexed here,
// through the code Analyze uses.
func (db *Database) ColumnIndex(ref schema.ColumnRef) (*exec.ColumnIndex, error) {
	key := statsKey(ref)
	db.mu.RLock()
	x, built := db.index[key], db.index != nil
	db.mu.RUnlock()
	if !built {
		db.mu.Lock()
		if db.index == nil {
			db.indexColumns()
		}
		x = db.index[key]
		db.mu.Unlock()
	}
	if x == nil {
		return nil, fmt.Errorf("mem: unknown column %s", ref)
	}
	return x, nil
}

// Analyzed reports whether statistics and indexes are current.
func (db *Database) Analyzed() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.analyzed
}

// Stats returns the preprocessed statistics for a column.
func (db *Database) Stats(ref schema.ColumnRef) (schema.Stats, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.stats == nil {
		return schema.Stats{}, false
	}
	st, ok := db.stats[statsKey(ref)]
	return st, ok
}

// AllStats returns statistics for every column, sorted by column reference.
func (db *Database) AllStats() []schema.Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]schema.Stats, 0, len(db.stats))
	for _, st := range db.stats {
		out = append(out, st)
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
// first analysed; a restored database builds its dictionaries here.
func (db *Database) ColumnHasKeyword(ref schema.ColumnRef, keyword string) bool {
	db.mu.RLock()
	analysed := db.stats != nil
	db.mu.RUnlock()
	if !analysed {
		return false
	}
	x, err := db.ColumnIndex(ref)
	return err == nil && len(x.KeywordIDs(keyword)) > 0
}

// ColumnValues returns all values stored in the given column, in row order.
func (db *Database) ColumnValues(ref schema.ColumnRef) ([]value.Value, error) {
	rel, ok := db.Relation(ref.Table)
	if !ok {
		return nil, fmt.Errorf("mem: unknown table %q", ref.Table)
	}
	ci := rel.Schema.ColumnIndex(ref.Column)
	if ci < 0 {
		return nil, fmt.Errorf("mem: unknown column %q in table %q", ref.Column, ref.Table)
	}
	out := make([]value.Value, len(rel.Rows))
	for i, row := range rel.Rows {
		out[i] = row[ci]
	}
	return out, nil
}

// DistinctFraction returns Distinct/NonNull for a column (0 when empty). It
// is a convenience used by the selectivity estimators.
func (db *Database) DistinctFraction(ref schema.ColumnRef) float64 {
	st, ok := db.Stats(ref)
	if !ok || st.NonNullCount() == 0 {
		return 0
	}
	return float64(st.Distinct) / float64(st.NonNullCount())
}
