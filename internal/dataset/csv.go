package dataset

// CSV ingestion: one table per file, header row required, column types
// inferred from the data, foreign keys inferred from column/table name
// correspondence. The inferred schema feeds the same mem.Database the
// generators build, so a directory of CSVs behaves exactly like an
// embedded dataset everywhere downstream.

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"prism/internal/mem"
	"prism/internal/schema"
	"prism/internal/value"
)

// csvTable is one parsed CSV file awaiting schema assembly.
type csvTable struct {
	name   string
	header []string
	rows   [][]string
}

// LoadCSVFile ingests a single CSV file as a one-table database. The
// first record is the header; column types are inferred (see inferKind).
func LoadCSVFile(path string) (*mem.Database, error) {
	if err := faultCSV.Hit(); err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", path, err)
	}
	t, err := readCSVFile(path)
	if err != nil {
		return nil, err
	}
	return assemble(datasetNameForPath(path), []csvTable{*t})
}

// LoadCSVDir ingests every *.csv file in dir as one table each (table
// name = file base name), inferring column types and foreign keys
// across the tables. Files are loaded in sorted name order so the
// resulting schema — and everything derived from it — is deterministic.
func LoadCSVDir(dir string) (*mem.Database, error) {
	if err := faultCSV.Hit(); err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", dir, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	var paths []string
	for _, e := range entries {
		if e.IsDir() || !strings.EqualFold(filepath.Ext(e.Name()), ".csv") {
			continue
		}
		paths = append(paths, filepath.Join(dir, e.Name()))
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("dataset: no *.csv files in %s", dir)
	}
	sort.Strings(paths)
	tables := make([]csvTable, 0, len(paths))
	for _, p := range paths {
		t, err := readCSVFile(p)
		if err != nil {
			return nil, err
		}
		tables = append(tables, *t)
	}
	return assemble(datasetNameForPath(dir), tables)
}

func readCSVFile(path string) (*csvTable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	return readCSV(path, f)
}

// readCSV parses one CSV table from r; path names it, and its errors.
func readCSV(path string, r io.Reader) (*csvTable, error) {
	reader := csv.NewReader(r)
	reader.TrimLeadingSpace = true
	header, err := reader.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading header of %s: %w", path, err)
	}
	for i, h := range header {
		header[i] = strings.TrimSpace(h)
		if header[i] == "" {
			return nil, fmt.Errorf("dataset: %s: header column %d is empty", path, i+1)
		}
	}
	var rows [][]string
	for line := 2; ; line++ {
		record, err := reader.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: %s line %d: %w", path, line, err)
		}
		rows = append(rows, record)
	}
	return &csvTable{name: tableNameForPath(path), header: header, rows: rows}, nil
}

// tableNameForPath derives a table name from a CSV file path: the base
// name without extension, original case preserved (table lookups are
// case-insensitive anyway, but error messages read better).
func tableNameForPath(path string) string {
	base := filepath.Base(path)
	if ext := filepath.Ext(base); ext != "" && ext != base {
		base = base[:len(base)-len(ext)]
	}
	return base
}

// inferKind scans one column's raw cells and returns the narrowest kind
// that parses every non-empty cell: Int ⊂ Decimal, Date and Time stand
// alone, anything mixed falls back to Text. A column with no non-empty
// cells is Text.
func inferKind(cells []string) value.Kind {
	kind := value.Null
	for _, cell := range cells {
		v := value.Parse(cell)
		if v.IsNull() {
			continue
		}
		k := v.Kind()
		switch {
		case kind == value.Null:
			kind = k
		case kind == k:
		case kind == value.Int && k == value.Decimal, kind == value.Decimal && k == value.Int:
			kind = value.Decimal
		default:
			return value.Text
		}
	}
	if kind == value.Null {
		return value.Text
	}
	return kind
}

// assemble builds the database: infer each table's column types, add
// the tables, infer foreign keys, bulk-load every row via the same
// typed-parse path the generators use, and analyze.
func assemble(name string, tables []csvTable) (*mem.Database, error) {
	sch := schema.New()
	for _, t := range tables {
		cols := make([]schema.Column, len(t.header))
		cells := make([]string, 0, len(t.rows))
		for ci, colName := range t.header {
			cells = cells[:0]
			for _, row := range t.rows {
				if ci < len(row) {
					cells = append(cells, row[ci])
				}
			}
			cols[ci] = schema.Column{Name: colName, Type: inferKind(cells)}
		}
		tbl, err := schema.NewTable(t.name, cols...)
		if err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
		if err := sch.AddTable(tbl); err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
	}
	for _, fk := range inferForeignKeys(sch) {
		if err := sch.AddForeignKey(fk); err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
	}

	db := mem.NewDatabase(name, sch)
	for _, t := range tables {
		for ri, row := range t.rows {
			if len(row) != len(t.header) {
				return nil, fmt.Errorf("dataset: table %s row %d has %d cells, want %d",
					t.name, ri+1, len(row), len(t.header))
			}
			if err := db.InsertStrings(t.name, row...); err != nil {
				return nil, fmt.Errorf("dataset: table %s row %d: %w", t.name, ri+1, err)
			}
		}
	}
	db.Analyze()
	return db, nil
}

// inferForeignKeys derives join edges from naming conventions, the same
// ones the embedded generators follow:
//
//   - a column named exactly like another table (Player.Team → table
//     Team) references that table's key column;
//   - a column named <Table>Id / <Table>_id references table <Table>'s
//     key column.
//
// The referenced key column is the target table's "Name" or "ID" column
// when present, else its first column. Self-references are skipped (the
// schema layer rejects them).
func inferForeignKeys(sch *schema.Schema) []schema.ForeignKey {
	var out []schema.ForeignKey
	for _, t := range sch.Tables() {
		for _, c := range t.Columns {
			target := referencedTable(sch, c.Name)
			if target == nil || strings.EqualFold(target.Name, t.Name) {
				continue
			}
			out = append(out, schema.ForeignKey{
				From: schema.ColumnRef{Table: t.Name, Column: c.Name},
				To:   schema.ColumnRef{Table: target.Name, Column: keyColumn(target)},
			})
		}
	}
	return out
}

func referencedTable(sch *schema.Schema, colName string) *schema.Table {
	base := strings.ToLower(colName)
	for _, suffix := range []string{"_id", "id"} {
		if strings.HasSuffix(base, suffix) && len(base) > len(suffix) {
			if t, ok := sch.Table(base[:len(base)-len(suffix)]); ok {
				return t
			}
		}
	}
	if t, ok := sch.Table(base); ok {
		return t
	}
	return nil
}

func keyColumn(t *schema.Table) string {
	for _, want := range []string{"id", "name"} {
		if i := t.ColumnIndex(want); i >= 0 {
			return t.Columns[i].Name
		}
	}
	return t.Columns[0].Name
}
