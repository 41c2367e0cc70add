package mem

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"prism/internal/value"
)

// LoadCSV bulk-loads rows into the named table from CSV data. When
// hasHeader is true the first record must list the table's column names (in
// any order, case-insensitive) and cells are mapped by name; otherwise the
// records must list every column in declaration order. Cells are parsed with
// the column's declared type; empty cells load as NULL.
//
// It returns the number of rows inserted. Loading stops at the first
// malformed record so partial loads are visible to the caller.
func (db *Database) LoadCSV(table string, r io.Reader, hasHeader bool) (int, error) {
	if err := db.writable(table); err != nil {
		return 0, err
	}
	t, ok := db.table(table)
	if !ok {
		return 0, fmt.Errorf("mem: unknown table %q", table)
	}
	reader := csv.NewReader(r)
	reader.TrimLeadingSpace = true
	reader.FieldsPerRecord = -1

	// Column mapping: position in CSV record -> column index in the table.
	var mapping []int
	if hasHeader {
		header, err := reader.Read()
		if err != nil {
			return 0, fmt.Errorf("mem: reading CSV header for %s: %w", table, err)
		}
		mapping = make([]int, len(header))
		seen := make(map[int]bool)
		for i, name := range header {
			ci := t.schema.ColumnIndex(strings.TrimSpace(name))
			if ci < 0 {
				return 0, fmt.Errorf("mem: CSV header column %q does not exist in table %s", name, table)
			}
			if seen[ci] {
				return 0, fmt.Errorf("mem: CSV header lists column %q twice", name)
			}
			seen[ci] = true
			mapping[i] = ci
		}
	} else {
		mapping = make([]int, t.schema.Arity())
		for i := range mapping {
			mapping[i] = i
		}
	}

	inserted := 0
	line := 0
	for {
		record, err := reader.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return inserted, fmt.Errorf("mem: CSV record %d for %s: %w", line, table, err)
		}
		if len(record) != len(mapping) {
			return inserted, fmt.Errorf("mem: CSV record %d for %s has %d fields, want %d", line, table, len(record), len(mapping))
		}
		tuple := make(value.Tuple, t.schema.Arity())
		for i := range tuple {
			tuple[i] = value.NullValue
		}
		for i, cell := range record {
			ci := mapping[i]
			v, err := value.ParseAs(cell, t.schema.Columns[ci].Type)
			if err != nil {
				return inserted, fmt.Errorf("mem: CSV record %d for %s, column %s: %w", line, table, t.schema.Columns[ci].Name, err)
			}
			tuple[ci] = v
		}
		if err := db.Insert(table, tuple); err != nil {
			return inserted, fmt.Errorf("mem: CSV record %d: %w", line, err)
		}
		inserted++
	}
	return inserted, nil
}

// DumpCSV writes the named table as CSV with a header row, the inverse of
// LoadCSV. NULL cells are written as empty fields.
func (db *Database) DumpCSV(table string, w io.Writer) error {
	t, ok := db.table(table)
	if !ok {
		return fmt.Errorf("mem: unknown table %q", table)
	}
	writer := csv.NewWriter(w)
	if err := writer.Write(t.schema.ColumnNames()); err != nil {
		return err
	}
	record := make([]string, t.schema.Arity())
	for _, row := range t.tuples(t.n) {
		for i, v := range row {
			if v.IsNull() {
				record[i] = ""
				continue
			}
			record[i] = v.String()
		}
		if err := writer.Write(record); err != nil {
			return err
		}
	}
	writer.Flush()
	return writer.Error()
}
