package dataset

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"prism/internal/mem"
	"prism/internal/schema"
	"prism/internal/value"
)

// FuzzLoadSQLite feeds the SQLite reader bytes it did not write. The answer
// is an error and no database, or an analyzed database whose catalogue
// answers for every column — never a panic, and never more allocation than a
// fixed multiple of the input.
//
// The corpus is seeded with this package's fixture file and a truncation of
// it; testdata/fuzz/FuzzLoadSQLite holds the two files that made the reader
// panic before it bounded page numbers and payload lengths by the file
// (hugeRootPage, hugePayloadLength).
func FuzzLoadSQLite(f *testing.F) {
	fixture := sqliteFixture(f, fixtureTables())
	f.Add(fixture)
	f.Add(fixture[:len(fixture)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		checkUntrusted(t, data, func() (*mem.Database, error) { return decodeSQLite("fuzz", data) })
	})
}

// FuzzLoadCSV is FuzzLoadSQLite for CSV inference: one CSV table's bytes
// become an error, or an analyzed database whose every cell, read off its
// key dictionary, is the raw CSV cell parsed as its column's declared type.
func FuzzLoadCSV(f *testing.F) {
	for _, seed := range []string{
		"Name,Area,Depth,Discovered,State\nLake Tahoe,496.2,501,1844-02-14,California\nMystery Lake,12.5,,,\n",
		"ID,team_id,Score\nG1,Lakers,102\n",
		"a,b\n3,3.0\n\" 3\",NaN\nnull,12:30:00\n",
		"a,,c\n1,2,3\n",
		"Tag,Score\nLake,0.5\nlake,-0.0\nLAKE,0.0\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var table *csvTable
		db := checkUntrusted(t, data, func() (*mem.Database, error) {
			var err error
			if table, err = readCSV("fuzz.csv", bytes.NewReader(data)); err != nil {
				return nil, err
			}
			return assemble("fuzz", []csvTable{*table})
		})
		if db != nil {
			checkCellsKept(t, db, table)
		}
	})
}

// checkCellsKept holds every cell of the database assembled from table, as
// its key dictionary stores it, to the raw cell parsed as the column's
// declared type: the dictionaries are the database's only copy of a cell.
func checkCellsKept(t *testing.T, db *mem.Database, table *csvTable) {
	t.Helper()
	sch, _ := db.Schema().Table(table.name)
	for ci, col := range sch.Columns {
		x, err := db.ColumnIndex(schema.ColumnRef{Table: sch.Name, Column: col.Name})
		if err != nil {
			t.Fatal(err)
		}
		for row, cells := range table.rows {
			want, err := value.ParseAs(cells[ci], col.Type)
			if err != nil {
				t.Fatalf("%s row %d: %v", col.Name, row, err)
			}
			if got := x.Value(int32(row)); !identical(got, want) {
				t.Fatalf("%s row %d stores %v (%s), loaded from %q as %v (%s)", col.Name, row, got, got.Kind(), cells[ci], want, want.Kind())
			}
		}
	}
}

// identical reports whether two cells are the same: two decimals of the
// same bits (-0 is not 0, and a NaN is itself), else EqualStrict.
func identical(a, b value.Value) bool {
	if a.Kind() == value.Decimal && b.Kind() == value.Decimal {
		return math.Float64bits(a.Decimal()) == math.Float64bits(b.Decimal())
	}
	return a.EqualStrict(b)
}

// checkUntrusted loads data and holds the result to the contract of the
// fuzz targets: an error and no database, or an analyzed one that answers
// for every column, and at most 4 MiB plus 2 KiB per input byte allocated
// on the way (a cell of one byte becomes a 40-byte value several times
// over: raw, row, key dictionary).
func checkUntrusted(t *testing.T, data []byte, load func() (*mem.Database, error)) *mem.Database {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	db, err := load()
	runtime.ReadMemStats(&after)
	if allocated, allowed := after.TotalAlloc-before.TotalAlloc, uint64(4<<20+2048*len(data)); allocated > allowed {
		t.Fatalf("loading %d bytes allocated %d bytes (allowed %d), err = %v", len(data), allocated, allowed, err)
	}
	if err != nil {
		if db != nil {
			t.Fatalf("error %v came with a database", err)
		}
		return nil
	}
	if !frozen(db) {
		t.Fatal("loaded database is not analyzed")
	}
	for _, table := range db.Schema().Tables() {
		for _, col := range table.Columns {
			ref := schema.ColumnRef{Table: table.Name, Column: col.Name}
			if _, ok := db.Stats(ref); !ok {
				t.Fatalf("%s: no statistics", ref)
			}
			if _, err := db.ColumnIndex(ref); err != nil {
				t.Fatalf("%s: %v", ref, err)
			}
			db.ColumnHasKeyword(ref, "x")
		}
	}
	return db
}
