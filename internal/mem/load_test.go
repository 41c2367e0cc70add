package mem

import (
	"bytes"
	"strings"
	"testing"
)

const lakeCSVWithHeader = `Name,Area
Lake Tahoe,497
Crater Lake,53.2
Unknown Lake,
`

func TestLoadCSVWithHeader(t *testing.T) {
	db := NewDatabase("csv", testSchema(t))
	n, err := db.LoadCSV("Lake", strings.NewReader(lakeCSVWithHeader), true)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || db.NumRows("Lake") != 3 {
		t.Fatalf("inserted %d rows", n)
	}
	rows, _ := db.SampleRows("Lake", 0)
	if !rows[2][1].IsNull() {
		t.Error("empty cell should load as NULL")
	}
	if rows[0][0].Text() != "Lake Tahoe" || rows[1][1].Decimal() != 53.2 {
		t.Errorf("rows = %v", rows)
	}
}

func TestLoadCSVHeaderReordered(t *testing.T) {
	db := NewDatabase("csv", testSchema(t))
	data := "area,name\n497,Lake Tahoe\n"
	if _, err := db.LoadCSV("Lake", strings.NewReader(data), true); err != nil {
		t.Fatal(err)
	}
	rows, _ := db.SampleRows("Lake", 0)
	if rows[0][0].Text() != "Lake Tahoe" || rows[0][1].Decimal() != 497 {
		t.Errorf("header mapping wrong: %v", rows[0])
	}
}

func TestLoadCSVWithoutHeader(t *testing.T) {
	db := NewDatabase("csv", testSchema(t))
	n, err := db.LoadCSV("geo_lake", strings.NewReader("Lake Tahoe,California\nLake Tahoe,Nevada\n"), false)
	if err != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestLoadCSVErrors(t *testing.T) {
	db := NewDatabase("csv", testSchema(t))
	if _, err := db.LoadCSV("nope", strings.NewReader("x"), false); err == nil {
		t.Error("unknown table should fail")
	}
	if _, err := db.LoadCSV("Lake", strings.NewReader("Name,Bogus\nx,1\n"), true); err == nil {
		t.Error("unknown header column should fail")
	}
	if _, err := db.LoadCSV("Lake", strings.NewReader("Name,Name\nx,y\n"), true); err == nil {
		t.Error("duplicate header column should fail")
	}
	if _, err := db.LoadCSV("Lake", strings.NewReader(""), true); err == nil {
		t.Error("missing header should fail")
	}
	if n, err := db.LoadCSV("Lake", strings.NewReader("Name,Area\nonly-one-field\n"), true); err == nil || n != 0 {
		t.Error("short record should fail")
	}
	if n, err := db.LoadCSV("Lake", strings.NewReader("Name,Area\nx,not-a-number\n"), true); err == nil || n != 0 {
		t.Error("unparseable cell should fail")
	}
	// Partial load: first record good, second bad.
	n, err := db.LoadCSV("Lake", strings.NewReader("Name,Area\nGood Lake,10\nBad Lake,zzz\n"), true)
	if err == nil || n != 1 {
		t.Errorf("partial load should report 1 inserted row and an error, got n=%d err=%v", n, err)
	}
}

func TestDumpCSVRoundTrip(t *testing.T) {
	db := testDB(t)
	var buf bytes.Buffer
	if err := db.DumpCSV("Lake", &buf); err != nil {
		t.Fatal(err)
	}
	dump := buf.String()
	if !strings.HasPrefix(dump, "Name,Area\n") || !strings.Contains(dump, "Lake Tahoe,497") {
		t.Errorf("dump:\n%s", dump)
	}
	// Load the dump into a fresh database and compare row counts.
	fresh := NewDatabase("fresh", testSchema(t))
	n, err := fresh.LoadCSV("Lake", strings.NewReader(dump), true)
	if err != nil {
		t.Fatal(err)
	}
	if n != db.NumRows("Lake") {
		t.Errorf("round trip lost rows: %d vs %d", n, db.NumRows("Lake"))
	}
	if err := db.DumpCSV("nope", &buf); err == nil {
		t.Error("unknown table should fail")
	}
}

func TestDumpCSVNulls(t *testing.T) {
	db := NewDatabase("nulls", testSchema(t))
	if err := db.InsertStrings("Lake", "No Area Lake", ""); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.DumpCSV("Lake", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "No Area Lake,\n") {
		t.Errorf("NULL should dump as empty field:\n%s", buf.String())
	}
}

func BenchmarkLoadCSV(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("Name,Area\n")
	for i := 0; i < 500; i++ {
		sb.WriteString("Lake ")
		sb.WriteString(string(rune('a' + i%26)))
		sb.WriteString(",42.5\n")
	}
	data := sb.String()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db := NewDatabase("bench", testSchema(b))
		if _, err := db.LoadCSV("Lake", strings.NewReader(data), true); err != nil {
			b.Fatal(err)
		}
	}
}
