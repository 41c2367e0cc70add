package mem_test

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"prism/internal/dataset"
	"prism/internal/mem"
	"prism/internal/schema"
	"prism/internal/value"
)

// FuzzReadSnapshot feeds ReadSnapshot bytes it did not write. Each input is
// read twice: as it is, which exercises the header, the length and the
// checksum, and with the header's length and CRC restamped over whatever
// follows it, so that mutations of the body reach the decoder. Either way the
// answer is a typed error and no database, or a database that is analyzed,
// answers its catalogue for every column and re-encodes canonically — never
// a panic, and never more allocation than a fixed multiple of the input (a
// decoded cell is a 40-byte value for at least one byte of payload).
//
// The corpus is seeded with the snapshots of the three bundled datasets and
// truncations of each, and with longVariants.
func FuzzReadSnapshot(f *testing.F) {
	f.Add(longVariants(f))
	for _, name := range dataset.Names() {
		db, err := dataset.ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := db.WriteSnapshot(&buf); err != nil {
			f.Fatal(err)
		}
		snap := buf.Bytes()
		f.Add(snap)
		for _, cut := range []int{0, 7, mem.SnapshotHeaderLen - 1, mem.SnapshotHeaderLen, len(snap) / 3, len(snap) / 2, len(snap) - 1} {
			f.Add(snap[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		readUntrusted(t, data)
		if len(data) >= mem.SnapshotHeaderLen {
			stamped := bytes.Clone(data)
			mem.RestampSnapshot(stamped)
			readUntrusted(t, stamped)
		}
	})
}

// longVariants is the snapshot of one text column whose rows alternate
// between two spellings of a long text that blanks surround: every second
// row is a variant row, which carries its own spelling, and whose keyword
// the dictionary build must not render row by row.
func longVariants(f *testing.F) []byte {
	sch := schema.New()
	if err := sch.AddTable(schema.MustTable("T", schema.Column{Name: "A", Type: value.Text})); err != nil {
		f.Fatal(err)
	}
	db := mem.NewDatabase("variants", sch)
	spellings := []string{" " + strings.Repeat("a", 1000) + " ", " " + strings.Repeat("A", 1000) + " "}
	for i := 0; i < 20000; i++ {
		if err := db.Insert("T", value.Tuple{value.NewText(spellings[i%2])}); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

func readUntrusted(t *testing.T, data []byte) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	db, err := mem.ReadSnapshot(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if allocated, allowed := after.TotalAlloc-before.TotalAlloc, uint64(4<<20+256*len(data)); allocated > allowed {
		t.Fatalf("decoding %d bytes allocated %d bytes (allowed %d), err = %v", len(data), allocated, allowed, err)
	}
	if err != nil {
		if db != nil {
			t.Fatalf("error %v came with a database", err)
		}
		if !errors.Is(err, mem.ErrSnapshotCorrupt) && !errors.Is(err, mem.ErrSnapshotVersion) {
			t.Fatalf("untyped error: %v", err)
		}
		return
	}
	if !db.Analyzed() {
		t.Fatal("decoded database is not analyzed")
	}
	for _, table := range db.Schema().Tables() {
		for _, col := range table.Columns {
			ref := schema.ColumnRef{Table: table.Name, Column: col.Name}
			vals, err := db.ColumnValues(ref)
			if err != nil || len(vals) != db.NumRows(table.Name) {
				t.Fatalf("%s: %d values for %d rows, err = %v", ref, len(vals), db.NumRows(table.Name), err)
			}
			db.Stats(ref)
			db.ColumnHasKeyword(ref, "x")
		}
	}
	// What was decoded is a database like any other: it encodes, and the
	// encoding is canonical from then on.
	var first, second bytes.Buffer
	if err := db.WriteSnapshot(&first); err != nil {
		t.Fatal(err)
	}
	again, err := mem.ReadSnapshot(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("re-reading a re-encoded snapshot: %v", err)
	}
	if err := again.WriteSnapshot(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("write → read → write is not byte-identical")
	}
}
