package mem

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"prism/internal/schema"
	"prism/internal/value"
)

// snapshotFixture builds a small analyzed database exercising every value
// kind, NULLs, foreign keys, primary keys and comments.
func snapshotFixture(t *testing.T) *Database {
	t.Helper()
	country := schema.MustTable("Country",
		schema.Column{Name: "Name", Type: value.Text, Comment: "country name"},
		schema.Column{Name: "Population", Type: value.Int},
		schema.Column{Name: "Area", Type: value.Decimal},
		schema.Column{Name: "Founded", Type: value.Date},
	)
	country.PrimaryKey = []string{"Name"}
	city := schema.MustTable("City",
		schema.Column{Name: "Name", Type: value.Text},
		schema.Column{Name: "Country", Type: value.Text},
		schema.Column{Name: "Curfew", Type: value.Time},
	)
	sch := schema.New()
	if err := sch.AddTable(country); err != nil {
		t.Fatal(err)
	}
	if err := sch.AddTable(city); err != nil {
		t.Fatal(err)
	}
	if err := sch.AddForeignKey(schema.ForeignKey{
		From: schema.ColumnRef{Table: "City", Column: "Country"},
		To:   schema.ColumnRef{Table: "Country", Column: "Name"},
	}); err != nil {
		t.Fatal(err)
	}

	db := NewDatabase("fixture", sch)
	rows := [][]string{
		{"Atlantis", "12000", "88.5", "1875-03-02"},
		{"Lemuria", "", "-3.25", ""},
		{"Mu", "777", "", "2001-11-30"},
	}
	for _, r := range rows {
		if err := db.InsertStrings("Country", r...); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range [][]string{
		{"Poseidonis", "Atlantis", "22:30:00"},
		{"Shalmali", "Lemuria", ""},
	} {
		if err := db.InsertStrings("City", r...); err != nil {
			t.Fatal(err)
		}
	}
	db.Analyze()
	return db
}

// TestSnapshotRoundTrip pins losslessness: schema, rows, data version and
// statistics all survive a write/read cycle, and the decoded database is
// immediately query-ready.
func TestSnapshotRoundTrip(t *testing.T) {
	db := snapshotFixture(t)
	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	if got.Name != db.Name {
		t.Errorf("name = %q, want %q", got.Name, db.Name)
	}
	if got.Version() != db.Version() {
		t.Errorf("version = %d, want %d", got.Version(), db.Version())
	}
	if !got.frozen.Load() {
		t.Error("decoded database is not analyzed")
	}
	if got.Schema().String() != db.Schema().String() {
		t.Errorf("schema diverges:\n--- want ---\n%s--- got ---\n%s", db.Schema(), got.Schema())
	}
	for _, table := range db.Schema().Tables() {
		want, _ := db.SampleRows(table.Name, 0)
		rows, err := got.SampleRows(table.Name, 0)
		if err != nil {
			t.Fatalf("table %s missing after round trip", table.Name)
		}
		if len(rows) != len(want) {
			t.Fatalf("table %s has %d rows, want %d", table.Name, len(rows), len(want))
		}
		for ri := range want {
			for ci := range want[ri] {
				if !want[ri][ci].EqualStrict(rows[ri][ci]) {
					t.Errorf("table %s row %d col %d = %v (%s), want %v (%s)",
						table.Name, ri, ci, rows[ri][ci], rows[ri][ci].Kind(),
						want[ri][ci], want[ri][ci].Kind())
				}
			}
		}
		restored, _ := got.Schema().Table(table.Name)
		if pk := restored.PrimaryKey; !reflect.DeepEqual(pk, table.PrimaryKey) {
			t.Errorf("table %s primary key = %v, want %v", table.Name, pk, table.PrimaryKey)
		}
	}
	if !reflect.DeepEqual(got.AllStats(), db.AllStats()) {
		t.Errorf("stats diverge:\nwant %v\ngot  %v", db.AllStats(), got.AllStats())
	}
	// Decoded state re-encodes to the bytes it came from.
	var again bytes.Buffer
	if err := got.WriteSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Error("write → read → write is not byte-identical")
	}
}

// TestSnapshotDeterministic pins that the same database always encodes to
// the same bytes (map iteration is sorted away), so snapshot files diff
// cleanly and CI can compare them byte-wise.
func TestSnapshotDeterministic(t *testing.T) {
	db := snapshotFixture(t)
	var a, b bytes.Buffer
	if err := db.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := db.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two snapshots of the same database differ")
	}
}

// TestSnapshotFailsClosed pins the corruption contract: truncation, bit
// flips, bad magic and future format versions all return a typed error
// and never a partially-decoded database.
func TestSnapshotFailsClosed(t *testing.T) {
	db := snapshotFixture(t)
	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("truncated at every prefix length", func(t *testing.T) {
		// Every strict prefix must fail: either a short header/body read
		// or a checksum mismatch. Step through a spread of cut points.
		for cut := 0; cut < len(good)-1; cut += 1 + len(good)/97 {
			db, err := ReadSnapshot(bytes.NewReader(good[:cut]))
			if err == nil || db != nil {
				t.Fatalf("truncation at %d/%d bytes: err=%v db=%v", cut, len(good), err, db)
			}
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("truncation at %d: err = %v, want ErrSnapshotCorrupt", cut, err)
			}
		}
	})

	t.Run("bit flips", func(t *testing.T) {
		for _, pos := range []int{0, 5, len(snapshotMagic) + 2, len(good) / 2, len(good) - 1} {
			bad := append([]byte(nil), good...)
			bad[pos] ^= 0x40
			db, err := ReadSnapshot(bytes.NewReader(bad))
			if err == nil || db != nil {
				t.Fatalf("bit flip at %d: err=%v db=%v", pos, err, db)
			}
			if !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("bit flip at %d: err = %v, want a typed snapshot error", pos, err)
			}
		}
	})

	t.Run("future format version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[6], bad[7] = '9', '9' // version digits of the magic
		_, err := ReadSnapshot(bytes.NewReader(bad))
		if !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("err = %v, want ErrSnapshotVersion", err)
		}
	})

	t.Run("previous format version", func(t *testing.T) {
		// PRSNAP01 carried the global postings section, PRSNAP02 the
		// per-column keyword sets and PRSNAP03 the statistics; there is no
		// reader for any of them, and each must say so instead of
		// misreading the body.
		for _, magic := range []string{"PRSNAP01", "PRSNAP02", "PRSNAP03"} {
			bad := append([]byte(nil), good...)
			copy(bad, magic)
			db, err := ReadSnapshot(bytes.NewReader(bad))
			if !errors.Is(err, ErrSnapshotVersion) || db != nil {
				t.Fatalf("%s: err = %v (db %v), want ErrSnapshotVersion", magic, err, db)
			}
		}
	})

	t.Run("trailing garbage", func(t *testing.T) {
		bad := append(append([]byte(nil), good...), "extra"...)
		// Extra bytes past the declared body are ignored by design (the
		// reader is length-prefixed), so this must still decode — it is
		// how the format stays embeddable in larger files.
		if _, err := ReadSnapshot(bytes.NewReader(bad)); err != nil {
			t.Fatalf("length-prefixed read choked on trailing bytes: %v", err)
		}
	})

	t.Run("empty input", func(t *testing.T) {
		_, err := ReadSnapshot(bytes.NewReader(nil))
		if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
		}
	})
}

// TestSnapshotEmptyDatabase pins the degenerate case: a schema with no
// rows round-trips.
func TestSnapshotEmptyDatabase(t *testing.T) {
	sch := schema.New()
	if err := sch.AddTable(schema.MustTable("Empty", schema.Column{Name: "X", Type: value.Int})); err != nil {
		t.Fatal(err)
	}
	db := NewDatabase("void", sch)
	db.Analyze()
	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows("Empty") != 0 {
		t.Errorf("rows = %d, want 0", got.NumRows("Empty"))
	}
	if !got.frozen.Load() {
		t.Error("decoded empty database is not analyzed")
	}
}

// TestSnapshotRefusesUnseenValueIDs: a row may name only a value id its
// column has introduced. The body ends with the last row's code, here the id
// of the value the first row introduced; one more is an id never seen.
func TestSnapshotRefusesUnseenValueIDs(t *testing.T) {
	sch := schema.New()
	if err := sch.AddTable(schema.MustTable("T", schema.Column{Name: "X", Type: value.Int})); err != nil {
		t.Fatal(err)
	}
	db := NewDatabase("ids", sch)
	for range 2 {
		if err := db.Insert("T", value.Tuple{value.NewInt(5)}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	if last := snap[len(snap)-1]; last != codeID {
		t.Fatalf("last code = %d, want %d (value id 0)", last, codeID)
	}
	snap[len(snap)-1] = codeID + 1
	RestampSnapshot(snap)
	if got, err := ReadSnapshot(bytes.NewReader(snap)); !errors.Is(err, ErrSnapshotCorrupt) || got != nil {
		t.Fatalf("value id 1 of 1 seen: err = %v (db %v), want ErrSnapshotCorrupt", err, got)
	}
}
