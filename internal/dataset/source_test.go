package dataset

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prism/internal/value"
)

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadCSVFile pins single-file ingestion: header, type inference
// (int, decimal, date, text), NULL cells.
func TestLoadCSVFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "Lakes.csv")
	writeFile(t, path, `Name,Area,Depth,Discovered,State
Lake Tahoe,496.2,501,1844-02-14,California
Crater Lake,53.2,594,1853-06-12,Oregon
Mystery Lake,12.5,,,
`)
	db, err := LoadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if db.Name != "lakes" {
		t.Errorf("dataset name = %q, want lakes", db.Name)
	}
	tbl, ok := db.Schema().Table("Lakes")
	if !ok {
		t.Fatalf("table Lakes missing; schema:\n%s", db.Schema())
	}
	wantTypes := map[string]value.Kind{
		"Name": value.Text, "Area": value.Decimal, "Depth": value.Int,
		"Discovered": value.Date, "State": value.Text,
	}
	for name, want := range wantTypes {
		if c, _ := tbl.Column(name); c.Type != want {
			t.Errorf("column %s type = %v, want %v", name, c.Type, want)
		}
	}
	if got := db.NumRows("Lakes"); got != 3 {
		t.Fatalf("rows = %d, want 3", got)
	}
	rows, _ := db.SampleRows("Lakes", 0)
	if !rows[2][2].IsNull() || !rows[2][3].IsNull() {
		t.Errorf("empty cells should load as NULL, got %v", rows[2])
	}
	if !db.Analyzed() {
		t.Error("loaded database is not analyzed")
	}
}

// TestLoadCSVDir pins directory ingestion with cross-table foreign-key
// inference by naming convention.
func TestLoadCSVDir(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "Team.csv"), `Name,City
Lakers,Los Angeles
Celtics,Boston
`)
	writeFile(t, filepath.Join(dir, "Player.csv"), `Name,Team,Points
LeBron James,Lakers,27.1
Jayson Tatum,Celtics,26.9
`)
	writeFile(t, filepath.Join(dir, "Game.csv"), `ID,team_id,Score
G1,Lakers,102
`)
	writeFile(t, filepath.Join(dir, "README.txt"), "not a table")

	db, err := LoadCSVDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Schema().NumTables(); got != 3 {
		t.Fatalf("tables = %d, want 3; schema:\n%s", got, db.Schema())
	}
	fkSet := map[string]bool{}
	for _, fk := range db.Schema().ForeignKeys() {
		fkSet[fk.String()] = true
	}
	for _, want := range []string{
		"Player.Team -> Team.Name",
		"Game.team_id -> Team.Name",
	} {
		if !fkSet[want] {
			t.Errorf("missing inferred foreign key %s (have %v)", want, fkSet)
		}
	}
}

// TestLoadCSVErrors pins the failure modes: empty dir, ragged rows,
// empty header cells.
func TestLoadCSVErrors(t *testing.T) {
	t.Run("no csv files", func(t *testing.T) {
		if _, err := LoadCSVDir(t.TempDir()); err == nil {
			t.Fatal("want an error for a directory without CSVs")
		}
	})
	t.Run("empty header cell", func(t *testing.T) {
		p := filepath.Join(t.TempDir(), "bad.csv")
		writeFile(t, p, "a,,c\n1,2,3\n")
		if _, err := LoadCSVFile(p); err == nil {
			t.Fatal("want an error for an empty header cell")
		}
	})
}

// TestFromFileSniffing pins Open's dispatch — directory, .csv, SQLite
// magic, snapshot magic, unknown — and the name each format gives the
// database.
func TestFromFileSniffing(t *testing.T) {
	dir := t.TempDir()

	t.Run("directory", func(t *testing.T) {
		sub := filepath.Join(dir, "set")
		if err := os.Mkdir(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		writeFile(t, filepath.Join(sub, "T.csv"), "A\n1\n")
		db, err := Open(sub)
		if err != nil {
			t.Fatal(err)
		}
		if db.Name != "set" {
			t.Errorf("name = %q, want set", db.Name)
		}
	})
	t.Run("csv file", func(t *testing.T) {
		p := filepath.Join(dir, "Solo.csv")
		writeFile(t, p, "A,B\n1,x\n")
		db, err := Open(p)
		if err != nil {
			t.Fatal(err)
		}
		if db.Name != "solo" {
			t.Errorf("name = %q, want solo", db.Name)
		}
		if db.NumRows("Solo") != 1 {
			t.Errorf("rows = %d, want 1", db.NumRows("Solo"))
		}
	})
	t.Run("sqlite file", func(t *testing.T) {
		p := filepath.Join(dir, "mini.db")
		writeSQLiteFixture(t, p, fixtureTables())
		db, err := Open(p)
		if err != nil {
			t.Fatal(err)
		}
		if db.Name != "mini" {
			t.Errorf("name = %q, want mini", db.Name)
		}
		if db.NumRows("Team") != 3 {
			t.Errorf("Team rows = %d, want 3", db.NumRows("Team"))
		}
	})
	t.Run("snapshot file", func(t *testing.T) {
		nba, err := ByName("nba")
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, "Games.snap")
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := nba.WriteSnapshot(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		db, err := Open(p)
		if err != nil {
			t.Fatal(err)
		}
		if db.Name != nba.Name {
			t.Errorf("name = %q, want the written %q", db.Name, nba.Name)
		}
		if db.TotalRows() != nba.TotalRows() {
			t.Errorf("snapshot rows = %d, want %d", db.TotalRows(), nba.TotalRows())
		}
	})
	t.Run("unknown format", func(t *testing.T) {
		p := filepath.Join(dir, "mystery.bin")
		writeFile(t, p, "???\x00???")
		if _, err := Open(p); err == nil || !strings.Contains(err.Error(), "cannot determine the format") {
			t.Fatalf("err = %v, want the unrecognised-format error", err)
		}
	})
	t.Run("missing path", func(t *testing.T) {
		if _, err := Open(filepath.Join(dir, "nope")); err == nil {
			t.Fatal("want an error for a missing path")
		}
	})
}
