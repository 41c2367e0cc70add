package prism

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeCSVDataset lays out a small two-table CSV directory whose
// inferred foreign key (City.State -> State.Name) gives discovery a join
// edge to work with.
func writeCSVDataset(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "geo")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"State.csv": "Name,Population\nCalifornia,39500000\nNevada,3100000\n",
		"City.csv":  "Name,State,Population\nSacramento,California,525000\nReno,Nevada,264000\nLas Vegas,Nevada,641000\n",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestOpenFileScheme pins prism.Open("file:PATH"): a CSV directory opens
// into a working engine with the usual surface (sampling, discovery).
func TestOpenFileScheme(t *testing.T) {
	dir := writeCSVDataset(t)
	eng, err := Open("file:" + dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Database().Name; got != "geo" {
		t.Errorf("database name = %q, want geo", got)
	}
	rows, err := eng.SampleRows("City", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("sample returned %d rows, want 2", len(rows))
	}
	spec, err := ParseConstraints(2,
		[][]string{{"Reno || Las Vegas", "Nevada"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	report, err := eng.Discover(t.Context(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Mappings) == 0 {
		t.Fatal("no mappings discovered over the file-backed dataset")
	}
	found := false
	for _, m := range report.Mappings {
		if strings.Contains(m.SQL, "City") && strings.Contains(m.SQL, "State") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a City-State join mapping; got %d mappings", len(report.Mappings))
	}
}

// TestOpenFileSchemeSnapshot pins that the file: scheme accepts engine
// snapshots, the out-of-core cold-start path.
func TestOpenFileSchemeSnapshot(t *testing.T) {
	src, err := Open("mondial", WithMondialConfig(tinyMondial()))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mondial.snap")
	if err := src.SnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	eng, err := Open("file:" + path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := totalRows(eng.Database()), totalRows(src.Database()); got != want {
		t.Errorf("snapshot-opened rows = %d, want %d", got, want)
	}
}

// TestOpenFileSchemeErrors pins the failure modes: missing path, sizing
// options combined with file:, unknown formats.
func TestOpenFileSchemeErrors(t *testing.T) {
	if _, err := Open("file:/no/such/path-" + t.Name()); err == nil {
		t.Error("want an error for a missing path")
	}
	if _, err := Open("file:"+writeCSVDataset(t), WithMondialConfig(MondialConfig{})); err == nil {
		t.Error("want an error when a sizing option targets a file: open")
	}
	garbage := filepath.Join(t.TempDir(), "blob.bin")
	if err := os.WriteFile(garbage, []byte("\x00\x01\x02"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open("file:" + garbage); err == nil {
		t.Error("want an error for an unrecognised file format")
	}
}

// TestRegistryRegisterFile pins that file-backed datasets serve through
// the registry exactly like named ones, and that the registry never
// resolves file: names it was not explicitly given.
func TestRegistryRegisterFile(t *testing.T) {
	dir := writeCSVDataset(t)
	r := NewRegistry()
	r.RegisterFile("geo", dir)

	eng, err := r.Get("geo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SampleRows("State", 1); err != nil {
		t.Fatal(err)
	}
	again, err := r.Get("GEO")
	if err != nil {
		t.Fatal(err)
	}
	if again != eng {
		t.Error("registry rebuilt a file-backed engine instead of caching it")
	}
	if _, err := r.Get("file:" + dir); !errors.Is(err, ErrUnknownDatabase) {
		t.Errorf("unregistered file: name should be ErrUnknownDatabase, got %v", err)
	}
}
