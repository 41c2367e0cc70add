package dataset

// Opening a dataset file: Open sniffs the format of a path on disk and
// calls its loader. It is what prism.Open's "file:" scheme reaches.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"prism/internal/mem"
)

// sqliteMagic opens every SQLite 3 database file.
const sqliteMagic = "SQLite format 3\x00"

// Open loads a dataset from a path on disk, sniffing its format:
//
//   - a directory is loaded as one table per contained *.csv file;
//   - a file starting with the SQLite 3 magic is read as a SQLite
//     database (read-only, rowid tables);
//   - a file starting with the engine-snapshot magic is decoded as a
//     snapshot (see mem.ReadSnapshot);
//   - anything else with a .csv extension is loaded as a single-table
//     CSV dataset.
//
// A loaded file's database is named after the path's base name without
// extension, lower-cased — the convention the registry uses for generators;
// a snapshot keeps the name it was written with. The database is analyzed
// and query-ready.
func Open(path string) (*mem.Database, error) {
	if err := faultOpen.Hit(); err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", path, err)
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	if info.IsDir() {
		return LoadCSVDir(path)
	}
	head := make([]byte, 16)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	n, err := io.ReadFull(f, head)
	f.Close()
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, fmt.Errorf("dataset: reading %s: %w", path, err)
	}
	head = head[:n]
	switch {
	case strings.HasPrefix(string(head), sqliteMagic):
		return LoadSQLite(path)
	case strings.HasPrefix(string(head), "PRSNAP"):
		return loadSnapshotFile(path)
	case strings.EqualFold(filepath.Ext(path), ".csv"):
		return LoadCSVFile(path)
	default:
		return nil, fmt.Errorf("dataset: cannot determine the format of %s (want a directory of CSVs, a .csv file, a SQLite database or a prism snapshot)", path)
	}
}

func loadSnapshotFile(path string) (*mem.Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	return mem.ReadSnapshot(f)
}

// datasetNameForPath derives the registry name for a file-backed
// dataset: base name, extension stripped, lower-cased.
func datasetNameForPath(path string) string {
	base := filepath.Base(filepath.Clean(path))
	if ext := filepath.Ext(base); ext != "" && ext != base {
		base = base[:len(base)-len(ext)]
	}
	if base == "" || base == "." || base == string(filepath.Separator) {
		return "dataset"
	}
	return strings.ToLower(base)
}
