package prism

import (
	"bytes"
	"context"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"prism/internal/dataset"
	"prism/internal/difftest"
	"prism/internal/mem"
)

// snapshotSpec is a small high-resolution specification every bundled
// dataset responds to with a non-empty mapping set (keywords are chosen
// per dataset below).
func snapshotSpecFor(t *testing.T, name string) *Spec {
	t.Helper()
	grids := map[string][][]string{
		"mondial": {{"California || Nevada", "Lake Tahoe"}},
		"imdb":    {{"Inception", "Leonardo DiCaprio"}},
		"nba":     {{"Los Angeles", "Lakers"}},
	}
	spec, err := ParseConstraints(2, grids[name], nil)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func discoverDigest(t *testing.T, eng *Engine, spec *Spec) string {
	t.Helper()
	report, err := eng.Discover(context.Background(), spec, Options{
		MaxTables: 3, IncludeResults: true, ResultLimit: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fuzzDigest(report)
}

// TestSnapshotLosslessAcrossDatasets pins the headline acceptance
// criterion: for each bundled dataset, and for the corner-case chain and the
// numeric-view menagerie — variant rows ("ABC"/"abc", "3"/"3.0"), NaN and
// -0 cells, which a snapshot re-encodes off the key dictionaries — an engine
// loaded from a just-written snapshot produces byte-identical mapping sets
// (SQL order, previews, validation schedule) to the engine that wrote it.
func TestSnapshotLosslessAcrossDatasets(t *testing.T) {
	for _, name := range DatasetNames() {
		t.Run(name, func(t *testing.T) {
			var opts []OpenOption
			if name == "mondial" {
				opts = append(opts, WithMondialConfig(tinyMondial()))
			}
			fresh, err := Open(name, opts...)
			if err != nil {
				t.Fatal(err)
			}
			checkSnapshotLossless(t, fresh, []*Spec{snapshotSpecFor(t, name)})
		})
	}
	// The generated pool: Quirks' variant rows, Ranges' NaN and -0, and
	// the bundled demo-size databases.
	pools := map[string]*mem.Database{}
	for _, db := range []*mem.Database{difftest.Quirks(t), difftest.Ranges(t)} {
		pools[db.Name] = db
	}
	for name, db := range difftest.Databases(t) {
		pools[name+"-rounds"] = db
	}
	for _, name := range slices.Sorted(maps.Keys(pools)) {
		db := pools[name]
		t.Run(name, func(t *testing.T) {
			fresh := NewEngine(db)
			var specs []*Spec
			for _, r := range difftest.Rounds(t, db, 1) {
				specs = append(specs, r.Spec)
			}
			checkSnapshotLossless(t, fresh, specs)
		})
	}
}

// checkSnapshotLossless writes fresh's snapshot, loads it and requires the
// same data version and, on every spec, the same mapping set.
func checkSnapshotLossless(t *testing.T, fresh *Engine, specs []*Spec) {
	t.Helper()
	path := filepath.Join(t.TempDir(), fresh.Database().Name+".snap")
	if err := fresh.SnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Database().Version(), fresh.Database().Version(); got != want {
		t.Errorf("data version = %d, want %d", got, want)
	}
	for _, spec := range specs {
		want := discoverDigest(t, fresh, spec)
		if got := discoverDigest(t, loaded, spec); got != want {
			t.Errorf("snapshot-loaded engine diverges on %s:\n--- fresh ---\n%s--- loaded ---\n%s", spec, want, got)
		}
	}
}

// TestOpenSnapshotFailsClosed pins the file-level corruption contract:
// missing, truncated and bit-flipped snapshot files surface typed errors
// and never an engine.
func TestOpenSnapshotFailsClosed(t *testing.T) {
	eng, err := Open("nba")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "nba.snap")
	if err := eng.SnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("missing file", func(t *testing.T) {
		if _, err := OpenSnapshot(filepath.Join(dir, "nope.snap")); err == nil {
			t.Fatal("want error for a missing snapshot")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		p := filepath.Join(dir, "truncated.snap")
		if err := os.WriteFile(p, good[:len(good)/3], 0o644); err != nil {
			t.Fatal(err)
		}
		eng, err := OpenSnapshot(p)
		if !errors.Is(err, ErrSnapshotCorrupt) || eng != nil {
			t.Fatalf("err = %v (engine %v), want ErrSnapshotCorrupt", err, eng)
		}
	})
	t.Run("bit flip", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(bad)/2] ^= 0x10
		p := filepath.Join(dir, "flipped.snap")
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		eng, err := OpenSnapshot(p)
		if !errors.Is(err, ErrSnapshotCorrupt) || eng != nil {
			t.Fatalf("err = %v (engine %v), want ErrSnapshotCorrupt", err, eng)
		}
	})
	t.Run("wrong file entirely", func(t *testing.T) {
		p := filepath.Join(dir, "notes.txt")
		if err := os.WriteFile(p, []byte("not a snapshot at all, just text"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSnapshot(p); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
		}
	})
}

// TestSnapshotOptionValidation pins that a snapshot load, which takes no
// options, restores a database on which the reference engine agrees with
// the fresh columnar engine.
func TestSnapshotOptionValidation(t *testing.T) {
	eng, err := Open("nba")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	loaded, err := ReadSnapshot(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	loaded = engineOn(loaded.Database(), loaded.Database())
	spec := snapshotSpecFor(t, "nba")
	if got, want := discoverDigest(t, loaded, spec), discoverDigest(t, eng, spec); got != want {
		t.Errorf("reference engine over the snapshot diverges:\n--- fresh ---\n%s--- loaded ---\n%s", want, got)
	}
}

// BenchmarkColdStart measures what a snapshot saves at start-up: per
// bundled data set, and for the 230k-row Mondial of the benchmark's
// oneshot_scale workload (skipped under -short), generating and analyzing
// the database against decoding a snapshot of it. A snapshot carries every
// column's dictionary codes but not the dictionary, so decoding builds
// every column's from the decoded rows, as the analysis did, before
// ReadSnapshot returns. Engine construction on top (Bayesian training, the
// executor build) is the same on both paths, so the pair isolates the phase
// the CLIs' -snapshot flags skip.
//
//	go test -run xxx -bench ColdStart .
func BenchmarkColdStart(b *testing.B) {
	type dataSet struct {
		name  string
		build func() (*mem.Database, error)
	}
	var sets []dataSet
	for _, name := range DatasetNames() {
		sets = append(sets, dataSet{name, func() (*mem.Database, error) { return dataset.ByName(name) }})
	}
	sets = append(sets, dataSet{"mondial-230k", func() (*mem.Database, error) { return dataset.Mondial(difftest.ScaleMondialConfig()) }})
	for _, bench := range sets {
		if testing.Short() && bench.name == "mondial-230k" {
			continue
		}
		db, err := bench.build()
		if err != nil {
			b.Fatal(err)
		}
		var snap bytes.Buffer
		if err := db.WriteSnapshot(&snap); err != nil {
			b.Fatal(err)
		}
		b.Run(bench.name+"/rebuild", func(b *testing.B) {
			for b.Loop() {
				if _, err := bench.build(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(bench.name+"/snapshot", func(b *testing.B) {
			b.SetBytes(int64(snap.Len()))
			for b.Loop() {
				loaded, err := mem.ReadSnapshot(bytes.NewReader(snap.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				if totalRows(loaded) != totalRows(db) {
					b.Fatalf("snapshot round trip lost rows: %d != %d", totalRows(loaded), totalRows(db))
				}
			}
		})
	}
}
