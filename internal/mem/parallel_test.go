package mem_test

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"prism/internal/dataset"
	"prism/internal/difftest"
	"prism/internal/exec"
	"prism/internal/mem"
	"prism/internal/schema"
)

// lowresMondial is the 10.7k-row Mondial of the benchmark's oneshot_lowres
// workload, generated but with its analysis thrown away: a copy of the rows
// in a fresh database, so Analyze runs under the caller's GOMAXPROCS.
func lowresMondial(t testing.TB) *mem.Database {
	t.Helper()
	src, err := dataset.Mondial(difftest.LowresMondialConfig())
	if err != nil {
		t.Fatal(err)
	}
	db := mem.NewDatabase(src.Name, src.Schema())
	for _, table := range src.Schema().Tables() {
		rows, _ := src.SampleRows(table.Name, 0)
		if err := db.BulkInsert(table.Name, rows); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestAnalyzeIndependentOfCoreCount: the statistics, the per-column keyword
// sets, the key dictionaries and the snapshot bytes are a function of the
// data alone — equal at
// GOMAXPROCS 1 (the direct loop), 2 and 8 (more workers than this host may
// have cores).
func TestAnalyzeIndependentOfCoreCount(t *testing.T) {
	type built struct {
		stats    any
		keywords map[string]map[string]struct{}
		index    map[schema.ColumnRef]*exec.ColumnIndex
		snapshot []byte
	}
	build := func(procs int) built {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		db := lowresMondial(t)
		db.Analyze()
		var snap bytes.Buffer
		if err := db.WriteSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		return built{db.AllStats(), db.ColumnKeywords(), allIndexes(t, db), snap.Bytes()}
	}
	want := build(1)
	if len(want.keywords) == 0 || len(want.snapshot) == 0 {
		t.Fatal("nothing built")
	}
	for _, procs := range []int{2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			got := build(procs)
			if !reflect.DeepEqual(got.stats, want.stats) {
				t.Error("AllStats differ from the one-core build")
			}
			if !reflect.DeepEqual(got.keywords, want.keywords) {
				t.Error("per-column keyword sets differ from the one-core build")
			}
			if !reflect.DeepEqual(got.index, want.index) {
				t.Error("key dictionaries differ from the one-core build")
			}
			if !bytes.Equal(got.snapshot, want.snapshot) {
				t.Error("snapshot bytes differ from the one-core build")
			}
		})
	}
}

// TestSnapshotIndependentOfCoreCount: the snapshot of every bundled
// database, generated and analysed at GOMAXPROCS 1 and at 8, is the same
// bytes, and so is that of the corner-case chain (variant rows) and of the
// numeric-view menagerie (NaN, -0 beside 0), analysed by the write.
func TestSnapshotIndependentOfCoreCount(t *testing.T) {
	write := func(build func() *mem.Database, procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var snap bytes.Buffer
		if err := build().WriteSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		return snap.Bytes()
	}
	builds := map[string]func() *mem.Database{
		"quirks": func() *mem.Database { return difftest.Quirks(t) },
		"ranges": func() *mem.Database { return difftest.Ranges(t) },
	}
	for _, name := range dataset.Names() {
		builds[name] = func() *mem.Database {
			db, err := dataset.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			return db
		}
	}
	for name, build := range builds {
		if one, eight := write(build, 1), write(build, 8); len(one) == 0 || !bytes.Equal(one, eight) {
			t.Errorf("%s: the snapshots written at GOMAXPROCS 1 and 8 differ (%d and %d bytes)", name, len(one), len(eight))
		}
	}
}
