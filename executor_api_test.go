package prism

import (
	"context"
	"errors"
	"slices"
	"testing"

	"prism/internal/discovery"
	"prism/internal/exec"
)

// engineOn is an engine over db that runs every plan on ex: the mem
// reference engine (engineOn(db, db)) or a wrapped executor. The product
// builds its own columnar executor; only tests hand one in.
func engineOn(db *Database, ex exec.Executor) *Engine {
	return &Engine{inner: discovery.NewEngineOn(db, ex)}
}

// TestNumericKeywordSpellings: related-column search accepts every spelling
// of a number the executors accept. On the bundled Mondial the grid
// {"Lake Tahoe", "497"} and its respellings "497.0", "4.97e2" and "0497"
// find the same mappings, on both executors — the respellings used to fail
// with "no source column matches the constraints of target column 2".
func TestNumericKeywordSpellings(t *testing.T) {
	eng, err := Open("mondial")
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]*Engine{"columnar": eng, "mem": engineOn(eng.Database(), eng.Database())}
	var want []string
	for _, area := range []string{"497", "497.0", "4.97e2", "0497", " 497 "} {
		spec, err := ParseConstraints(2, [][]string{{"Lake Tahoe", area}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, executor := range []string{"columnar", "mem"} {
			report, err := engines[executor].Discover(context.Background(), spec, Options{})
			if err != nil {
				t.Fatalf("area %q on %s: %v", area, executor, err)
			}
			var got []string
			for _, m := range report.Mappings {
				got = append(got, m.SQL)
			}
			if want == nil {
				want = got
			}
			if len(got) != 2 || !slices.Equal(got, want) {
				t.Errorf("area %q on %s: mappings %q, want the two of %q", area, executor, got, want)
			}
		}
	}
}

// TestEngineSampleRowsPublic exercises the sample-row fetch through the
// public API.
func TestEngineSampleRowsPublic(t *testing.T) {
	eng, err := Open("nba")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := eng.SampleRows("Team", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	// Zero and negative sample sizes are caller bugs: they must surface as
	// a structured invalid_request error, never an unbounded dump.
	for _, limit := range []int{0, -1, -100} {
		if _, err := eng.SampleRows("Team", limit); !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("SampleRows(limit=%d) err = %v, want ErrInvalidRequest", limit, err)
		}
	}
}
