package prism

import (
	"context"
	"errors"
	"slices"
	"testing"
)

// TestExecutorNames checks that both bundled backends are registered and
// selectable through the public API.
func TestExecutorNames(t *testing.T) {
	names := ExecutorNames()
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	if !got["mem"] || !got["columnar"] {
		t.Fatalf("ExecutorNames = %v, want both mem and columnar", names)
	}
}

// TestOpenWithExecutor checks the engine-default and per-round selection
// paths and that they agree on the walkthrough mapping set.
func TestOpenWithExecutor(t *testing.T) {
	cfg := MondialConfig{
		Seed: 11, Countries: 4, ProvincesPerCountry: 3, CitiesPerProvince: 2,
		Lakes: 30, Rivers: 15, Mountains: 10,
	}
	spec, err := ParseConstraints(3,
		[][]string{{"California || Nevada", "Lake Tahoe", ""}},
		[]string{"", "", "DataType=='decimal' AND MinValue>='0'"})
	if err != nil {
		t.Fatal(err)
	}

	sqls := func(executorOption, perRound string) []string {
		opts := []OpenOption{WithMondialConfig(cfg)}
		if executorOption != "" {
			opts = append(opts, WithExecutor(executorOption))
		}
		eng, err := Open("mondial", opts...)
		if err != nil {
			t.Fatal(err)
		}
		report, err := eng.Discover(context.Background(), spec, Options{Executor: perRound})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, m := range report.Mappings {
			out = append(out, m.SQL)
		}
		if len(out) == 0 {
			t.Fatal("no mappings")
		}
		return out
	}

	reference := sqls("mem", "")
	for _, variant := range [][2]string{{"columnar", ""}, {"", ""}, {"mem", "columnar"}, {"", "mem"}} {
		got := sqls(variant[0], variant[1])
		if len(got) != len(reference) {
			t.Fatalf("WithExecutor(%q)/Options.Executor(%q): %d mappings, want %d",
				variant[0], variant[1], len(got), len(reference))
		}
		for i := range got {
			if got[i] != reference[i] {
				t.Fatalf("WithExecutor(%q)/Options.Executor(%q): mapping %d = %q, want %q",
					variant[0], variant[1], i, got[i], reference[i])
			}
		}
	}

	if _, err := Open("mondial", WithMondialConfig(cfg), WithExecutor("gpu")); err != nil {
		// Open builds lazily; the unknown name must surface on the first
		// round instead.
		t.Fatalf("Open should not fail eagerly on an unknown executor: %v", err)
	}
	eng, err := Open("mondial", WithMondialConfig(cfg), WithExecutor("gpu"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Discover(context.Background(), spec, Options{}); err == nil {
		t.Error("a round on an unknown executor should fail")
	}
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
	var want []string
	for _, area := range []string{"497", "497.0", "4.97e2", "0497", " 497 "} {
		spec, err := ParseConstraints(2, [][]string{{"Lake Tahoe", area}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, executor := range []string{"columnar", "mem"} {
			report, err := eng.Discover(context.Background(), spec, Options{Executor: executor})
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
