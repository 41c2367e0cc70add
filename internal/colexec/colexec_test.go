package colexec

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"prism/internal/dataset"
	"prism/internal/exec"
	"prism/internal/mem"
	"prism/internal/rowset"
	"prism/internal/schema"
	"prism/internal/value"
)

func ref(t, c string) schema.ColumnRef { return schema.ColumnRef{Table: t, Column: c} }

func mondial(t testing.TB) *mem.Database {
	t.Helper()
	db, err := dataset.Mondial(dataset.MondialConfig{
		Seed: 3, Countries: 4, ProvincesPerCountry: 3, CitiesPerProvince: 2,
		Lakes: 25, Rivers: 12, Mountains: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	db.Analyze()
	return db
}

func build(t testing.TB, db *mem.Database) exec.Executor {
	t.Helper()
	ex, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// lakePlan is the paper's Table 1 join.
func lakePlan() exec.Plan {
	return exec.Plan{
		Tables: []string{"Lake", "geo_lake"},
		Joins:  []exec.JoinEdge{{Left: ref("geo_lake", "Lake"), Right: ref("Lake", "Name")}},
		Project: []schema.ColumnRef{
			ref("geo_lake", "Province"), ref("Lake", "Name"), ref("Lake", "Area"),
		},
	}
}

// threeWayPlan chains Country, Province and City along their foreign keys.
func threeWayPlan() exec.Plan {
	return exec.Plan{
		Tables: []string{"Country", "Province", "City"},
		Joins: []exec.JoinEdge{
			{Left: ref("Province", "Country"), Right: ref("Country", "Name")},
			{Left: ref("City", "Province"), Right: ref("Province", "Name")},
		},
		Project: []schema.ColumnRef{ref("Country", "Name"), ref("City", "Name")},
	}
}

// planVariants covers the execution shapes the validation phase produces:
// single tables, two- and three-way joins, distinct projections, and
// pushed-down predicates with and without keyword covers.
func planVariants() []struct {
	name string
	plan exec.Plan
	opts exec.ExecOptions
} {
	keyword := func(word string) exec.ColumnPredicate {
		return exec.ColumnPredicate{
			Ref:      ref("geo_lake", "Province"),
			Pred:     func(v value.Value) bool { return v.MatchesKeyword(word) },
			Keywords: []string{word},
		}
	}
	rangePred := exec.ColumnPredicate{
		Ref:  ref("Lake", "Area"),
		Pred: func(v value.Value) bool { f, ok := v.Float(); return ok && f >= 100 && f <= 600 },
	}
	single := exec.Plan{
		Tables:  []string{"Lake"},
		Project: []schema.ColumnRef{ref("Lake", "Name"), ref("Lake", "Area")},
	}
	distinct := lakePlan()
	distinct.Distinct = true
	return []struct {
		name string
		plan exec.Plan
		opts exec.ExecOptions
	}{
		{name: "single-table", plan: single},
		{name: "two-way-join", plan: lakePlan()},
		{name: "two-way-distinct", plan: distinct},
		{name: "three-way-join", plan: threeWayPlan()},
		{name: "keyword-pushdown", plan: lakePlan(), opts: exec.ExecOptions{
			ColumnPredicates: []exec.ColumnPredicate{keyword("California")},
		}},
		{name: "range-pushdown", plan: lakePlan(), opts: exec.ExecOptions{
			ColumnPredicates: []exec.ColumnPredicate{rangePred},
		}},
		{name: "mixed-pushdown-limit", plan: lakePlan(), opts: exec.ExecOptions{
			ColumnPredicates: []exec.ColumnPredicate{keyword("California"), rangePred},
			Limit:            3,
		}},
	}
}

// TestExecuteMatchesReference compares every plan variant against the mem
// reference engine: same rows, same order, same spelling.
func TestExecuteMatchesReference(t *testing.T) {
	db := mondial(t)
	col := build(t, db)
	for _, tc := range planVariants() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			want, err := db.ExecuteWith(tc.plan, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := col.ExecuteWith(tc.plan, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			sameSpelling(t, tc.name, got.Rows, want.Rows)
			if tc.opts.Limit == 0 && got.Stats.ResultRows != want.Stats.ResultRows {
				t.Errorf("ResultRows = %d, want %d", got.Stats.ResultRows, want.Stats.ResultRows)
			}
		})
	}
}

// TestIndexedSelectionScansFewerRows verifies the point of the keyword
// index: an equality-shaped push-down must touch far fewer rows than the
// scanning reference engine.
func TestIndexedSelectionScansFewerRows(t *testing.T) {
	db := mondial(t)
	col := build(t, db)
	opts := exec.ExecOptions{ColumnPredicates: []exec.ColumnPredicate{{
		Ref:      ref("Lake", "Name"),
		Pred:     func(v value.Value) bool { return v.MatchesKeyword("Lake Tahoe") },
		Keywords: []string{"Lake Tahoe"},
	}}}
	memRes, err := db.ExecuteWith(lakePlan(), opts)
	if err != nil {
		t.Fatal(err)
	}
	colRes, err := col.ExecuteWith(lakePlan(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if colRes.NumRows() != memRes.NumRows() {
		t.Fatalf("row count mismatch: %d vs %d", colRes.NumRows(), memRes.NumRows())
	}
	if colRes.Stats.RowsScanned >= memRes.Stats.RowsScanned {
		t.Errorf("columnar scanned %d rows, expected fewer than mem's %d",
			colRes.Stats.RowsScanned, memRes.Stats.RowsScanned)
	}
}

// TestExistsEarlyTermination checks Exists semantics and the Limit flag.
func TestExistsEarlyTermination(t *testing.T) {
	db := mondial(t)
	col := build(t, db)
	ok, stats, err := col.Exists(lakePlan(), exec.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("lake join should be non-empty")
	}
	if !stats.TerminatedEarly {
		t.Error("Exists should terminate early on a non-empty join")
	}
	none, _, err := col.Exists(lakePlan(), exec.ExecOptions{
		TuplePredicate: func(value.Tuple) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	if none {
		t.Error("an always-false tuple predicate should yield no tuple")
	}
}

// TestExistsEmptyProjection pins what a filter covering no constrained
// column asks: a plan that projects nothing is a probe of whether its join
// is non-empty, and the two executors answer it alike, on a join that has
// tuples and on one that a pushed-down selection empties.
func TestExistsEmptyProjection(t *testing.T) {
	db := mondial(t)
	col := build(t, db)
	plan := lakePlan()
	plan.Project = nil
	atlantis := exec.ColumnPredicate{
		Ref:      ref("Lake", "Name"),
		Pred:     func(v value.Value) bool { return v.MatchesKeyword("Atlantis") },
		Keywords: []string{"Atlantis"},
	}
	for _, tc := range []struct {
		name string
		opts exec.ExecOptions
		want bool
	}{
		{name: "non-empty", want: true},
		{name: "empty", opts: exec.ExecOptions{ColumnPredicates: []exec.ColumnPredicate{atlantis}}},
	} {
		for ename, ex := range map[string]exec.Executor{"mem": db, "colexec": col} {
			opts := tc.opts
			opts.TuplePredicate = func(tuple value.Tuple) bool {
				if len(tuple) != 0 {
					t.Errorf("%s %s: a plan projecting nothing produced %v", tc.name, ename, tuple)
				}
				return true
			}
			got, _, err := ex.Exists(plan, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, ename, err)
			}
			if got != tc.want {
				t.Errorf("%s %s: Exists = %v, want %v", tc.name, ename, got, tc.want)
			}
		}
	}
}

// TestMaxIntermediateAborts checks the runaway-join guard.
func TestMaxIntermediateAborts(t *testing.T) {
	col := build(t, mondial(t))
	_, err := col.ExecuteWith(lakePlan(), exec.ExecOptions{MaxIntermediate: 1})
	if err == nil {
		t.Fatal("MaxIntermediate=1 should abort the join")
	}
	if !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestInterrupt checks that an armed interrupt aborts with ErrInterrupted.
func TestInterrupt(t *testing.T) {
	col := build(t, mondial(t))
	fire := false
	_, err := col.ExecuteWith(lakePlan(), exec.ExecOptions{
		// Keep at least one predicate no keyword seeds, which is evaluated
		// over the whole column, so the loops run long enough for the poll
		// to fire.
		ColumnPredicates: []exec.ColumnPredicate{{
			Ref:  ref("Lake", "Area"),
			Pred: func(v value.Value) bool { fire = true; return true },
		}},
		Interrupt: func() bool { return fire },
	})
	// The reduced fixture may finish between polls; accept either a clean
	// run or ErrInterrupted, but nothing else.
	if err != nil && !errors.Is(err, exec.ErrInterrupted) {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestValidateErrors checks that invalid plans are rejected before
// execution.
func TestValidateErrors(t *testing.T) {
	col := build(t, mondial(t))
	_, err := col.ExecuteWith(exec.Plan{Tables: []string{"NoSuch"}}, exec.ExecOptions{})
	if err == nil {
		t.Error("unknown table should fail validation")
	}
	_, err = col.ExecuteWith(exec.Plan{
		Tables:  []string{"Lake", "Country"},
		Project: []schema.ColumnRef{ref("Lake", "Name")},
	}, exec.ExecOptions{})
	if err == nil {
		t.Error("disconnected join graph should fail validation")
	}
}

// TestSampleRowsAndMetadata checks the catalog surface of the executor.
func TestSampleRowsAndMetadata(t *testing.T) {
	db := mondial(t)
	col := build(t, db)
	if got, want := col.NumRows("Lake"), db.NumRows("Lake"); got != want {
		t.Errorf("NumRows = %d, want %d", got, want)
	}
	rows, err := col.SampleRows("Lake", 3)
	if err != nil {
		t.Fatal(err)
	}
	memRows, err := db.SampleRows("Lake", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(memRows) {
		t.Fatalf("sample sizes differ: %d vs %d", len(rows), len(memRows))
	}
	for i := range rows {
		if rows[i].Key() != memRows[i].Key() {
			t.Errorf("sample row %d differs", i)
		}
	}
	st, ok := col.Stats(ref("Lake", "Area"))
	if !ok || st.NonNullCount() == 0 {
		t.Error("Stats should delegate to the source's preprocessing")
	}
	if !col.ColumnHasKeyword(ref("Lake", "Name"), "Lake Tahoe") {
		t.Error("ColumnHasKeyword should find the seeded lake")
	}
}

// TestKeywordKeyConsistency is the property keyword selections rely on:
// whenever MatchesKeyword(v, kw) holds, the rows of the ids the key
// dictionary lists for kw (its keyword table and its numeric views) hold
// v's row — no false negatives — and the selection of a keyword predicate,
// which evaluates it on those ids only, keeps exactly the matching rows. The
// values share one column, so "497", "497.0", 497 and 497.0 are one value id
// and its variants.
func TestKeywordKeyConsistency(t *testing.T) {
	values := []value.Value{
		value.NewText("Lake Tahoe"),
		value.NewText("  lake tahoe  "),
		value.NewText("497"),
		value.NewText("497.0"),
		value.NewInt(497),
		value.NewDecimal(497),
		value.NewDecimal(497.5),
		value.Parse("2020-01-31"),
		value.NewText("O'Higgins"),
		value.NewText("-0"),
		value.NewDecimal(0),
	}
	keywords := []string{
		"Lake Tahoe", "LAKE TAHOE", " lake tahoe ", "497", "497.0", "497.5",
		"2020-01-31", "O'Higgins", "tahoe", "498", "0", "-0", "+0",
	}
	rows := make([]value.Tuple, len(values))
	for i, v := range values {
		rows[i] = value.Tuple{v}
	}
	x, _ := exec.NewColumnIndex(ref("T", "v"), value.Text, rows, 0)
	for _, kw := range keywords {
		hits := rowset.New(len(values))
		x.KeywordIDs(kw, func(id int32) bool { hits.AddSorted(x.Post.At(id)); return true })
		kept := rowset.New(len(values))
		x.Select(&exec.ColumnPredicate{Pred: func(v value.Value) bool { return v.MatchesKeyword(kw) }, Keywords: []string{kw}}, kept, nil)
		for row, v := range values {
			if v.MatchesKeyword(kw) && !hits.Contains(int32(row)) {
				t.Errorf("false negative: %q matches keyword %q, which lists rows %v", v, kw, hits.AppendTo(nil))
			}
			if v.MatchesKeyword(kw) != kept.Contains(int32(row)) {
				t.Errorf("keyword %q: the selection keeps %q = %v, MatchesKeyword says %v", kw, v, kept.Contains(int32(row)), v.MatchesKeyword(kw))
			}
		}
	}
}

// BenchmarkValidationProbe measures the executor on the validation-shaped
// workload (Exists with an equality push-down), columnar vs mem.
func BenchmarkValidationProbe(b *testing.B) {
	db := mondial(b)
	col := build(b, db)
	opts := exec.ExecOptions{ColumnPredicates: []exec.ColumnPredicate{{
		Ref:      ref("Lake", "Name"),
		Pred:     func(v value.Value) bool { return v.MatchesKeyword("Lake Tahoe") },
		Keywords: []string{"Lake Tahoe"},
	}}}
	plan := lakePlan()
	for _, engine := range []struct {
		name string
		ex   exec.Executor
	}{{"columnar", col}, {"mem", db}} {
		engine := engine
		b.Run(engine.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ok, _, err := engine.ex.Exists(plan, opts)
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					b.Fatal(fmt.Errorf("expected a match"))
				}
			}
		})
	}
}
