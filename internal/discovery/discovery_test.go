package discovery

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"prism/api"
	"prism/internal/constraint"
	"prism/internal/dataset"
	"prism/internal/mem"
	"prism/internal/sentinel"
)

// smallMondial builds a reduced Mondial instance so the tests stay fast.
func smallMondial(t testing.TB) *mem.Database {
	t.Helper()
	db, err := dataset.Mondial(dataset.MondialConfig{
		Seed: 11, Countries: 4, ProvincesPerCountry: 3, CitiesPerProvince: 2,
		Lakes: 30, Rivers: 15, Mountains: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func paperSpec(t testing.TB) *constraint.Spec {
	t.Helper()
	sp, err := constraint.ParseGrid(3,
		[][]string{{"California || Nevada", "Lake Tahoe", ""}},
		[]string{"", "", "DataType=='decimal' AND MinValue>='0'"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestRelatedColumns(t *testing.T) {
	e := NewEngine(smallMondial(t))
	related, err := e.RelatedColumns(paperSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(related) != 3 {
		t.Fatalf("related = %v", related)
	}
	find := func(col int, want string) bool {
		for _, ref := range related[col] {
			if strings.EqualFold(ref.String(), want) {
				return true
			}
		}
		return false
	}
	if !find(0, "geo_lake.Province") {
		t.Errorf("geo_lake.Province should be related to target column 1: %v", related[0])
	}
	if !find(1, "Lake.Name") {
		t.Errorf("Lake.Name should be related to target column 2: %v", related[1])
	}
	if !find(2, "Lake.Area") {
		t.Errorf("Lake.Area should be related to target column 3: %v", related[2])
	}
	// The metadata constraint (decimal, MinValue>=0) must exclude text
	// columns from target column 3.
	for _, ref := range related[2] {
		if strings.EqualFold(ref.String(), "Lake.Name") {
			t.Error("text column must not satisfy the decimal metadata constraint")
		}
	}
	if _, err := e.RelatedColumns(nil); err == nil {
		t.Error("nil spec should fail")
	}
}

func TestRelatedColumnsNoMatch(t *testing.T) {
	e := NewEngine(smallMondial(t))
	spec, err := constraint.ParseGrid(1, [][]string{{"Atlantis Unobtainium"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RelatedColumns(spec); err == nil {
		t.Error("a keyword absent from the database should yield an error")
	}
}

func TestDiscoverPaperExample(t *testing.T) {
	e := NewEngine(smallMondial(t))
	report, err := e.Discover(context.Background(), paperSpec(t), Options{IncludeResults: true, ResultLimit: 5})
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if report.Failure() != "" {
		t.Fatalf("unexpected failure: %s", report.Failure())
	}
	if len(report.Mappings) == 0 {
		t.Fatal("no mappings discovered")
	}
	// The paper's desired query must be among the discovered mappings.
	want := "SELECT DISTINCT geo_lake.Province, Lake.Name, Lake.Area FROM Lake, geo_lake WHERE geo_lake.Lake = Lake.Name"
	found := false
	for _, m := range report.Mappings {
		if m.SQL == want || strings.Contains(m.SQL, "geo_lake.Province, Lake.Name, Lake.Area") && m.Candidate.Tree.Size() == 2 {
			found = true
			if m.Result == nil || m.Result.NumRows() == 0 {
				t.Error("IncludeResults should attach result rows")
			}
		}
	}
	if !found {
		var got []string
		for _, m := range report.Mappings {
			got = append(got, m.SQL)
		}
		t.Errorf("desired mapping not found among:\n%s", strings.Join(got, "\n"))
	}
	// Mappings are ordered simplest first.
	for i := 1; i < len(report.Mappings); i++ {
		if report.Mappings[i].Candidate.Tree.Size() < report.Mappings[i-1].Candidate.Tree.Size() {
			t.Error("mappings not ordered by join-tree size")
			break
		}
	}
	if report.CandidatesEnumerated == 0 || report.FiltersGenerated == 0 || report.Validations == 0 {
		t.Errorf("report counters look wrong: %s", report.Summary())
	}
	if !strings.Contains(report.Summary(), "mappings=") {
		t.Errorf("Summary = %q", report.Summary())
	}
}

func TestDiscoverEveryMappingSatisfiesSpec(t *testing.T) {
	e := NewEngine(smallMondial(t))
	spec := paperSpec(t)
	report, err := e.Discover(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The paper guarantees that every returned query matches the
	// constraints the user provided; verify by executing each mapping.
	for _, m := range report.Mappings {
		res, err := e.Database().Execute(m.Plan)
		if err != nil {
			t.Fatalf("executing %s: %v", m.SQL, err)
		}
		if !spec.MatchesResult(res.Rows) {
			t.Errorf("mapping does not satisfy the spec: %s", m.SQL)
		}
	}
}

// TestDiscoverPolicies checks that the scheduler changes only the order of
// the validations: every estimator finds the mapping SQL Bayes finds.
func TestDiscoverPolicies(t *testing.T) {
	e := NewEngine(smallMondial(t))
	spec := paperSpec(t)
	var want []string
	for _, est := range estimators {
		report, err := e.Discover(context.Background(), spec, Options{estimator: est.build})
		if err != nil {
			t.Fatalf("%s: %v", est.name, err)
		}
		var sqls []string
		for _, m := range report.Mappings {
			sqls = append(sqls, m.SQL)
		}
		slices.Sort(sqls)
		if want == nil {
			want = sqls
		} else if !slices.Equal(sqls, want) {
			t.Errorf("%s finds other mappings than bayes:\n%s\n--- bayes ---\n%s",
				est.name, strings.Join(sqls, "\n"), strings.Join(want, "\n"))
		}
	}
	if len(want) == 0 {
		t.Fatal("the walkthrough found no mapping")
	}
}

func TestDiscoverTimeLimit(t *testing.T) {
	e := NewEngine(smallMondial(t))
	// A nanosecond budget has expired by the time the round looks at it, on
	// any machine: the round ends before its first stage.
	report, err := e.Discover(context.Background(), paperSpec(t), Options{TimeLimit: time.Nanosecond})
	if err != nil {
		t.Fatalf("an exhausted budget is a clean timeout, not an error: %v", err)
	}
	if !report.TimedOut || report.Cancelled {
		t.Errorf("TimedOut=%v Cancelled=%v, want a timed-out round", report.TimedOut, report.Cancelled)
	}
	if report.Validations != 0 || report.CandidatesEnumerated != 0 {
		t.Errorf("the budget was gone before the first stage: %s", report.Summary())
	}
	if report.Failure() == "" {
		t.Error("a timed-out round reports a failure, as in the paper")
	}
}

func TestDiscoverNoTimeLimit(t *testing.T) {
	e := NewEngine(smallMondial(t))
	report, err := e.Discover(context.Background(), paperSpec(t), Options{TimeLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if report.TimedOut {
		t.Error("negative TimeLimit disables the budget")
	}
}

func TestDiscoverMaxResults(t *testing.T) {
	e := NewEngine(smallMondial(t))
	full, err := e.Discover(context.Background(), paperSpec(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Mappings) < 2 {
		t.Skip("need at least two mappings to test truncation")
	}
	capped, err := e.Discover(context.Background(), paperSpec(t), Options{MaxResults: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.Mappings) != 1 {
		t.Errorf("MaxResults not honoured: %d", len(capped.Mappings))
	}
}

func TestDiscoverMetadataOnlySpec(t *testing.T) {
	e := NewEngine(smallMondial(t))
	spec, err := constraint.ParseGrid(2, nil, []string{
		"ColumnName == 'Name' AND TableName == 'Lake'",
		"DataType == 'decimal' AND MinValue >= 0 AND ColumnName == 'Area'",
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := e.Discover(context.Background(), spec, Options{})
	if err != nil {
		t.Fatalf("metadata-only discovery failed: %v", err)
	}
	if len(report.Mappings) == 0 {
		t.Fatal("metadata-only constraints should still discover mappings")
	}
	found := false
	for _, m := range report.Mappings {
		if strings.Contains(m.SQL, "Lake.Name, Lake.Area") {
			found = true
		}
	}
	if !found {
		t.Error("expected a mapping projecting Lake.Name, Lake.Area")
	}
}

func TestDiscoverMultipleSamples(t *testing.T) {
	e := NewEngine(smallMondial(t))
	spec, err := constraint.ParseGrid(2,
		[][]string{
			{"California", "Lake Tahoe"},
			{"Oregon", "Crater Lake"},
		},
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	report, err := e.Discover(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Mappings) == 0 {
		t.Fatal("two-sample discovery should succeed")
	}
	for _, m := range report.Mappings {
		res, err := e.Database().Execute(m.Plan)
		if err != nil {
			t.Fatal(err)
		}
		if !spec.MatchesResult(res.Rows) {
			t.Errorf("mapping violates one of the samples: %s", m.SQL)
		}
	}
}

func BenchmarkDiscoverPaperExample(b *testing.B) {
	e := NewEngine(smallMondial(b))
	spec := paperSpec(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Discover(context.Background(), spec, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNewEngine(b *testing.B) {
	db := smallMondial(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NewEngine(db)
	}
}

// TestCallbackPanicEndsOnlyItsRound: the scheduler calls OnResolved on its
// loop's goroutine; a panic in it — here the sink of a streamed round — must
// reach the round barrier and come back as ErrInternal with a partial report,
// and the engine must serve the next round.
func TestCallbackPanicEndsOnlyItsRound(t *testing.T) {
	e := NewEngine(smallMondial(t))
	recovered := metricRoundPanics.Value()
	sink := func(ev Event) {
		if ev.Kind == api.EventMapping {
			panic("sink bug")
		}
	}
	report, err := e.run(context.Background(), paperSpec(t), Options{}, sink, nil)
	if !errors.Is(err, sentinel.ErrInternal) || !strings.Contains(err.Error(), "sink bug") {
		t.Fatalf("round with a panicking callback returned %v, want ErrInternal naming the panic", err)
	}
	if report == nil {
		t.Fatal("no partial report")
	}
	if got := metricRoundPanics.Value() - recovered; got != 1 {
		t.Errorf("round panic counter moved by %d, want 1", got)
	}
	next, err := e.Discover(context.Background(), paperSpec(t), Options{})
	if err != nil || len(next.Mappings) == 0 {
		t.Fatalf("round after the panic: %d mappings, %v", len(next.Mappings), err)
	}
}
