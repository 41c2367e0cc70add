package sched

import (
	"context"
	"testing"
	"time"

	"prism/internal/bayes"
	"prism/internal/constraint"
	"prism/internal/experiment"
	"prism/internal/filter"
	"prism/internal/graphx"
	"prism/internal/mem"
	"prism/internal/schema"
	"prism/internal/value"
)

// fixture builds a Mondial-like database large enough that scheduling
// decisions matter, plus the paper's demo specification and its candidates.
type fixture struct {
	db    *mem.Database
	spec  *constraint.Spec
	set   *filter.Set
	model *bayes.Model
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	s := schema.New()
	add := func(tab *schema.Table) {
		if err := s.AddTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	add(schema.MustTable("Lake",
		schema.Column{Name: "Name", Type: value.Text},
		schema.Column{Name: "Area", Type: value.Decimal},
	))
	add(schema.MustTable("geo_lake",
		schema.Column{Name: "Lake", Type: value.Text},
		schema.Column{Name: "Province", Type: value.Text},
	))
	add(schema.MustTable("Province",
		schema.Column{Name: "Name", Type: value.Text},
		schema.Column{Name: "Country", Type: value.Text},
	))
	add(schema.MustTable("City",
		schema.Column{Name: "Name", Type: value.Text},
		schema.Column{Name: "Province", Type: value.Text},
	))
	fk := func(ft, fc, tt, tc string) {
		if err := s.AddForeignKey(schema.ForeignKey{
			From: schema.ColumnRef{Table: ft, Column: fc},
			To:   schema.ColumnRef{Table: tt, Column: tc},
		}); err != nil {
			t.Fatal(err)
		}
	}
	fk("geo_lake", "Lake", "Lake", "Name")
	fk("geo_lake", "Province", "Province", "Name")
	fk("City", "Province", "Province", "Name")

	db := mem.NewDatabase("sched-test", s)
	provinces := []string{"California", "Nevada", "Oregon", "Florida", "Michigan", "Texas", "Utah", "Idaho"}
	for _, p := range provinces {
		if err := db.InsertStrings("Province", p, "United States"); err != nil {
			t.Fatal(err)
		}
		if err := db.InsertStrings("City", "City of "+p, p); err != nil {
			t.Fatal(err)
		}
	}
	lakes := []struct {
		name string
		area float64
		prov []string
	}{
		{"Lake Tahoe", 497, []string{"California", "Nevada"}},
		{"Crater Lake", 53.2, []string{"Oregon"}},
		{"Fort Peck Lake", 981, []string{"Florida"}},
		{"Lake Michigan", 58000, []string{"Michigan"}},
		{"Mono Lake", 180, []string{"California"}},
		{"Pyramid Lake", 487, []string{"Nevada"}},
		{"Great Salt Lake", 4400, []string{"Utah"}},
		{"Bear Lake", 280, []string{"Utah", "Idaho"}},
	}
	for _, l := range lakes {
		if err := db.Insert("Lake", value.Tuple{value.NewText(l.name), value.NewDecimal(l.area)}); err != nil {
			t.Fatal(err)
		}
		for _, p := range l.prov {
			if err := db.InsertStrings("geo_lake", l.name, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.Analyze()

	spec, err := constraint.ParseGrid(3,
		[][]string{{"California || Nevada", "Lake Tahoe", ""}},
		[]string{"", "", "DataType=='decimal' AND MinValue>='0'"},
	)
	if err != nil {
		t.Fatal(err)
	}

	g := graphx.New(s)
	related := [][]schema.ColumnRef{
		{{Table: "geo_lake", Column: "Province"}, {Table: "Province", Column: "Name"}, {Table: "City", Column: "Province"}},
		{{Table: "Lake", Column: "Name"}, {Table: "geo_lake", Column: "Lake"}},
		{{Table: "Lake", Column: "Area"}},
	}
	cands, err := graphx.Enumerate(g, related, graphx.EnumerateOptions{MaxTables: 4, RequireUsefulLeaves: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 3 {
		t.Fatalf("expected several candidates, got %d", len(cands))
	}
	return &fixture{
		db:    db,
		spec:  spec,
		set:   decomposeFor(t, spec, cands),
		model: bayes.Train(db),
	}
}

// truth validates every filter of the fixture's set.
func (fx *fixture) truth(t testing.TB) []filter.Outcome {
	t.Helper()
	truth, err := experiment.GroundTruth(context.Background(), fx.db, fx.spec, fx.set)
	if err != nil {
		t.Fatal(err)
	}
	return truth
}

// estimators are Prism's estimator and the evaluation's three others.
func estimators(fx *fixture, truth []filter.Outcome) map[string]Estimator {
	return map[string]Estimator{
		"pathlength": &experiment.PathLengthEstimator{},
		"bayes":      &BayesEstimator{Model: fx.model, Spec: fx.spec},
		"oracle":     experiment.NewOracle(fx.set, truth),
		"random":     &experiment.RandomEstimator{Seed: 42},
	}
}

func TestEstimatorBounds(t *testing.T) {
	fx := newFixture(t)
	for key, est := range estimators(fx, fx.truth(t)) {
		for _, f := range fx.set.Filters {
			p := est.FailureProbability(f)
			if p < 0 || p > 1 {
				t.Errorf("%s: probability %v out of range for %s", key, p, f)
			}
		}
	}
}

func TestBayesEstimatorDiscriminates(t *testing.T) {
	fx := newFixture(t)
	est := &BayesEstimator{Model: fx.model, Spec: fx.spec}
	// A filter binding the lake-name constraint to geo_lake.Province (which
	// never contains "Lake Tahoe") must look more likely to fail than one
	// binding it to Lake.Name.
	good := &filter.Filter{
		Tree:       graphx.Tree{Tables: []string{"Lake"}},
		TargetCols: []int{1},
		Sources:    []schema.ColumnRef{{Table: "Lake", Column: "Name"}},
	}
	bad := &filter.Filter{
		Tree:       graphx.Tree{Tables: []string{"geo_lake"}},
		TargetCols: []int{1},
		Sources:    []schema.ColumnRef{{Table: "geo_lake", Column: "Province"}},
	}
	if est.FailureProbability(good) >= est.FailureProbability(bad) {
		t.Errorf("bayes estimator should rank the wrong binding as more likely to fail: good=%v bad=%v",
			est.FailureProbability(good), est.FailureProbability(bad))
	}
	// Unconstrained filter has some low failure probability.
	uncon := &filter.Filter{
		Tree:       graphx.Tree{Tables: []string{"Lake"}},
		TargetCols: []int{2},
		Sources:    []schema.ColumnRef{{Table: "Lake", Column: "Area"}},
	}
	if p := est.FailureProbability(uncon); p > 0.5 {
		t.Errorf("unconstrained filter should rarely fail, got %v", p)
	}
	emptySpec := &BayesEstimator{Model: fx.model, Spec: &constraint.Spec{NumColumns: 1, Metadata: nil}}
	if emptySpec.FailureProbability(good) != 0 {
		t.Error("no samples means nothing to fail")
	}
}

func TestRunResolvesAllCandidates(t *testing.T) {
	fx := newFixture(t)
	truth := fx.truth(t)
	for key, est := range estimators(fx, truth) {
		runner := &Runner{DB: fx.db, Spec: fx.spec, Set: fx.set, Estimator: est}
		res, err := runner.Run()
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if res.TimedOut {
			t.Errorf("%s: unexpected timeout", key)
		}
		if len(res.Confirmed)+len(res.Pruned) != fx.set.NumCandidates() {
			t.Errorf("%s: resolved %d+%d of %d candidates", key, len(res.Confirmed), len(res.Pruned), fx.set.NumCandidates())
		}
		if res.Validations <= 0 || res.Validations > fx.set.NumFilters() {
			t.Errorf("%s: validations = %d (filters = %d)", key, res.Validations, fx.set.NumFilters())
		}
		if res.Cost.RowsScanned == 0 {
			t.Errorf("%s: cost should be accounted", key)
		}
	}
}

func TestSchedulersAgreeOnConfirmedSet(t *testing.T) {
	fx := newFixture(t)
	truth := fx.truth(t)
	var reference []int
	for key, est := range estimators(fx, truth) {
		runner := &Runner{DB: fx.db, Spec: fx.spec, Set: fx.set, Estimator: est}
		res, err := runner.Run()
		if err != nil {
			t.Fatal(err)
		}
		confirmed := append([]int(nil), res.Confirmed...)
		if reference == nil {
			reference = confirmed
			continue
		}
		if len(confirmed) != len(reference) {
			t.Errorf("%s: confirmed %d candidates, reference %d", key, len(confirmed), len(reference))
			continue
		}
		for i := range confirmed {
			if confirmed[i] != reference[i] {
				t.Errorf("%s: confirmed set differs from reference", key)
				break
			}
		}
	}
}

func TestOracleBeatsOrMatchesOthers(t *testing.T) {
	fx := newFixture(t)
	truth := fx.truth(t)
	counts := make(map[string]int)
	for key, est := range estimators(fx, truth) {
		runner := &Runner{DB: fx.db, Spec: fx.spec, Set: fx.set, Estimator: est}
		res, err := runner.Run()
		if err != nil {
			t.Fatal(err)
		}
		counts[key] = res.Validations
	}
	if counts["oracle"] > counts["pathlength"] || counts["oracle"] > counts["bayes"] || counts["oracle"] > counts["random"] {
		t.Errorf("oracle should need the fewest validations: %v", counts)
	}
	if counts["bayes"] > counts["random"] {
		t.Logf("note: bayes (%d) worse than random (%d) on this tiny instance", counts["bayes"], counts["random"])
	}
	// The optimum count derived analytically must not exceed the oracle run.
	opt := experiment.OptimalValidationCount(fx.set, truth)
	if opt > counts["oracle"] {
		t.Errorf("analytic optimum %d exceeds oracle-run count %d", opt, counts["oracle"])
	}
	if opt <= 0 {
		t.Error("optimum must be positive when candidates exist")
	}
}

func TestGroundTruthConsistentWithTops(t *testing.T) {
	fx := newFixture(t)
	truth := fx.truth(t)
	// If a top filter passes, all its sub-filters must pass too (downward
	// closure of success) — a consistency check on the decomposition and
	// the validator.
	for ci := range fx.set.Candidates {
		top := fx.set.Top[ci]
		if truth[top] != filter.Passed {
			continue
		}
		for _, fi := range fx.set.CandidateFilters[ci] {
			if truth[fi] != filter.Passed {
				t.Errorf("candidate %d: top passes but sub-filter %d fails", ci, fi)
			}
		}
	}
}

func TestRunTimeLimit(t *testing.T) {
	fx := newFixture(t)
	// A nanosecond budget has expired before the loop's first stop check, on
	// any machine.
	runner := &Runner{
		DB: fx.db, Spec: fx.spec, Set: fx.set,
		Estimator: &experiment.PathLengthEstimator{},
		Options:   Options{TimeLimit: time.Nanosecond},
	}
	res, err := runner.Run()
	if err != nil {
		t.Fatalf("an exhausted budget is a clean timeout, not an error: %v", err)
	}
	if !res.TimedOut || res.Cancelled {
		t.Errorf("TimedOut=%v Cancelled=%v, want a timed-out run", res.TimedOut, res.Cancelled)
	}
	if res.Validations != 0 {
		t.Errorf("timed-out run executed %d validations", res.Validations)
	}
}

func TestValidationsNeverExceedGroundTruthCount(t *testing.T) {
	fx := newFixture(t)
	truth := fx.truth(t)
	for key, est := range estimators(fx, truth) {
		runner := &Runner{DB: fx.db, Spec: fx.spec, Set: fx.set, Estimator: est}
		res, err := runner.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Validations > fx.set.NumFilters() {
			t.Errorf("%s: executed more validations (%d) than filters exist (%d)", key, res.Validations, fx.set.NumFilters())
		}
	}
}

func BenchmarkRunPathLength(b *testing.B) {
	fx := newFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner := &Runner{DB: fx.db, Spec: fx.spec, Set: fx.set, Estimator: &experiment.PathLengthEstimator{}}
		if _, err := runner.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunBayes(b *testing.B) {
	fx := newFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner := &Runner{DB: fx.db, Spec: fx.spec, Set: fx.set, Estimator: &BayesEstimator{Model: fx.model, Spec: fx.spec}}
		if _, err := runner.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// cachedRunner builds a Runner wired to a session outcome cache, the way
// discovery sessions drive the scheduler.
func cachedRunner(fx *fixture, cache *filter.OutcomeCache) *Runner {
	return &Runner{
		DB: fx.db, Spec: fx.spec, Set: fx.set,
		Estimator: &BayesEstimator{Model: fx.model, Spec: fx.spec},
		Options: Options{
			Cache:    cache,
			CacheKey: func(i int) string { return filter.ValidationKey(fx.set.Filters[i], fx.spec, 0) },
		},
	}
}

func TestRunWithOutcomeCache(t *testing.T) {
	fx := newFixture(t)
	cache := filter.NewOutcomeCache(0)

	cold, err := cachedRunner(fx, cache).Run()
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHits != 0 {
		t.Errorf("cold run hits = %d, want 0", cold.CacheHits)
	}
	if cold.CacheStores != cold.Validations || cold.CacheMisses != cold.Validations {
		t.Errorf("cold run stores=%d misses=%d, want both = validations %d",
			cold.CacheStores, cold.CacheMisses, cold.Validations)
	}
	if cache.Len() != cold.Validations {
		t.Errorf("cache holds %d outcomes, want %d", cache.Len(), cold.Validations)
	}

	// A warm identical run resolves everything from the cache: zero
	// executed validations, identical candidate resolutions.
	warm, err := cachedRunner(fx, cache).Run()
	if err != nil {
		t.Fatal(err)
	}
	if warm.Validations != 0 {
		t.Errorf("warm run executed %d validations, want 0", warm.Validations)
	}
	if warm.CacheHits == 0 {
		t.Error("warm run should have cache hits")
	}
	if len(warm.Confirmed) != len(cold.Confirmed) || len(warm.Pruned) != len(cold.Pruned) {
		t.Errorf("warm run resolved (%d confirmed, %d pruned), cold (%d, %d)",
			len(warm.Confirmed), len(warm.Pruned), len(cold.Confirmed), len(cold.Pruned))
	}
	for i := range warm.Confirmed {
		if warm.Confirmed[i] != cold.Confirmed[i] {
			t.Fatalf("confirmed sets diverge: %v vs %v", warm.Confirmed, cold.Confirmed)
		}
	}

	// A cache-less run matches the cold resolutions too (ground truths).
	plain, err := (&Runner{DB: fx.db, Spec: fx.spec, Set: fx.set,
		Estimator: &BayesEstimator{Model: fx.model, Spec: fx.spec}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if plain.CacheHits != 0 || plain.CacheStores != 0 || plain.CacheMisses != 0 {
		t.Errorf("cache-less run reported cache counters: %+v", plain)
	}
	if len(plain.Confirmed) != len(cold.Confirmed) {
		t.Errorf("cache changes the confirmed set: %d vs %d", len(plain.Confirmed), len(cold.Confirmed))
	}
}

func TestRunCacheRequiresKeyFunc(t *testing.T) {
	fx := newFixture(t)
	runner := &Runner{
		DB: fx.db, Spec: fx.spec, Set: fx.set,
		Estimator: &experiment.PathLengthEstimator{},
		Options:   Options{Cache: filter.NewOutcomeCache(0)},
	}
	if _, err := runner.Run(); err == nil {
		t.Fatal("Cache without CacheKey should be rejected")
	}
}
