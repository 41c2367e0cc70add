package sched

import (
	"context"
	"math"
	"slices"
	"testing"

	"prism/internal/bayes"
	"prism/internal/constraint"
	"prism/internal/dataset"
	"prism/internal/difftest"
	"prism/internal/filter"
	"prism/internal/graphx"
	"prism/internal/mem"
	"prism/internal/workload"
)

// unmemoisedBayes is BayesEstimator as it was before it kept a memo: every
// estimate goes through the Model's own methods, which share nothing between
// calls (and which internal/bayes pins == to the map-based oracle). It is
// the reference the memoised estimator must agree with exactly.
type unmemoisedBayes struct {
	Model *bayes.Model
	Spec  *constraint.Spec
}

func (e *unmemoisedBayes) Name() string { return "prism-bayes" }

func (e *unmemoisedBayes) FailureProbability(f *filter.Filter) float64 {
	if len(e.Spec.Samples) == 0 {
		return 0
	}
	allMatch := 1.0
	for _, sample := range e.Spec.Samples {
		var cons []bayes.ColumnConstraint
		for i, tc := range f.TargetCols {
			if tc >= len(sample.Cells) || sample.Cells[tc] == nil {
				continue
			}
			cons = append(cons, bayes.ColumnConstraint{Ref: f.Sources[i], Expr: sample.Cells[tc]})
		}
		allMatch *= 1 - e.sampleFailure(f, cons)
	}
	p := 1 - allMatch
	if edges := len(f.Tree.Edges); edges > 1 {
		p *= math.Pow(0.6, float64(edges-1))
	}
	return p
}

func (e *unmemoisedBayes) sampleFailure(f *filter.Filter, cons []bayes.ColumnConstraint) float64 {
	if len(f.Tree.Edges) == 0 {
		if count, ok := e.Model.ExactMatchingRows(f.Tree.Tables[0], cons); ok {
			if count > 0 {
				return 0
			}
			return 1
		}
	}
	return e.Model.FailureProbability(f.Tree.Tables, f.Tree.Edges, cons)
}

// generatedRound is one workload-generator specification decomposed the way
// a discovery round decomposes it.
type generatedRound struct {
	name string
	spec *constraint.Spec
	set  *filter.Set
}

// decompose enumerates and decomposes the candidates of a specification the
// way a discovery round does.
func decompose(t testing.TB, db *mem.Database, name string, spec *constraint.Spec) generatedRound {
	t.Helper()
	related, _ := difftest.Related(db, spec)
	cands, err := graphx.Enumerate(graphx.New(db.Schema()), related, graphx.EnumerateOptions{RequireUsefulLeaves: true})
	if err != nil {
		t.Fatal(err)
	}
	return generatedRound{name: name, spec: spec, set: decomposeFor(t, spec, cands)}
}

// decomposeFor is filter.DecomposeFor under a live context.
func decomposeFor(t testing.TB, spec *constraint.Spec, candidates []graphx.Candidate) *filter.Set {
	t.Helper()
	set, err := filter.DecomposeFor(context.Background(), spec, candidates)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// generatedRounds builds rounds at every resolution level over db, two
// sample rows each.
func generatedRounds(t testing.TB, db *mem.Database, perLevel int) []generatedRound {
	t.Helper()
	gen, err := workload.NewGenerator(db, 1, workload.MondialGroundTruths())
	if err != nil {
		t.Fatal(err)
	}
	var out []generatedRound
	for _, level := range append(workload.Levels(), workload.LevelPaper) {
		cases, err := gen.Generate(level, perLevel, workload.Config{SamplesPerCase: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			out = append(out, decompose(t, db, tc.Name, tc.Spec))
		}
	}
	return out
}

func smallMondial(t testing.TB) *mem.Database {
	t.Helper()
	db, err := dataset.Mondial(dataset.DefaultMondialConfig())
	if err != nil {
		t.Fatal(err)
	}
	db.Analyze()
	return db
}

// TestBayesEstimatorMatchesUnmemoised requires the memoised estimator to
// return, for every filter of every generated round, exactly the probability
// the unmemoised reference returns — whatever order the filters are asked in
// — and the schedules built on the two to be the same schedule.
func TestBayesEstimatorMatchesUnmemoised(t *testing.T) {
	db := smallMondial(t)
	model := bayes.Train(db)
	rounds := generatedRounds(t, db, 5)
	// Two target columns that can both map to any province column, with
	// different cells: a memo that forgot the target column would hand one
	// column's rows to the other.
	twin, err := constraint.ParseGrid(2, [][]string{{"California", "Nevada || Oregon"}, {"Nevada", "California"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rounds = append(rounds, decompose(t, db, "twin-columns", twin))
	filters := 0
	for _, round := range rounds {
		ref := &unmemoisedBayes{Model: model, Spec: round.spec}
		forward := &BayesEstimator{Model: model, Spec: round.spec}
		backward := &BayesEstimator{Model: model, Spec: round.spec}
		n := round.set.NumFilters()
		filters += n
		for i, f := range round.set.Filters {
			want := ref.FailureProbability(f)
			if got := forward.FailureProbability(f); got != want {
				t.Errorf("%s filter %d (%s): memoised %v, reference %v", round.name, i, f.Key(), got, want)
			}
			if got := forward.FailureProbability(f); got != want {
				t.Errorf("%s filter %d (%s): memoised again %v, reference %v", round.name, i, f.Key(), got, want)
			}
			b := round.set.Filters[n-1-i]
			if got, want := backward.FailureProbability(b), ref.FailureProbability(b); got != want {
				t.Errorf("%s filter %d (%s) in reverse order: memoised %v, reference %v", round.name, n-1-i, b.Key(), got, want)
			}
		}
		run := func(est Estimator) Result {
			res, err := (&Runner{DB: db, Spec: round.spec, Set: round.set, Estimator: est}).Run()
			if err != nil {
				t.Fatalf("%s: %v", round.name, err)
			}
			return res
		}
		want, got := run(ref), run(&BayesEstimator{Model: model, Spec: round.spec})
		if got.Validations != want.Validations || got.Implied != want.Implied ||
			!slices.Equal(got.Confirmed, want.Confirmed) || !slices.Equal(got.Pruned, want.Pruned) {
			t.Errorf("%s: schedule diverges: memoised %d validations, %d implied, confirmed %v, pruned %v; reference %d, %d, %v, %v",
				round.name, got.Validations, got.Implied, got.Confirmed, got.Pruned,
				want.Validations, want.Implied, want.Confirmed, want.Pruned)
		}
	}
	if filters == 0 {
		t.Fatal("no filters generated")
	}
}

// countingEstimator counts the estimates a run asks for.
type countingEstimator struct {
	Estimator
	calls int
}

func (c *countingEstimator) FailureProbability(f *filter.Filter) float64 {
	c.calls++
	return c.Estimator.FailureProbability(f)
}

// TestWarmCacheRunEstimatesNothing pins lazy estimation: a cold run estimates
// every filter once, a run the outcome cache resolves estimates none.
func TestWarmCacheRunEstimatesNothing(t *testing.T) {
	fx := newFixture(t)
	cache := filter.NewOutcomeCache(0)
	run := func() (Result, int) {
		r := cachedRunner(fx, cache)
		est := &countingEstimator{Estimator: r.Estimator}
		r.Estimator = est
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, est.calls
	}
	if _, calls := run(); calls != fx.set.NumFilters() {
		t.Errorf("cold run made %d estimates, want one per filter (%d)", calls, fx.set.NumFilters())
	}
	warm, calls := run()
	if warm.Validations != 0 {
		t.Fatalf("warm run executed %d validations", warm.Validations)
	}
	if calls != 0 {
		t.Errorf("warm run made %d estimates, want 0", calls)
	}
}

// TestMemoHitEstimateDoesNotAllocate bounds the cost of an estimate whose
// cells and edges the memo already holds.
func TestMemoHitEstimateDoesNotAllocate(t *testing.T) {
	fx := newFixture(t)
	est := &BayesEstimator{Model: fx.model, Spec: fx.spec}
	for _, f := range fx.set.Filters {
		est.FailureProbability(f)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, f := range fx.set.Filters {
			est.FailureProbability(f)
		}
	})
	if allocs != 0 {
		t.Errorf("a pass of memo-hit estimates allocated %v times, want 0", allocs)
	}
}

var sinkProbability float64

// BenchmarkBayesEstimate measures one failure-probability estimate at the
// benchmark's oneshot_scale size (Mondial at 230k rows): per op, one filter
// of a generated round, with a fresh estimator — an empty memo — at the start
// of every round, as discovery builds them.
func BenchmarkBayesEstimate(b *testing.B) {
	if testing.Short() {
		b.Skip("trains a 230k-row model")
	}
	db, err := dataset.Mondial(dataset.MondialConfig{
		Countries: 60, ProvincesPerCountry: 20, CitiesPerProvince: 40,
		Lakes: 30000, Rivers: 20000, Mountains: 15000,
	})
	if err != nil {
		b.Fatal(err)
	}
	db.Analyze()
	model := bayes.Train(db)
	rounds := generatedRounds(b, db, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for ops := 0; ; {
		for _, round := range rounds {
			est := &BayesEstimator{Model: model, Spec: round.spec}
			for _, f := range round.set.Filters {
				if ops == b.N {
					return
				}
				sinkProbability = est.FailureProbability(f)
				ops++
			}
		}
	}
}
