package experiment

import (
	"context"
	"testing"

	"prism/internal/constraint"
	"prism/internal/dataset"
	"prism/internal/discovery"
	"prism/internal/exec"
	"prism/internal/filter"
	"prism/internal/graphx"
	"prism/internal/schema"
	"prism/internal/workload"
)

// rangeCase is the filter set E3 would schedule for the first range case a
// fresh seed-1 generator draws over the default Mondial, and the executor
// rounds run on. Some of its filters fail.
type rangeCase struct {
	ex   exec.Executor
	spec *constraint.Spec
	set  *filter.Set
}

func newRangeCase(t testing.TB) rangeCase {
	t.Helper()
	db, err := dataset.Mondial(dataset.DefaultMondialConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := discovery.NewEngine(db)
	ex, err := eng.Executor()
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(db, seed, workload.MondialGroundTruths())
	if err != nil {
		t.Fatal(err)
	}
	tcs, err := gen.Generate(workload.LevelRange, 1, workload.Config{})
	if err != nil {
		t.Fatal(err)
	}
	set, err := scheduleSet(context.Background(), eng, tcs[0].Spec)
	if err != nil {
		t.Fatal(err)
	}
	return rangeCase{ex: ex, spec: tcs[0].Spec, set: set}
}

func TestPathLengthEstimatorMonotone(t *testing.T) {
	e := &PathLengthEstimator{}
	short := &filter.Filter{Tree: graphx.Tree{Tables: []string{"A"}}}
	long := &filter.Filter{Tree: graphx.Tree{
		Tables: []string{"A", "B", "C"},
		Edges: []schema.ForeignKey{
			{From: schema.ColumnRef{Table: "A", Column: "x"}, To: schema.ColumnRef{Table: "B", Column: "x"}},
			{From: schema.ColumnRef{Table: "B", Column: "y"}, To: schema.ColumnRef{Table: "C", Column: "y"}},
		},
	}}
	if e.FailureProbability(short) >= e.FailureProbability(long) {
		t.Error("longer join paths must have higher estimated failure probability")
	}
	steep := &PathLengthEstimator{Slope: 0.9}
	if steep.FailureProbability(long) != 1 {
		t.Error("probability should clamp at 1")
	}
}

func TestRandomEstimatorDeterministic(t *testing.T) {
	w := newRangeCase(t)
	a := &RandomEstimator{Seed: 7}
	b := &RandomEstimator{Seed: 7}
	for _, f := range w.set.Filters {
		if a.FailureProbability(f) != b.FailureProbability(f) {
			t.Fatal("same seed should give identical probabilities")
		}
	}
	// Memoised per filter key.
	f := w.set.Filters[0]
	if a.FailureProbability(f) != a.FailureProbability(f) {
		t.Error("estimator should memoise per filter")
	}
}

func TestOracleEstimator(t *testing.T) {
	w := newRangeCase(t)
	truth, err := GroundTruth(context.Background(), w.ex, w.spec, w.set)
	if err != nil {
		t.Fatal(err)
	}
	oracle := NewOracle(w.set, truth)
	failed := 0
	for i, f := range w.set.Filters {
		p := oracle.FailureProbability(f)
		if truth[i] == filter.Failed {
			failed++
			if p != 1 {
				t.Errorf("failing filter %d should have probability 1", i)
			}
		}
		if truth[i] == filter.Passed && p != 0 {
			t.Errorf("passing filter %d should have probability 0", i)
		}
	}
	if failed == 0 {
		t.Error("no filter of the case fails; the check above proves nothing")
	}
	unknown := &filter.Filter{}
	if oracle.FailureProbability(unknown) != 0 {
		t.Error("unknown filters default to 0")
	}
}

func TestGapReduction(t *testing.T) {
	if got := GapReduction(10, 7, 5); got != 0.6 {
		t.Errorf("GapReduction(10,7,5) = %v", got)
	}
	if got := GapReduction(10, 12, 5); got != -0.4 {
		t.Errorf("a policy worse than the baseline should report a negative reduction, got %v", got)
	}
	if got := GapReduction(5, 5, 5); got != 0 {
		t.Errorf("no gap means no reduction, got %v", got)
	}
	if got := GapReduction(10, 4, 5); got != 1 {
		t.Errorf("beating the optimum clamps at full reduction, got %v", got)
	}
}

func TestGapReductionNegativePolicy(t *testing.T) {
	// Baseline below optimum (can happen when the greedy optimum
	// approximation is loose): reduction must be 0, not negative/NaN.
	if got := GapReduction(3, 4, 5); got != 0 {
		t.Errorf("GapReduction(3,4,5) = %v", got)
	}
}

func BenchmarkGroundTruth(b *testing.B) {
	w := newRangeCase(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := GroundTruth(context.Background(), w.ex, w.spec, w.set); err != nil {
			b.Fatal(err)
		}
	}
}
