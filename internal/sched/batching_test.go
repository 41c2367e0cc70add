package sched

import (
	"context"
	"reflect"
	"testing"

	"prism/internal/bayes"
	"prism/internal/colexec"
	"prism/internal/difftest"
	"prism/internal/filter"
)

// TestBatchingOptionChangesNothing pins the deprecated Options.Batching as
// inert until it is deleted: over the generator pools of the three bundled
// databases, with a fresh outcome cache, a run with the
// field set ends with the Result of a run without it — counters, cost and
// candidate sets. The benchmark's traced run still divides the time of one
// by the time of the other.
func TestBatchingOptionChangesNothing(t *testing.T) {
	validations := 0
	for name, mdb := range difftest.Databases(t) {
		model := bayes.Train(mdb)
		db, err := colexec.New(mdb)
		if err != nil {
			t.Fatal(err)
		}
		for _, round := range referenceRounds(t, mdb) {
			run := func(batching bool) Result {
				res, err := (&Runner{
					DB: db, Spec: round.spec, Set: round.set,
					Estimator: &BayesEstimator{Model: model, Spec: round.spec},
					Options: Options{
						Batching: batching,
						Cache:    filter.NewOutcomeCache(0),
						CacheKey: func(i int) string {
							return filter.ValidationKey(round.set.Filters[i], round.spec, mdb.Version())
						},
					},
				}).RunContext(context.Background())
				if err != nil {
					t.Fatalf("%s %s batching=%v: %v", name, round.name, batching, err)
				}
				return res
			}
			off, on := run(false), run(true)
			if !reflect.DeepEqual(on, off) {
				t.Errorf("%s %s: Batching changed the result:\n on: %+v\noff: %+v", name, round.name, on, off)
			}
			validations += off.Validations
		}
	}
	if validations == 0 {
		t.Fatal("no validation ran")
	}
}
