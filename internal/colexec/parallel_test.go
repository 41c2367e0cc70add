package colexec

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"prism/internal/dataset"
	"prism/internal/difftest"
)

// TestBuildIndependentOfCoreCount: the column stores are a function of the
// data alone. The 10.7k-row Mondial of the benchmark's oneshot_lowres
// workload is built at GOMAXPROCS 1 (the direct loop), 2 and 8; every build
// must hold the columns of the one-core build, in schema order, and answer
// the difftest plan pool under random predicate sets with the same rows in
// the same order and the same stats — the rows also being the reference
// engine's.
func TestBuildIndependentOfCoreCount(t *testing.T) {
	db, err := dataset.Mondial(difftest.LowresMondialConfig())
	if err != nil {
		t.Fatal(err)
	}
	db.Analyze()
	buildAt := func(procs int) *Executor {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return buildColumnar(t, db)
	}
	want := buildAt(1)
	plans := difftest.Plans(db.Schema())
	for _, procs := range []int{2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			got := buildAt(procs)
			if len(got.tables) != len(want.tables) || len(got.identity) != len(want.identity) {
				t.Fatalf("%d tables and %d identity rows, want %d and %d", len(got.tables), len(got.identity), len(want.tables), len(want.identity))
			}
			for ti, wt := range want.tables {
				gt := got.tables[ti]
				if gt.name != wt.name || gt.numRows != wt.numRows || len(gt.cols) != len(wt.cols) {
					t.Fatalf("table %d is %s with %d rows and %d columns, want %s with %d and %d",
						ti, gt.name, gt.numRows, len(gt.cols), wt.name, wt.numRows, len(wt.cols))
				}
				for ci := range wt.cols {
					if !reflect.DeepEqual(gt.cols[ci], wt.cols[ci]) {
						t.Errorf("%s.%s differs from the one-core build", wt.name, wt.sch.Columns[ci].Name)
					}
				}
			}
			rng := rand.New(rand.NewSource(29))
			for pi, plan := range plans {
				for round := 0; round < 2; round++ {
					opts := difftest.RandomPredicates(rng, db, plan)
					label := fmt.Sprintf("plan %d %v round %d", pi, plan.Tables, round)
					ref, err := db.ExecuteWith(plan, opts)
					if err != nil {
						t.Fatalf("%s: mem: %v", label, err)
					}
					one, err := want.ExecuteWith(plan, opts)
					if err != nil {
						t.Fatalf("%s: one-core build: %v", label, err)
					}
					many, err := got.ExecuteWith(plan, opts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameRows(t, label+" vs mem", many.Rows, ref.Rows)
					sameRows(t, label+" vs the one-core build", many.Rows, one.Rows)
					if many.Stats != one.Stats {
						t.Errorf("%s: stats %+v, one-core build %+v", label, many.Stats, one.Stats)
					}
				}
			}
		})
	}
}
