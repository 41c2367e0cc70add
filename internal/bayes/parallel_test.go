package bayes

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"prism/internal/dataset"
	"prism/internal/difftest"
	"prism/internal/mem"
	"prism/internal/workload"
)

// TestTrainIndependentOfCoreCount: the trained model is a function of the
// data alone. The 10.7k-row Mondial of the benchmark's oneshot_lowres
// workload and the database whose one join is above the sampling budget (so
// the order pairs are enumerated in decides the sample) are trained at
// GOMAXPROCS 1 (the direct loop), 2 and 8; every model must hold the same
// column models and join statistics as the one-core model, and every
// probability must be == the reference oracle's.
func TestTrainIndependentOfCoreCount(t *testing.T) {
	mondial, err := dataset.Mondial(difftest.LowresMondialConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range []*mem.Database{mondial, difftest.BigJoin(t)} {
		db.Analyze()
		train := func(procs int) *Model {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			return Train(db)
		}
		want := train(1)
		ref := trainReference(db)
		for _, procs := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/procs=%d", db.Name, procs), func(t *testing.T) {
				live := train(procs)
				if !reflect.DeepEqual(live.columns, want.columns) {
					t.Error("column models differ from the one-core build")
				}
				if !reflect.DeepEqual(live.joins, want.joins) {
					t.Error("join statistics differ from the one-core build")
				}
				fx := &diffFixture{t: t, db: db, live: live, ref: ref}
				if db == mondial {
					fx.checkGenerated(workload.MondialGroundTruths())
				} else {
					fx.checkBattery()
				}
				if fx.n == 0 {
					t.Fatal("no estimate compared")
				}
			})
		}
	}
}
