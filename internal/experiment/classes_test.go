package experiment

import (
	"context"
	"testing"

	"prism/internal/difftest"
	"prism/internal/filter"
	"prism/internal/graphx"
)

// TestClassMatesShareGroundTruth is the oracle of outcome classes
// (filter.Set.Classes): over the generator pools of the three bundled
// databases and the corner-case chain, every filter's ground truth on the
// reference executor equals that of every filter in its class. It also
// requires the pools to hold classes of several members with either
// outcome, so that a class key too coarse to tell their filters apart shows.
func TestClassMatesShareGroundTruth(t *testing.T) {
	dbs := difftest.Databases(t)
	quirks := difftest.Quirks(t)
	quirks.Analyze()
	dbs["quirks"] = quirks
	shared := map[bool]int{}
	for name, db := range dbs {
		g := graphx.New(db.Schema())
		for _, round := range difftest.Rounds(t, db, 2) {
			cands, err := graphx.Enumerate(g, round.Related, graphx.EnumerateOptions{MaxCandidates: 200, RequireUsefulLeaves: true})
			if err != nil {
				t.Fatal(err)
			}
			set := filter.Decompose(cands)
			class, n := set.Classes(round.Spec)
			size := make([]int, n)
			for _, c := range class {
				size[c]++
			}
			// GroundTruth's validations, of the filters that share a class.
			v := &filter.Validator{DB: db, Cells: filter.NewCells(round.Spec)}
			first := make(map[int32]int)
			var firstPassed []bool
			for i, c := range class {
				if size[c] < 2 {
					continue // alone in its class: nobody to agree with
				}
				res, err := v.ValidateContext(context.Background(), set.Filters[i])
				if err != nil {
					t.Fatal(err)
				}
				j, ok := first[c]
				if !ok {
					first[c] = len(firstPassed)
					firstPassed = append(firstPassed, res.Passed)
					continue
				}
				shared[res.Passed]++
				if res.Passed != firstPassed[j] {
					t.Errorf("%s %s: %s passes: %v, the first filter of its class: %v", name, round.Name, set.Filters[i], res.Passed, firstPassed[j])
				}
			}
		}
	}
	t.Logf("filters sharing a class-mate's outcome: %d passing, %d failing", shared[true], shared[false])
	if shared[true] == 0 || shared[false] == 0 {
		t.Errorf("the pools share %d passing and %d failing outcomes within a class, want both > 0", shared[true], shared[false])
	}
}
