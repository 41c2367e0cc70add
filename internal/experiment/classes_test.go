package experiment

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"prism/internal/difftest"
	"prism/internal/filter"
	"prism/internal/graphx"
)

// TestClassMatesShareGroundTruth is the oracle of filters as outcome classes
// (filter.DecomposeFor): over the generator pools of the three bundled
// databases and the corner-case chain, every filter of the decomposition
// with every target column constrained has, on the reference executor, the
// ground truth of its node — the filter over its tree that covers its
// constrained columns — in the decomposition under the round's
// specification; and every candidate's top node is the node of its top
// filter. A filter alone in its node is not validated. The test also
// requires the pools to hold nodes of several such filters with either
// outcome, so that a node key too coarse to tell their filters apart shows.
func TestClassMatesShareGroundTruth(t *testing.T) {
	ctx := context.Background()
	dbs := difftest.Databases(t)
	quirks := difftest.Quirks(t)
	quirks.Analyze()
	dbs["quirks"] = quirks
	shared := map[filter.Outcome]int{}
	for name, db := range dbs {
		g := graphx.New(db.Schema())
		for _, round := range difftest.Rounds(t, db, 2) {
			cands, err := graphx.Enumerate(g, round.Related, graphx.EnumerateOptions{MaxCandidates: 200, RequireUsefulLeaves: true})
			if err != nil {
				t.Fatal(err)
			}
			nodes, err := filter.DecomposeFor(ctx, round.Spec, cands)
			if err != nil {
				t.Fatal(err)
			}
			free, err := filter.DecomposeContext(ctx, cands)
			if err != nil {
				t.Fatal(err)
			}
			v := &filter.Validator{DB: db, Cells: filter.NewCells(round.Spec)}
			nodeTruth, freeTruth := truthOf(t, v, nodes), truthOf(t, v, free)
			label := name + " " + round.Name
			mask := filter.ConstrainedTargets(round.Spec)
			constrained := func(tc int) bool { return tc >= len(mask) || mask[tc] }
			node := make(map[string]int, nodes.NumFilters())
			for i, f := range nodes.Filters {
				node[nodeKey(f, func(int) bool { return true })] = i
			}
			nodeOf := make([]int, free.NumFilters())
			members := make([]int, nodes.NumFilters())
			for i, f := range free.Filters {
				n, ok := node[nodeKey(f, constrained)]
				if !ok {
					t.Fatalf("%s: %s has no node", label, f)
				}
				nodeOf[i] = n
				members[n]++
			}
			for i, n := range nodeOf {
				if members[n] < 2 {
					continue
				}
				if got, want := freeTruth(i), nodeTruth(n); got != want {
					t.Errorf("%s: %s %s, its node %s %s", label, free.Filters[i], got, nodes.Filters[n], want)
				}
				shared[nodeTruth(n)]++
			}
			for ci := range cands {
				if got, want := nodes.Top[ci], nodeOf[free.Top[ci]]; got != want {
					t.Errorf("%s: candidate %d's top is %s, the node of its top filter %s", label, ci, nodes.Filters[got], nodes.Filters[want])
				}
			}
		}
	}
	t.Logf("filters sharing a node with another: %d passing, %d failing", shared[filter.Passed], shared[filter.Failed])
	if shared[filter.Passed] == 0 || shared[filter.Failed] == 0 {
		t.Errorf("the pools share %d passing and %d failing outcomes within a node, want both > 0", shared[filter.Passed], shared[filter.Failed])
	}
}

// nodeKey renders the tree of f and the sources it covers on the target
// columns keep says to.
func nodeKey(f *filter.Filter, keep func(tc int) bool) string {
	var b strings.Builder
	b.WriteString(f.Tree.Canonical())
	for k, tc := range f.TargetCols {
		if keep(tc) {
			fmt.Fprintf(&b, "|%d=%s", tc, strings.ToLower(f.Sources[k].String()))
		}
	}
	return b.String()
}

// truthOf returns the ground truth of the filters of set as v validates
// them, each validated on its first request.
func truthOf(t *testing.T, v *filter.Validator, set *filter.Set) func(i int) filter.Outcome {
	truth := make([]filter.Outcome, set.NumFilters())
	return func(i int) filter.Outcome {
		if truth[i] == filter.Unknown {
			res, err := v.Validate(set.Filters[i])
			if err != nil {
				t.Fatal(err)
			}
			truth[i] = filter.Failed
			if res.Passed {
				truth[i] = filter.Passed
			}
		}
		return truth[i]
	}
}
