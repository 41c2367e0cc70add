// Package experiment holds the paper's evaluation (§2.4) and its Table 1
// walkthrough as tests over the seed-1 default synthetic Mondial: the
// resolution sweep (discovery effort and result-set size as constraints
// become looser, E1 and E2) and the filter-scheduling comparison between
// the path-length baseline, Prism's Bayesian scheduling, a random order and
// the optimum (E3).
//
// This file is what E3 compares the Bayes scheduler against: the baseline
// estimators, the ground truth of a filter set and the optimum computed
// from it. Every round of the product schedules with the Bayes estimator,
// so none of it is product code; the tests of sched, discovery and the root
// package read it too. It implements sched.Estimator without importing
// sched, so that those tests can import it.
//
// The evaluation runs once per test binary (T1, then one sweep that both E1
// and E2 read, then E3's cases from the same generator); each test pins its
// part. Every count is a function of (spec, data, options), so the tests
// pin them as literals, and TestRunAll checks that a second run reproduces
// them. A deliberate schedule change edits them. Run with -v to see the
// tables:
//
//	go test -v ./internal/experiment
package experiment

import (
	"context"
	"math/rand"

	"prism/internal/constraint"
	"prism/internal/exec"
	"prism/internal/filter"
	"prism/internal/rowset"
)

// PathLengthEstimator is the Filter baseline (Shen et al., SIGMOD'14):
// failure probability grows linearly with the number of join edges.
type PathLengthEstimator struct {
	// Slope controls how quickly the probability grows per edge; the
	// scheduler only uses relative order, so the default of 0.2 is fine.
	Slope float64
}

// FailureProbability implements sched.Estimator.
func (e *PathLengthEstimator) FailureProbability(f *filter.Filter) float64 {
	slope := e.Slope
	if slope <= 0 {
		slope = 0.2
	}
	return min(slope*float64(f.JoinPathLength()+1), 1)
}

// OracleEstimator knows the true outcome of every filter; scheduling with it
// is the oracle run E3's optimum is checked against. NewOracle is the only
// way to build one.
type OracleEstimator struct {
	truth []filter.Outcome       // per filter index
	index map[*filter.Filter]int // filter identity -> index
}

// NewOracle builds an oracle estimator from ground-truth outcomes aligned
// with the filter set.
func NewOracle(set *filter.Set, truth []filter.Outcome) *OracleEstimator {
	idx := make(map[*filter.Filter]int, len(set.Filters))
	for i, f := range set.Filters {
		idx[f] = i
	}
	return &OracleEstimator{truth: truth, index: idx}
}

// FailureProbability implements sched.Estimator: 1 for a filter that fails,
// 0 for one that passes or that the set does not hold.
func (e *OracleEstimator) FailureProbability(f *filter.Filter) float64 {
	i, ok := e.index[f]
	if ok && i < len(e.truth) && e.truth[i] == filter.Failed {
		return 1
	}
	return 0
}

// RandomEstimator assigns each filter a deterministic pseudo-random failure
// probability; it is the sanity-check lower bound for scheduling quality.
type RandomEstimator struct {
	Seed int64
	rng  *rand.Rand
	memo map[string]float64
}

// FailureProbability implements sched.Estimator.
func (e *RandomEstimator) FailureProbability(f *filter.Filter) float64 {
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(e.Seed))
		e.memo = make(map[string]float64)
	}
	if p, ok := e.memo[f.Key()]; ok {
		return p
	}
	p := e.rng.Float64()
	e.memo[f.Key()] = p
	return p
}

// GroundTruth validates every filter of the set and returns the true
// outcomes, by filter index. Cancelling ctx aborts the sweep.
func GroundTruth(ctx context.Context, db exec.Executor, spec *constraint.Spec, set *filter.Set) ([]filter.Outcome, error) {
	v := &filter.Validator{DB: db, Cells: filter.NewCells(spec)}
	out := make([]filter.Outcome, set.NumFilters())
	for i, f := range set.Filters {
		res, err := v.ValidateContext(ctx, f)
		if err != nil {
			return nil, err
		}
		if res.Passed {
			out[i] = filter.Passed
		} else {
			out[i] = filter.Failed
		}
	}
	return out, nil
}

// OptimalValidationCount is E3's "optimum": the size of one plan that
// resolves every candidate given the ground-truth outcomes of a set built by
// filter.DecomposeFor, whose filters are outcome classes:
//
//   - the distinct top filters of the passing candidates, each of which must
//     be validated;
//   - plus a greedy set cover of the failing candidates by failing filters,
//     a filter covering its candidates.
//
// The cover is greedy, so the count is neither the minimum number of
// validations nor a lower bound on it (ROADMAP item 21).
func OptimalValidationCount(set *filter.Set, truth []filter.Outcome) int {
	// Distinct passing tops, and the failing candidates still to cover —
	// both dense index sets, kept as bitsets.
	neededTops := rowset.New(set.NumFilters())
	failing := rowset.New(set.NumCandidates())
	remaining := 0
	for ci := range set.Candidates {
		top := set.Top[ci]
		if truth[top] == filter.Passed {
			neededTops.Add(int32(top))
		} else {
			failing.Add(int32(ci))
			remaining++
		}
	}
	count := neededTops.Popcount()

	// Greedy set cover of failing candidates by failing filters; ties go to
	// the lowest index.
	coverOf := func(fi int) int {
		n := 0
		for _, ci := range set.CandidatesOf(fi) {
			if failing.Contains(int32(ci)) {
				n++
			}
		}
		return n
	}
	for remaining > 0 {
		best, bestCover := -1, 0
		for fi, o := range truth {
			if o != filter.Failed {
				continue
			}
			if cover := coverOf(fi); cover > bestCover {
				best, bestCover = fi, cover
			}
		}
		if best < 0 {
			// Shouldn't happen: a failing candidate always has at least its
			// failing top filter. Count one validation per remaining
			// candidate to stay safe.
			count += remaining
			break
		}
		count++
		for _, ci := range set.CandidatesOf(best) {
			if failing.Contains(int32(ci)) {
				failing.Remove(int32(ci))
				remaining--
			}
		}
	}
	return count
}

// GapReduction quantifies how much closer a policy gets to the optimum than
// the baseline, the paper's headline metric:
//
//	gap(policy)   = validations(policy) − optimum
//	reduction     = (gap(baseline) − gap(policy)) / gap(baseline)
//
// It returns 0 when the baseline already matches the optimum, 1 when the
// policy matches (or beats) the optimum, and a negative value when the
// policy is worse than the baseline.
func GapReduction(baselineValidations, policyValidations, optimum int) float64 {
	baseGap := baselineValidations - optimum
	if baseGap <= 0 {
		return 0
	}
	polGap := max(policyValidations-optimum, 0)
	return float64(baseGap-polGap) / float64(baseGap)
}
