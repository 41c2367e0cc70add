package sched

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"prism/internal/bayes"
	"prism/internal/colexec"
	"prism/internal/constraint"
	"prism/internal/difftest"
	"prism/internal/exec"
	"prism/internal/experiment"
	"prism/internal/filter"
	"prism/internal/graphx"
	"prism/internal/mem"
)

// This file keeps filter selection as it was before the scheduler kept
// counters: every pick rescanning the candidates of every filter for its
// reach and its top-of-an-unresolved-candidate flag, and calling the cost
// model (a row count per table per call) whenever a tie got that far. It is
// the oracle the array-backed pick must agree with, pick for pick. The
// filters a round schedules are outcome classes (filter.DecomposeFor);
// referenceClasses derives the classes from text instead — the tree's
// canonical form and the constrained columns' lower-cased sources — over the
// decomposition with every target constrained, and the filters must be
// exactly those.

// referenceEntry is the priority of one filter at selection time.
type referenceEntry struct {
	idx   int
	score float64
	isTop bool
	reach int
	cost  float64
}

func pruningReach(sess *filter.Session, i int) int {
	n := 0
	for _, ci := range sess.Set.CandidatesOf(i) {
		if sess.Status[ci] == filter.CandidateUnresolved {
			n++
		}
	}
	return n
}

func referencePick(set *filter.Set, sess *filter.Session, failProb []float64, isTop []bool, costModel func(*filter.Filter) float64) (int, bool) {
	best := referenceEntry{idx: -1}
	for i := range set.Filters {
		if sess.Determined(i) {
			continue
		}
		reach := pruningReach(sess, i)
		if reach == 0 {
			continue
		}
		topOfUnresolved := false
		if isTop[i] {
			for _, ci := range set.CandidatesOf(i) {
				if set.Top[ci] == i && sess.Status[ci] == filter.CandidateUnresolved {
					topOfUnresolved = true
					break
				}
			}
		}
		topResolve := 0.0
		if topOfUnresolved {
			topResolve = 1
		}
		e := referenceEntry{
			idx:   i,
			score: failProb[i]*float64(reach) + (1-failProb[i])*topResolve,
			isTop: topOfUnresolved,
			reach: reach,
		}
		if best.idx < 0 || e.better(&best, set, costModel) {
			best = e
		}
	}
	if best.idx < 0 {
		return 0, false
	}
	return best.idx, true
}

func (e *referenceEntry) better(best *referenceEntry, set *filter.Set, costModel func(*filter.Filter) float64) bool {
	if e.score != best.score {
		return e.score > best.score
	}
	if e.isTop != best.isTop {
		return e.isTop
	}
	if e.reach != best.reach {
		return e.reach > best.reach
	}
	if e.cost == 0 {
		e.cost = referenceCost(costModel(set.Filters[e.idx]))
	}
	if best.cost == 0 {
		best.cost = referenceCost(costModel(set.Filters[best.idx]))
	}
	if e.cost != best.cost {
		return e.cost < best.cost
	}
	return e.idx < best.idx
}

// referenceProbability and referenceCost are the ranking's clamps: an
// estimate outside [0, 1] counts as the nearer bound and a NaN one as 0.5,
// a non-positive or NaN cost as 1.
func referenceProbability(p float64) float64 {
	if math.IsNaN(p) {
		return 0.5
	}
	return min(max(p, 0), 1)
}

func referenceCost(c float64) float64 {
	if c > 0 {
		return c
	}
	return 1
}

// referenceClasses returns, per filter of free (a decomposition with every
// target column constrained), the key of its outcome class under spec: its
// tree with the sources it covers on the target columns some sample
// constrains, or that lie beyond a sample's cells (with no samples, beyond
// NumColumns).
func referenceClasses(spec *constraint.Spec, free *filter.Set) []string {
	constrained := func(tc int) bool {
		if len(spec.Samples) == 0 {
			return tc >= spec.NumColumns
		}
		for _, sample := range spec.Samples {
			if tc >= len(sample.Cells) || sample.Cells[tc] != nil {
				return true
			}
		}
		return false
	}
	keys := make([]string, free.NumFilters())
	for i, f := range free.Filters {
		keys[i] = classKey(f, constrained)
	}
	return keys
}

// classKey renders the tree of f and the columns it covers that keep says to.
func classKey(f *filter.Filter, keep func(tc int) bool) string {
	key := f.Tree.Canonical()
	for k, tc := range f.TargetCols {
		if keep(tc) {
			key += fmt.Sprintf("|%d=%s", tc, strings.ToLower(f.Sources[k].String()))
		}
	}
	return key
}

// sameClasses requires the filters of set, decomposed under spec, to be the
// outcome classes referenceClasses finds: one filter per class, a filter's
// candidates the union of its class's, and each candidate's top filter the
// class of its top filter with every target constrained.
func sameClasses(t *testing.T, label string, spec *constraint.Spec, set *filter.Set) {
	t.Helper()
	free, err := filter.DecomposeContext(context.Background(), set.Candidates)
	if err != nil {
		t.Fatal(err)
	}
	keys := referenceClasses(spec, free)
	union := make(map[string][]int)
	for i, key := range keys {
		union[key] = append(union[key], free.CandidatesOf(i)...)
	}
	if len(union) != set.NumFilters() {
		t.Fatalf("%s: %d filters, %d outcome classes", label, set.NumFilters(), len(union))
	}
	all := func(int) bool { return true }
	for i, f := range set.Filters {
		want, ok := union[classKey(f, all)]
		if !ok {
			t.Fatalf("%s: filter %s is no outcome class", label, f)
		}
		slices.Sort(want)
		if got := set.CandidatesOf(i); !slices.Equal(got, slices.Compact(want)) {
			t.Fatalf("%s: filter %s has the candidates %v, its class %v", label, f, got, want)
		}
	}
	for ci := range set.Candidates {
		if got, want := classKey(set.Filters[set.Top[ci]], all), keys[free.Top[ci]]; got != want {
			t.Fatalf("%s: candidate %d has the top filter %s, the class of its top %s", label, ci, got, want)
		}
	}
}

// referenceRun is the sequential greedy loop over referencePick.
type referenceRun struct {
	picks       []int
	validations int
	implied     int
	confirmed   []int
	pruned      []int
}

// runReference runs the loop with the table-size cost model, or with the
// given one when it is not nil.
func runReference(t *testing.T, db exec.Executor, spec *constraint.Spec, set *filter.Set, est Estimator, costModel func(*filter.Filter) float64) referenceRun {
	t.Helper()
	sess := filter.NewSession(set)
	validator := &filter.Validator{DB: db, Cells: filter.NewCells(spec)}
	isTop := make([]bool, set.NumFilters())
	for _, ti := range set.Top {
		isTop[ti] = true
	}
	failProb := make([]float64, set.NumFilters())
	for i, f := range set.Filters {
		failProb[i] = referenceProbability(est.FailureProbability(f))
	}
	if costModel == nil {
		costModel = func(f *filter.Filter) float64 {
			cost := 0.0
			for _, t := range f.Tree.Tables {
				cost += float64(db.NumRows(t))
			}
			return cost
		}
	}
	var run referenceRun
	for sess.UnresolvedCandidates() > 0 {
		next, ok := referencePick(set, sess, failProb, isTop, costModel)
		if !ok {
			break
		}
		vr, err := validator.Validate(set.Filters[next])
		if err != nil {
			t.Fatal(err)
		}
		sess.RecordExecution(next, vr)
		run.picks = append(run.picks, next)
	}
	run.validations, run.implied = sess.Executed, sess.Implied
	run.confirmed, run.pruned = sess.Confirmed(), sess.Pruned()
	return run
}

// probeLog is an executor that notes the plan of every probe, so two runs
// can be compared by the sequence of validations they issued.
type probeLog struct {
	exec.Executor
	plans []string
}

func (p *probeLog) Exists(plan exec.Plan, opts exec.ExecOptions) (bool, exec.ExecStats, error) {
	sig := plan.String()
	for _, cp := range opts.ColumnPredicates {
		sig += "|" + cp.Ref.String()
	}
	p.plans = append(p.plans, sig)
	return p.Executor.Exists(plan, opts)
}

// referenceRounds decomposes the generator pool of a database. Rounds are
// capped at 500 candidates: the reference pick is quadratic in them.
func referenceRounds(t *testing.T, db *mem.Database) []generatedRound {
	t.Helper()
	g := graphx.New(db.Schema())
	var out []generatedRound
	for _, round := range difftest.Rounds(t, db, 2) {
		cands, err := graphx.Enumerate(g, round.Related, graphx.EnumerateOptions{MaxCandidates: 500, RequireUsefulLeaves: true})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, generatedRound{name: round.Name, spec: round.Spec, set: decomposeFor(t, round.Spec, cands)})
	}
	return out
}

// policy is an estimator and, when cost is not nil, a cost model in place
// of the table-size default.
type policy struct {
	estimator func() Estimator
	cost      func(db exec.Executor) func(*filter.Filter) float64
}

func policies(model *bayes.Model, spec *constraint.Spec) map[string]policy {
	return map[string]policy{
		"bayes":      {estimator: func() Estimator { return &BayesEstimator{Model: model, Spec: spec} }},
		"pathlength": {estimator: func() Estimator { return &experiment.PathLengthEstimator{} }},
		"random":     {estimator: func() Estimator { return &experiment.RandomEstimator{Seed: 7} }},
		"nan":        {estimator: func() Estimator { return &nanEstimator{} }, cost: nanCost},
	}
}

// nanEstimator answers NaN for a third of the filters and the path-length
// estimate for the rest.
type nanEstimator struct{ experiment.PathLengthEstimator }

func (e *nanEstimator) FailureProbability(f *filter.Filter) float64 {
	if len(f.Key())%3 == 0 {
		return math.NaN()
	}
	return e.PathLengthEstimator.FailureProbability(f)
}

// nanCost is the table-size cost model answering NaN for a quarter of the
// filters.
func nanCost(db exec.Executor) func(*filter.Filter) float64 {
	sizes := tableSizeCost(db)
	return func(f *filter.Filter) float64 {
		if len(f.Key())%4 == 1 {
			return math.NaN()
		}
		return sizes(f)
	}
}

// TestPickMatchesReference drives the ranking and the reference pick in
// lock-step over the generator pools of the three bundled databases, under
// each policy: the same filter at every step, and counters that equal a
// fresh scan. It then requires a whole RunContext to issue the reference's
// probes in the reference's order and to end with its counters and candidate
// sets. Every round's filters must be its outcome classes.
func TestPickMatchesReference(t *testing.T) {
	picks := 0
	for name, mdb := range difftest.Databases(t) {
		model := bayes.Train(mdb)
		// The columnar backend answers the same probes several times faster
		// than the row store; every run below validates the whole round.
		db, err := colexec.New(mdb)
		if err != nil {
			t.Fatal(err)
		}
		for _, round := range referenceRounds(t, mdb) {
			sameClasses(t, name+" "+round.name, round.spec, round.set)
			for pname, policy := range policies(model, round.spec) {
				label := fmt.Sprintf("%s %s %s", name, round.name, pname)
				newEstimator, costModel := policy.estimator, tableSizeCost(db)
				var refCost func(*filter.Filter) float64
				if policy.cost != nil {
					costModel, refCost = policy.cost(db), policy.cost(db)
				}
				refLog := &probeLog{Executor: db}
				want := runReference(t, refLog, round.spec, round.set, newEstimator(), refCost)
				picks += len(want.picks)

				// Lock-step: the ranking against the reference's pick sequence.
				sess := filter.NewSession(round.set)
				rank := newRanking(round.set, sess)
				rank.estimate(context.Background(), newEstimator(), costModel)
				validator := &filter.Validator{DB: db, Cells: filter.NewCells(round.spec)}
				for step, wantIdx := range want.picks {
					got, ok := rank.pick()
					if !ok || got != wantIdx {
						t.Fatalf("%s step %d: picked %d (ok=%v), reference %d", label, step, got, ok, wantIdx)
					}
					vr, err := validator.Validate(round.set.Filters[got])
					if err != nil {
						t.Fatal(err)
					}
					sess.RecordExecution(got, vr)
					rank.sync()
					if step%8 != 0 && step != len(want.picks)-1 {
						continue // the scan is the expensive part
					}
					for i := range round.set.Filters {
						if int(rank.reach[i]) != pruningReach(sess, i) {
							t.Fatalf("%s step %d: reach[%d] = %d, scan says %d", label, step, i, rank.reach[i], pruningReach(sess, i))
						}
					}
				}
				if sess.UnresolvedCandidates() > 0 {
					if got, ok := rank.pick(); ok {
						t.Errorf("%s: picked %d after the reference stopped", label, got)
					}
				}

				// The whole run.
				runLog := &probeLog{Executor: db}
				runner := &Runner{DB: runLog, Spec: round.spec, Set: round.set, Estimator: newEstimator()}
				if policy.cost != nil {
					runner.costModel = policy.cost(runLog)
				}
				res, err := runner.Run()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !slices.Equal(runLog.plans, refLog.plans) {
					t.Errorf("%s: run probed %d plans in another order than the reference's %d", label, len(runLog.plans), len(refLog.plans))
				}
				if res.Validations != want.validations || res.Implied != want.implied ||
					!slices.Equal(res.Confirmed, want.confirmed) || !slices.Equal(res.Pruned, want.pruned) {
					t.Errorf("%s: run ended with %d validations, %d implied, confirmed %v, pruned %v; reference %d, %d, %v, %v",
						label, res.Validations, res.Implied, res.Confirmed, res.Pruned,
						want.validations, want.implied, want.confirmed, want.pruned)
				}
			}
		}
	}
	if picks == 0 {
		t.Fatal("no picks compared")
	}
}

// TestCostModelCalledOncePerFilter pins the run's contract with its cost
// model: the model is honoured and asked at most once per filter per run.
func TestCostModelCalledOncePerFilter(t *testing.T) {
	fx := newFixture(t)
	calls := make(map[*filter.Filter]int)
	r := &Runner{DB: fx.db, Spec: fx.spec, Set: fx.set, Estimator: &experiment.PathLengthEstimator{},
		costModel: func(f *filter.Filter) float64 {
			calls[f]++
			return float64(len(f.Key()))
		},
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if len(calls) == 0 {
		t.Fatal("the cost model was never asked")
	}
	for f, n := range calls {
		if n != 1 {
			t.Errorf("cost model asked %d times about %s", n, f.Key())
		}
	}
}

// widestRound returns the round of the Mondial pool with the most filters.
func widestRound(t testing.TB) (*mem.Database, generatedRound) {
	t.Helper()
	db := smallMondial(t)
	g := graphx.New(db.Schema())
	var widest generatedRound
	for _, round := range difftest.Rounds(t, db, 1) {
		cands, err := graphx.Enumerate(g, round.Related, graphx.EnumerateOptions{RequireUsefulLeaves: true})
		if err != nil {
			t.Fatal(err)
		}
		if widest.set == nil || len(cands) > widest.set.NumCandidates() {
			widest = generatedRound{name: round.Name, spec: round.Spec, set: decomposeFor(t, round.Spec, cands)}
		}
	}
	return db, widest
}

// TestPickDoesNotAllocate bounds the cost of a pick: array reads only.
func TestPickDoesNotAllocate(t *testing.T) {
	db, round := widestRound(t)
	sess := filter.NewSession(round.set)
	rank := newRanking(round.set, sess)
	rank.estimate(context.Background(), &experiment.PathLengthEstimator{}, tableSizeCost(db))
	if allocs := testing.AllocsPerRun(50, func() {
		if _, ok := rank.pick(); !ok {
			t.Fatal("nothing to pick")
		}
	}); allocs != 0 {
		t.Errorf("a pick allocated %v times, want 0", allocs)
	}
}

var sinkPick int

// BenchmarkPick measures one selection over the widest round of the Mondial
// pool (a few hundred candidates), nothing resolved yet.
func BenchmarkPick(b *testing.B) {
	db, round := widestRound(b)
	sess := filter.NewSession(round.set)
	rank := newRanking(round.set, sess)
	rank.estimate(context.Background(), &experiment.PathLengthEstimator{}, tableSizeCost(db))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPick, _ = rank.pick()
	}
}

// BenchmarkPickRound measures the scheduler's own work over a whole round:
// ranking, estimates and every pick and resolution of the greedy loop over
// the widest round of the Mondial pool, each outcome read from the ground
// truth instead of validated.
func BenchmarkPickRound(b *testing.B) {
	db, round := widestRound(b)
	truth, err := experiment.GroundTruth(context.Background(), db, round.spec, round.set)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		sess := filter.NewSession(round.set)
		rank := newRanking(round.set, sess)
		rank.estimate(context.Background(), &experiment.PathLengthEstimator{}, tableSizeCost(db))
		for sess.UnresolvedCandidates() > 0 {
			i, ok := rank.pick()
			if !ok {
				b.Fatal("nothing to pick")
			}
			sess.RecordExecution(i, filter.ValidationResult{Passed: truth[i] == filter.Passed})
			rank.sync()
		}
	}
}
