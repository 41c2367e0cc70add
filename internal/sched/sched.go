// Package sched implements filter-validation scheduling: deciding in which
// order the filters produced by package filter are validated so that the
// fewest (and cheapest) validations resolve every candidate schema mapping
// query (§2.3).
//
// A single greedy scheduling loop is shared by every policy; policies differ
// only in how they estimate a filter's failure probability, exactly as in
// the paper:
//
//   - PathLength — the "Filter" baseline (Shen et al., SIGMOD'14): failure
//     probability proportional to the filter's join-path length.
//   - Bayes — Prism's approach: failure probability from Bayesian models
//     trained on the source database plus join indicators and relation
//     sizes (package bayes).
//   - Oracle — ground-truth outcomes; yields the (greedy) optimum the
//     evaluation compares against.
//   - Random — a sanity-check baseline.
package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"prism/internal/bayes"
	"prism/internal/constraint"
	"prism/internal/exec"
	"prism/internal/fault"
	"prism/internal/filter"
	"prism/internal/obs"
	"prism/internal/rowset"
	"prism/internal/schema"
)

// Estimator predicts the probability that validating a filter fails.
type Estimator interface {
	// Name identifies the policy in experiment output.
	Name() string
	// FailureProbability returns the estimated probability in [0, 1] that
	// the filter produces no tuple matching the sample constraints.
	FailureProbability(f *filter.Filter) float64
}

// PathLengthEstimator is the Filter baseline: failure probability grows
// linearly with the number of join edges.
type PathLengthEstimator struct {
	// Slope controls how quickly the probability grows per edge; the
	// scheduler only uses relative order, so the default of 0.2 is fine.
	Slope float64
}

// Name implements Estimator.
func (e *PathLengthEstimator) Name() string { return "filter-pathlength" }

// FailureProbability implements Estimator.
func (e *PathLengthEstimator) FailureProbability(f *filter.Filter) float64 {
	slope := e.Slope
	if slope <= 0 {
		slope = 0.2
	}
	p := slope * float64(f.JoinPathLength()+1)
	if p > 1 {
		p = 1
	}
	return p
}

// BayesEstimator is Prism's estimator: per-relation Bayesian models plus
// join indicators (package bayes), evaluated against the sample constraints
// of the specification.
//
// The filters of a round share a handful of spec cells and join edges, so an
// estimator remembers the match sets and pair counts the model computed for
// it and every later filter that meets one reads the answer. The memo is
// scoped to the estimator — build one per round, as discovery does — and an
// estimator serves one goroutine (the scheduling loop); it takes no lock.
type BayesEstimator struct {
	Model *bayes.Model
	Spec  *constraint.Spec

	memo   *estimateMemo            // created by the first estimate
	shared *bayes.Model             // Model, estimating through memo
	cons   []bayes.ColumnConstraint // scratch, reused across estimates
}

// estimateMemo implements bayes.Sets by asking the model once: per cell of
// the specification on a source column, per pair of intersected sets, per
// join edge between two sets.
type estimateMemo struct {
	model *bayes.Model
	cells map[cellKey]*bayes.RowSet
	both  map[[2]*bayes.RowSet]*bayes.RowSet
	pairs map[pairsKey]int
	// cellSets counts the distinct cell sets computed, hits the answers
	// given from memory.
	cellSets, hits int
}

type cellKey struct {
	sample, target int
	source         schema.ColumnRef
}

type pairsKey struct {
	edge     schema.ForeignKey
	from, to *bayes.RowSet
}

func (m *estimateMemo) MatchRows(c bayes.ColumnConstraint) (*bayes.RowSet, bool) {
	key := cellKey{sample: c.Sample, target: c.Target, source: c.Ref}
	if rows, ok := m.cells[key]; ok {
		m.hits++
		return rows, true
	}
	rows, known := m.model.MatchRows(c)
	if known {
		m.cells[key] = rows
		m.cellSets++
	}
	return rows, known
}

func (m *estimateMemo) Intersect(a, b *bayes.RowSet) *bayes.RowSet {
	key := [2]*bayes.RowSet{a, b}
	if rows, ok := m.both[key]; ok {
		m.hits++
		return rows
	}
	rows := m.model.Intersect(a, b)
	m.both[key] = rows
	return rows
}

func (m *estimateMemo) PairHits(fk schema.ForeignKey, from, to *bayes.RowSet) int {
	key := pairsKey{edge: fk, from: from, to: to}
	if n, ok := m.pairs[key]; ok {
		m.hits++
		return n
	}
	n := m.model.PairHits(fk, from, to)
	m.pairs[key] = n
	return n
}

// Name implements Estimator.
func (e *BayesEstimator) Name() string { return "prism-bayes" }

// FailureProbability implements Estimator. A filter fails if any sample
// constraint cannot be matched; samples are treated as independent.
func (e *BayesEstimator) FailureProbability(f *filter.Filter) float64 {
	if len(e.Spec.Samples) == 0 {
		return 0
	}
	if e.memo == nil {
		e.memo = &estimateMemo{
			model: e.Model,
			cells: make(map[cellKey]*bayes.RowSet),
			both:  make(map[[2]*bayes.RowSet]*bayes.RowSet),
			pairs: make(map[pairsKey]int),
		}
		e.shared = e.Model.Sharing(e.memo)
	}
	allMatch := 1.0
	for si, sample := range e.Spec.Samples {
		cons := e.cons[:0]
		for i, tc := range f.TargetCols {
			if tc >= len(sample.Cells) || sample.Cells[tc] == nil {
				continue
			}
			cons = append(cons, bayes.ColumnConstraint{Ref: f.Sources[i], Expr: sample.Cells[tc], Sample: si, Target: tc})
		}
		e.cons = cons
		allMatch *= 1 - e.sampleFailure(f, cons)
	}
	p := 1 - allMatch
	// Confidence discount: the per-relation statistics are exact and the
	// single-edge join-indicator statistics near-exact, but estimates over
	// longer join paths compound tree-factorisation error. Shrink those so
	// the scheduler prefers pruning through short filters it is sure about;
	// failing long filters are almost always pruned transitively by a
	// failing short sub-filter anyway.
	if edges := len(f.Tree.Edges); edges > 1 {
		p *= math.Pow(0.6, float64(edges-1))
	}
	return p
}

// sampleFailure estimates the probability that one sample constraint cannot
// be matched by the filter. Single-relation filters whose constraints are
// all equality-shaped are resolved exactly from the trained per-relation
// model (the preprocessing already knows whether a row with those values
// exists); everything else falls back to the Poisson estimate over expected
// matches through join indicators.
func (e *BayesEstimator) sampleFailure(f *filter.Filter, cons []bayes.ColumnConstraint) float64 {
	if len(f.Tree.Edges) == 0 {
		if count, ok := e.shared.ExactMatchingRows(f.Tree.Tables[0], cons); ok {
			if count > 0 {
				return 0
			}
			return 1
		}
	}
	return e.shared.FailureProbability(f.Tree.Tables, f.Tree.Edges, cons)
}

// MemoStats reports how many distinct cell match sets the estimator has
// had computed and how many answers its memo gave, for the round trace.
func (e *BayesEstimator) MemoStats() (cellSets, memoHits int) {
	if e.memo == nil {
		return 0, 0
	}
	return e.memo.cellSets, e.memo.hits
}

// OracleEstimator knows the true outcome of every filter; scheduling with it
// yields the optimum the paper's evaluation measures the gap against.
type OracleEstimator struct {
	// Truth maps filter index -> true outcome (Passed/Failed).
	Truth []filter.Outcome
	// Index maps filter pointer identity to index; set by NewOracle.
	index map[*filter.Filter]int
}

// NewOracle builds an oracle estimator from ground-truth outcomes aligned
// with the filter set.
func NewOracle(set *filter.Set, truth []filter.Outcome) *OracleEstimator {
	idx := make(map[*filter.Filter]int, len(set.Filters))
	for i, f := range set.Filters {
		idx[f] = i
	}
	return &OracleEstimator{Truth: truth, index: idx}
}

// Name implements Estimator.
func (e *OracleEstimator) Name() string { return "oracle-optimum" }

// FailureProbability implements Estimator.
func (e *OracleEstimator) FailureProbability(f *filter.Filter) float64 {
	i, ok := e.index[f]
	if !ok || i >= len(e.Truth) {
		return 0
	}
	if e.Truth[i] == filter.Failed {
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

// Name implements Estimator.
func (e *RandomEstimator) Name() string { return "random" }

// FailureProbability implements Estimator.
func (e *RandomEstimator) FailureProbability(f *filter.Filter) float64 {
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(e.Seed))
		e.memo = make(map[string]float64)
	}
	if p, ok := e.memo[f.Key]; ok {
		return p
	}
	p := e.rng.Float64()
	e.memo[f.Key] = p
	return p
}

// Options configure a scheduling run.
type Options struct {
	// TimeLimit aborts the run when exceeded (0 = unlimited). Discovery, whose
	// budget covers the whole round and already rides the context, leaves it
	// zero. The paper's demo uses a 60-second limit per discovery round.
	TimeLimit time.Duration
	// CostModel estimates the execution cost of a filter; the default is
	// the sum of its base-table sizes. Cost arbitrates between filters of
	// equal pruning power, cheaper first. It is evaluated at most once per
	// filter per run.
	CostModel func(f *filter.Filter) float64
	// Parallelism is accepted and ignored: the loop validates one filter at a
	// time.
	//
	// Deprecated: ROADMAP item 0e removes it together with Batching; the
	// files under benchmark/ still set it.
	Parallelism int
	// Batching is accepted and ignored: filters are validated one at a time.
	//
	// Deprecated: ROADMAP item 0e removes it together with
	// timedExecutor.ExistsBatch.
	Batching bool
	// OnResolved, when non-nil, is invoked each time a candidate becomes
	// confirmed or pruned, with a progress snapshot taken at that moment.
	// Discovery streaming hangs off it. The callbacks are called one at a
	// time while RunContext is blocked, and never after it has returned.
	OnResolved func(candidate int, confirmed bool, s Snapshot)
	// OnProgress, when non-nil, is invoked after every applied validation
	// outcome.
	OnProgress func(s Snapshot)
	// Cache, when non-nil, is an interactive session's cross-round
	// filter-outcome cache. Before any validation runs, every filter with a
	// cached outcome is resolved for free (with full implication
	// propagation); every validation the run does execute is written back.
	// Requires CacheKey. Because filter outcomes are ground truths of the
	// database, the resolved candidate set is identical with or without a
	// cache — only the number of executed validations changes.
	Cache *filter.OutcomeCache
	// CacheKey returns the cache key of filter i (filter.ValidationKey of
	// the filter under the run's spec and dataset version). Must be set
	// when Cache is.
	CacheKey func(i int) string
}

// Snapshot is a point-in-time view of a scheduling run, delivered through
// the OnResolved/OnProgress callbacks.
type Snapshot struct {
	// Validations and Implied count executed and propagated outcomes so far.
	Validations int
	Implied     int
	// Confirmed, Pruned and Unresolved partition the candidates.
	Confirmed  int
	Pruned     int
	Unresolved int
	// Remaining is the time left before the run's context expires (0 when
	// it has no deadline).
	Remaining time.Duration
}

// Result summarises one scheduling run.
type Result struct {
	Policy string
	// Validations is the number of filter validations actually executed —
	// the metric of the paper's §2.4 comparison.
	Validations int
	// Implied is the number of outcomes derived by propagation for free.
	Implied int
	// CacheHits counts filter outcomes served from Options.Cache —
	// validations skipped entirely. CacheMisses counts validations that had
	// to execute because the cache had no entry (equal to Validations when
	// a cache is configured); CacheStores counts outcomes written back. All
	// three are zero for cache-less runs.
	CacheHits   int
	CacheMisses int
	CacheStores int
	// Cost aggregates the execution statistics of the validations run.
	Cost exec.ExecStats
	// Confirmed and Pruned list candidate indexes by final status.
	Confirmed []int
	Pruned    []int
	// TimedOut reports whether the time limit was hit before resolving all
	// candidates.
	TimedOut bool
	// Cancelled reports whether the caller's context was cancelled before
	// resolving all candidates.
	Cancelled bool
}

// Runner executes the shared greedy scheduling loop with a given estimator.
type Runner struct {
	// DB is the execution backend validations run against: any
	// exec.Executor. The scheduling decisions themselves only consult the
	// backend's catalog (NumRows, once per table per run, for the default
	// cost model), so the validation order — and therefore the validation
	// count, the paper's §2.4 metric — is identical across backends.
	DB        exec.Executor
	Spec      *constraint.Spec
	Set       *filter.Set
	Estimator Estimator
	Options   Options
}

// Run executes validations until every candidate is confirmed or pruned or
// the time limit expires. It is shorthand for RunContext with a background
// context.
func (r *Runner) Run() (Result, error) {
	return r.RunContext(context.Background())
}

// RunContext executes the scheduling loop under a context: stop check, pick
// the best undetermined filter, validate it, apply the outcome and propagate
// its implications, deliver the callbacks — one validation at a time, the
// paper's sequential greedy loop. A context that dies interrupts the
// validation in flight and ends the run with the partial result, classified
// by Interruption: TimedOut and a nil error when a budget expired, Cancelled
// and ctx.Err() otherwise.
//
// The loop runs on a goroutine of its own so that RunContext can return when
// the watchdog fires on a validation that wedged without polling its context
// (see run). A panic on that goroutine outside a validation — a callback's,
// say — is re-raised here, on the caller.
func (r *Runner) RunContext(ctx context.Context) (Result, error) {
	opts := r.Options
	if opts.CostModel == nil {
		opts.CostModel = tableSizeCost(r.DB)
	}
	if opts.Cache != nil && opts.CacheKey == nil {
		return Result{Policy: r.Estimator.Name()}, errors.New("sched: Options.Cache requires Options.CacheKey")
	}
	start := time.Now()
	ctx, cancel := WithBudget(ctx, start, opts.TimeLimit)
	defer cancel()

	sess := filter.NewSession(r.Set)
	s := &run{
		set: r.Set, opts: opts, ctx: ctx,
		validator: &filter.Validator{DB: r.DB, Spec: r.Spec},
		sess:      sess,
		rank:      newRanking(r.Set, sess),
		res:       Result{Policy: r.Estimator.Name()},
		// On traced rounds the estimates hang one "estimate" span, and each
		// validation a "validate" span, under the round's schedule span;
		// untraced rounds carry a nil parent and every span call is a no-op.
		trace: obs.SpanFromContext(ctx),
	}
	s.preloadCache()

	spEstimate := s.trace.Child("estimate")
	estimates := s.rank.estimate(r.Estimator, opts.CostModel)
	spEstimate.SetAttr("calls", estimates)
	if be, ok := r.Estimator.(*BayesEstimator); ok {
		// The span counts the calls; what the calls shared is the Bayes
		// estimator's to report.
		cellSets, memoHits := be.MemoStats()
		spEstimate.SetAttr("cell_sets", cellSets)
		spEstimate.SetAttr("memo_hits", memoHits)
	}
	spEstimate.End()

	// The watchdog is the last line of defence for executors that wedge
	// without polling their context: once the context's deadline plus a grace
	// window has passed, the round returns its partial result and abandons
	// the loop, which ends on its own once the wedged call returns (the
	// deferred cancel above has killed its context by then).
	var watchdogC <-chan time.Time
	if deadline, ok := ctx.Deadline(); ok {
		watchdog := time.NewTimer(time.Until(deadline) + watchdogGrace(deadline.Sub(start)))
		defer watchdog.Stop()
		watchdogC = watchdog.C
	}
	done := make(chan struct{})
	go s.loop(done)
	select {
	case <-done:
	case <-watchdogC:
		if s.abandon() {
			metricWatchdog.Inc()
			return s.result()
		}
		<-done // the loop had already returned; its close follows at once
	}
	if s.panicked != nil {
		panic(s.panicked)
	}
	return s.result()
}

// run is the state of one RunContext call. The loop goroutine holds mu
// whenever it reads or writes any of it or calls a callback — everywhere
// except inside a validation — so the watchdog path, which takes mu to mark
// the run abandoned, never returns in the middle of an applied outcome, and a
// loop that un-wedges afterwards sees the mark before it touches anything.
type run struct {
	set       *filter.Set
	opts      Options         // CostModel defaulted
	ctx       context.Context // carries the budget; validations run under it
	validator *filter.Validator
	sess      *filter.Session
	rank      *ranking
	cacheKeys []string // per filter, when opts.Cache is set
	trace     *obs.Span
	fresh     []int // scratch of notifyOutcome

	mu        sync.Mutex
	res       Result
	err       error
	exited    bool // the loop has returned
	abandoned bool // the watchdog gave up on the loop
	panicked  any  // what the loop panicked with; read after done closes
}

func (s *run) snapshot() Snapshot {
	snap := Snapshot{
		Validations: s.sess.Executed,
		Implied:     s.sess.Implied,
		Confirmed:   s.rank.confirmed,
		Pruned:      s.rank.pruned,
		Unresolved:  s.sess.UnresolvedCandidates(),
	}
	if deadline, ok := s.ctx.Deadline(); ok {
		snap.Remaining = max(0, time.Until(deadline))
	}
	return snap
}

// notifyOutcome brings the ranking up to date and delivers the callbacks
// after any applied outcome — executed, or served from the session cache.
// Candidates one outcome resolved together are reported in index order.
func (s *run) notifyOutcome() {
	resolved := s.rank.sync()
	if s.opts.OnResolved != nil && len(resolved) > 0 {
		s.fresh = append(s.fresh[:0], resolved...)
		slices.Sort(s.fresh)
		snap := s.snapshot()
		for _, ci := range s.fresh {
			s.opts.OnResolved(ci, s.sess.Status[ci] == filter.CandidateConfirmed, snap)
		}
	}
	if s.opts.OnProgress != nil {
		s.opts.OnProgress(s.snapshot())
	}
}

// preloadCache resolves every filter with a known outcome in the session
// cache before any validation executes. Hits propagate implications exactly
// like executed validations, so one cached failure can still prune many
// candidates; the loop then only pays for what the cache does not know.
func (s *run) preloadCache() {
	cache := s.opts.Cache
	if cache == nil {
		return
	}
	s.cacheKeys = make([]string, s.set.NumFilters())
	for i := range s.cacheKeys {
		s.cacheKeys[i] = s.opts.CacheKey(i)
	}
	for i, key := range s.cacheKeys {
		if s.sess.Determined(i) {
			// Already implied by an earlier cached outcome.
			continue
		}
		if passed, ok := cache.Lookup(key); ok {
			s.sess.RecordCached(i, passed)
			s.res.CacheHits++
			s.notifyOutcome()
		}
	}
}

// loop is the greedy loop.
func (s *run) loop(done chan<- struct{}) {
	defer close(done)
	defer func() {
		if rec := recover(); rec != nil {
			s.panicked = rec
		}
	}()
	s.mu.Lock()
	defer func() {
		s.exited = true
		s.mu.Unlock()
	}()
	for s.step() {
	}
}

// step runs one iteration of the loop and reports whether to go on.
func (s *run) step() bool {
	if s.interrupted() || s.sess.UnresolvedCandidates() == 0 {
		return false
	}
	idx, ok := s.rank.pick()
	if !ok {
		// Nothing undetermined can make progress (top filters always remain
		// available for unresolved candidates, so this should not happen).
		return false
	}
	vr, err := s.validate(idx)
	switch {
	case s.abandoned:
		// The watchdog returned the partial result while the validation was
		// wedged; the outcome is discarded and nothing may be touched.
		return false
	case err == nil:
		s.sess.RecordExecution(idx, vr)
		if s.opts.Cache != nil {
			s.opts.Cache.Store(s.cacheKeys[idx], vr.Passed)
			s.res.CacheStores++
			s.res.CacheMisses++
		}
		s.notifyOutcome()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, exec.ErrInterrupted):
		// The validation was interrupted by cancellation or the time budget;
		// its outcome is unknown and discarded, and the stop check of the
		// next step says which it was.
	default:
		s.err = fmt.Errorf("sched: %w", err)
		return false
	}
	return true
}

// validate executes one filter's validation, with mu released. A panic in it
// — an executor bug, or an injected one — must kill only this round, not the
// process: it comes back as an ErrInternal-wrapped error.
func (s *run) validate(idx int) (vr filter.ValidationResult, err error) {
	s.mu.Unlock()
	defer s.mu.Lock()
	f := s.set.Filters[idx]
	sp := s.trace.Child("validate")
	if sp != nil {
		sp.SetAttr("plan", f.PlanFingerprint())
	}
	defer func() {
		if rec := recover(); rec != nil {
			metricPanics.Inc()
			vr, err = filter.ValidationResult{}, fmt.Errorf("validation panic: %v: %w", rec, fault.ErrInternal)
		}
		if sp != nil {
			sp.SetAttr("passed", vr.Passed)
			SetCostAttrs(sp, vr.Cost)
			sp.End()
		}
	}()
	if err = faultValidate.Hit(); err != nil {
		return vr, err
	}
	return s.validator.ValidateContext(s.ctx, f)
}

// SetCostAttrs records what executions cost on a span: the round's root, its
// schedule span and every validate span carry the same five attributes.
func SetCostAttrs(sp *obs.Span, cost exec.ExecStats) {
	sp.SetAttr("rowsScanned", cost.RowsScanned)
	sp.SetAttr("selectionsReused", cost.SelectionsReused)
	sp.SetAttr("intermediateRows", cost.IntermediateRows)
	sp.SetAttr("zonesPruned", cost.ZonesPruned)
	sp.SetAttr("scratchBytes", cost.ScratchBytes)
}

// interrupted is the run's one stop check: a dead context ends it, timed out
// when the budget expired and cancelled with the context's error otherwise.
func (s *run) interrupted() bool {
	s.res.TimedOut, s.res.Cancelled, s.err = Interruption(s.ctx)
	return s.res.TimedOut || s.res.Cancelled
}

// abandon marks the run abandoned and says why its context is dead, unless
// the loop has already returned; it reports whether it did.
func (s *run) abandon() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.exited {
		return false
	}
	s.abandoned = true
	s.interrupted()
	return true
}

// result reads the run's Result once the loop has returned or been abandoned;
// either way nothing writes the state any more.
func (s *run) result() (Result, error) {
	res := s.res
	res.Validations = s.sess.Executed
	res.Implied = s.sess.Implied
	res.Cost = s.sess.Cost
	res.Confirmed = s.sess.Confirmed()
	res.Pruned = s.sess.Pruned()
	return res, s.err
}

// ranking is what pick reads: per filter, the two terms of its score that
// are fixed for the run and the two counts that fall as candidates resolve.
// The counts are kept current from the session's resolution log (sync), so
// a pick is one pass over flat arrays.
type ranking struct {
	set  *filter.Set
	sess *filter.Session
	// failProb is the clamped failure estimate, cost the clamped cost-model
	// value; both are zero for a filter the run never ranks.
	failProb []float64
	cost     []float64
	// reach[i] counts the unresolved candidates containing filter i — all
	// pruned if it fails — and tops[i] those of them whose top filter is i,
	// confirmed if it passes.
	reach []int32
	tops  []int32
	// live lists, ascending, the filters a pick may still choose. A filter
	// leaves when it is determined or its reach falls to zero, and neither
	// is ever undone, so pick drops the dead ones as it passes them.
	live []int32
	// seen is how much of the resolution log the counts reflect;
	// confirmed and pruned count the candidates in that part.
	seen              int
	confirmed, pruned int
}

func newRanking(set *filter.Set, sess *filter.Session) *ranking {
	n := set.NumFilters()
	k := &ranking{
		set: set, sess: sess,
		failProb: make([]float64, n), cost: make([]float64, n),
		reach: make([]int32, n), tops: make([]int32, n), live: make([]int32, n),
	}
	for i := range k.live {
		k.live[i] = int32(i)
	}
	for ci, filters := range set.CandidateFilters {
		for _, fi := range filters {
			k.reach[fi]++
			if fi == set.Top[ci] {
				k.tops[fi]++
			}
		}
	}
	k.sync()
	return k
}

// estimate fills in the static terms — failure probability and cost, both
// fixed per filter — and returns how many filters it estimated: only those
// pick can still reach. A filter the session cache already determined, or
// whose candidates it all resolved, is never ranked.
func (k *ranking) estimate(est Estimator, costModel func(*filter.Filter) float64) int {
	estimates := 0
	for i, f := range k.set.Filters {
		if k.reach[i] == 0 || k.sess.Determined(i) {
			continue
		}
		k.failProb[i] = clamp01(est.FailureProbability(f))
		k.cost[i] = clampCost(costModel(f))
		estimates++
	}
	return estimates
}

// sync folds the candidates resolved since the last call into the counts
// and returns them, in resolution order.
func (k *ranking) sync() []int {
	resolved := k.sess.Resolutions()[k.seen:]
	for _, ci := range resolved {
		for _, fi := range k.set.CandidateFilters[ci] {
			k.reach[fi]--
			if fi == k.set.Top[ci] {
				k.tops[fi]--
			}
		}
		if k.sess.Status[ci] == filter.CandidateConfirmed {
			k.confirmed++
		} else {
			k.pruned++
		}
	}
	k.seen += len(resolved)
	return resolved
}

// pick selects the next filter to validate: the undetermined filter with
// the highest expected number of candidates resolved by one validation,
//
//	score = P(fail) × reach + (1 − P(fail)) × topResolve
//
// where reach is the number of unresolved candidates containing the filter
// (all pruned if it fails) and topResolve is 1 when the filter is the top
// filter of an unresolved candidate (confirmed if it passes). Ties break in
// favour of top filters, then higher reach, then lower estimated cost, then
// index for determinism. Minimising validations is the paper's §2.4 metric;
// the cost model only arbitrates ties, keeping validation time low at equal
// pruning power.
//
// Only the maximum is needed and every term is an array read, so the
// selection is a single allocation-free argmax pass (this runs once per
// validation).
func (k *ranking) pick() (int, bool) {
	best := -1
	var bestScore float64
	live, outcomes := k.live[:0], k.sess.Outcomes
	for _, fi := range k.live {
		i, reach := int(fi), k.reach[fi]
		if reach == 0 || outcomes[i] != filter.Unknown {
			continue
		}
		live = append(live, fi)
		topResolve := 0.0
		if k.tops[i] > 0 {
			topResolve = 1
		}
		score := k.failProb[i]*float64(reach) + (1-k.failProb[i])*topResolve
		if best < 0 || k.better(i, score, best, bestScore) {
			best, bestScore = i, score
		}
	}
	k.live = live
	return best, best >= 0
}

// better reports whether filter i (with its score) precedes best in the
// pick order. pick scans in index order, so an all-equal tie keeps best.
func (k *ranking) better(i int, score float64, best int, bestScore float64) bool {
	if score != bestScore {
		return score > bestScore
	}
	if top, bestTop := k.tops[i] > 0, k.tops[best] > 0; top != bestTop {
		return top
	}
	if k.reach[i] != k.reach[best] {
		return k.reach[i] > k.reach[best]
	}
	return k.cost[i] < k.cost[best]
}

// tableSizeCost returns the default cost model of one run: the sum of the
// filter's base-table sizes, each table's row count asked of the backend
// once.
func tableSizeCost(db exec.Executor) func(*filter.Filter) float64 {
	rows := make(map[string]float64)
	return func(f *filter.Filter) float64 {
		cost := 0.0
		for _, t := range f.Tree.Tables {
			n, ok := rows[t]
			if !ok {
				n = float64(db.NumRows(t))
				rows[t] = n
			}
			cost += n
		}
		return cost
	}
}

func clampCost(c float64) float64 {
	if c <= 0 {
		return 1
	}
	return c
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// GroundTruth exhaustively validates every filter in the set and returns the
// true outcomes plus the total number of filters. It is used to build the
// oracle and to compute the optimum validation count.
func GroundTruth(db exec.Executor, spec *constraint.Spec, set *filter.Set) ([]filter.Outcome, error) {
	return GroundTruthContext(context.Background(), db, spec, set)
}

// GroundTruthContext is GroundTruth under a context; cancelling ctx aborts
// the exhaustive validation sweep.
func GroundTruthContext(ctx context.Context, db exec.Executor, spec *constraint.Spec, set *filter.Set) ([]filter.Outcome, error) {
	v := &filter.Validator{DB: db, Spec: spec}
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

// OptimalValidationCount computes (a greedy approximation of) the minimum
// number of filter validations needed to resolve every candidate, given
// ground-truth outcomes:
//
//   - every candidate whose top filter passes must have that top filter
//     validated (distinct top filters are counted once);
//   - the failing candidates must be covered by failing filters — a minimum
//     set cover, approximated greedily.
func OptimalValidationCount(set *filter.Set, truth []filter.Outcome) int {
	count := 0
	// Distinct top filters of passing candidates, and the failing
	// candidates still to cover — both dense index sets, kept as bitsets.
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
	count += neededTops.Popcount()

	// Greedy set cover of failing candidates by failing filters.
	for remaining > 0 {
		bestFilter := -1
		bestCover := 0
		for fi := range set.Filters {
			if truth[fi] != filter.Failed {
				continue
			}
			cover := 0
			for _, ci := range set.CandidatesOf(fi) {
				if failing.Contains(int32(ci)) {
					cover++
				}
			}
			if cover > bestCover || (cover == bestCover && cover > 0 && fi < bestFilter) {
				bestCover = cover
				bestFilter = fi
			}
		}
		if bestFilter < 0 || bestCover == 0 {
			// Shouldn't happen: a failing candidate always has at least its
			// failing top filter. Count one validation per remaining
			// candidate to stay safe.
			count += remaining
			break
		}
		count++
		for _, ci := range set.CandidatesOf(bestFilter) {
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
	polGap := policyValidations - optimum
	if polGap < 0 {
		polGap = 0
	}
	return float64(baseGap-polGap) / float64(baseGap)
}
