// Package sched implements filter-validation scheduling: deciding in which
// order the filters produced by package filter are validated so that the
// fewest (and cheapest) validations resolve every candidate schema mapping
// query (§2.3).
//
// One greedy loop ranks the filters by the expected number of candidates a
// validation resolves, from each filter's failure probability. Every round
// estimates that probability with BayesEstimator, Prism's approach: Bayesian
// models trained on the source database plus join indicators and relation
// sizes (package bayes). The loop takes any Estimator, so that the paper's
// evaluation (package experiment) can run the same loop with its baselines
// and its oracle.
package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"prism/internal/bayes"
	"prism/internal/constraint"
	"prism/internal/exec"
	"prism/internal/filter"
	"prism/internal/obs"
	"prism/internal/schema"
	"prism/internal/sentinel"
)

// Estimator predicts the probability that validating a filter fails.
//
// A run asks it once about each filter it ranks. A filter of a set built by
// filter.DecomposeFor is an outcome class, its join tree with the constrained
// cells it covers and their source columns, which is all an estimate may
// read: the Bayes model reads the covered constrained cells over the tree,
// with a long-path discount, and the path-length baseline reads the tree.
type Estimator interface {
	// FailureProbability returns the estimated probability in [0, 1] that
	// the filter produces no tuple matching the sample constraints.
	FailureProbability(f *filter.Filter) float64
}

// BayesEstimator is Prism's estimator: per-relation Bayesian models plus
// join indicators (package bayes), evaluated against the sample constraints
// of the specification.
//
// The filters of a round share a handful of spec cells and join edges, so an
// estimator remembers the pair counts and intersections the model computed
// for it, and reads the match set of a cell on a source column from the
// round table (filter.Cells), where the round's validations find it too. A
// scheduling run hands its table to the BayesEstimator it ranks with; one
// used on its own, wrapped in another Estimator or over another
// specification builds a table of its own on its first estimate.
// Either way the memo is scoped to the estimator — build one per round, as
// discovery does — and an estimator serves one goroutine (the scheduling
// loop).
type BayesEstimator struct {
	Model *bayes.Model
	Spec  *constraint.Spec

	memo   *estimateMemo            // created by the first estimate or the run
	shared *bayes.Model             // Model, estimating through memo
	cons   []bayes.ColumnConstraint // scratch, reused across estimates
}

// estimateMemo implements bayes.Sets by asking once: per cell of the
// specification on a source column (the round table's selection), per pair
// of intersected sets, per join edge between two sets.
type estimateMemo struct {
	model *bayes.Model
	cells *filter.Cells
	both  map[[2]*exec.Selection]*exec.Selection
	pairs map[pairsKey]int
	// cellSets counts the cell selections this estimator made in the round
	// table, hits the answers given from memory — a cell selection someone
	// made before, an intersection or a pair count.
	cellSets, hits int
}

type pairsKey struct {
	edge     schema.ForeignKey
	from, to *exec.Selection
}

// use has e estimate through the round table cells from here on.
func (e *BayesEstimator) use(cells *filter.Cells) {
	e.memo = &estimateMemo{
		model: e.Model,
		cells: cells,
		both:  make(map[[2]*exec.Selection]*exec.Selection),
		pairs: make(map[pairsKey]int),
	}
	e.shared = e.Model.Sharing(e.memo)
}

func (m *estimateMemo) MatchRows(c bayes.ColumnConstraint) (*exec.Selection, bool) {
	x := m.model.ColumnIndex(c.Ref)
	if x == nil || c.Expr == nil {
		return nil, x != nil
	}
	rows, filled := m.cells.Rows(c.Sample, c.Target, x)
	if filled {
		m.cellSets++
	} else {
		m.hits++
	}
	return rows, true
}

func (m *estimateMemo) Intersect(a, b *exec.Selection) *exec.Selection {
	key := [2]*exec.Selection{a, b}
	if rows, ok := m.both[key]; ok {
		m.hits++
		return rows
	}
	rows := m.model.Intersect(a, b)
	m.both[key] = rows
	return rows
}

func (m *estimateMemo) PairHits(fk schema.ForeignKey, from, to *exec.Selection) int {
	key := pairsKey{edge: fk, from: from, to: to}
	if n, ok := m.pairs[key]; ok {
		m.hits++
		return n
	}
	n := m.model.PairHits(fk, from, to)
	m.pairs[key] = n
	return n
}

// FailureProbability implements Estimator. A filter fails if any sample
// constraint cannot be matched; samples are treated as independent.
func (e *BayesEstimator) FailureProbability(f *filter.Filter) float64 {
	if len(e.Spec.Samples) == 0 {
		return 0
	}
	if e.memo == nil {
		e.use(filter.NewCells(e.Spec))
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

// MemoStats reports how many cell selections the estimator has made in the
// round table and how many answers it read from memory, for the round
// trace.
func (e *BayesEstimator) MemoStats() (cellSets, memoHits int) {
	if e.memo == nil {
		return 0, 0
	}
	return e.memo.cellSets, e.memo.hits
}

// Options configure a scheduling run.
type Options struct {
	// TimeLimit aborts the run when exceeded (0 = unlimited). Discovery, whose
	// budget covers the whole round and already rides the context, leaves it
	// zero. The paper's demo uses a 60-second limit per discovery round.
	TimeLimit time.Duration
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
	// propagation); the outcome of every validation the run does execute is
	// written back, one entry per filter validated. Requires CacheKey.
	// Because filter outcomes are ground truths of the database, the
	// resolved candidate set is identical with or without a cache — only the
	// number of executed validations changes.
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
	// Validations is the number of filter validations actually executed —
	// the metric of the paper's §2.4 comparison.
	Validations int
	// Implied is the number of outcomes derived for free, by propagation.
	Implied int
	// CacheHits counts filter outcomes served from Options.Cache —
	// validations skipped entirely. CacheMisses counts validations that had
	// to execute because the cache had no entry, and CacheStores the
	// outcomes written back; both equal Validations when a cache is
	// configured. All three are zero for cache-less runs.
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
	// backend's catalog (NumRows, once per table per run, for the cost
	// model), so the validation order — and therefore the validation
	// count, the paper's §2.4 metric — is identical across backends.
	DB        exec.Executor
	Spec      *constraint.Spec
	Set       *filter.Set
	Estimator Estimator
	Options   Options
	// costModel, when not nil, replaces tableSizeCost; this package's
	// reference tests price filters their own way through it.
	costModel func(*filter.Filter) float64
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
	if opts.Cache != nil && opts.CacheKey == nil {
		return Result{}, errors.New("sched: Options.Cache requires Options.CacheKey")
	}
	cost := r.costModel
	if cost == nil {
		cost = tableSizeCost(r.DB)
	}
	start := time.Now()
	ctx, cancel := WithBudget(ctx, start, opts.TimeLimit)
	defer cancel()

	// One round table serves the run: the validations select a cell's rows
	// on a source column through it, and so does the estimator, whichever
	// asks first.
	cells := filter.NewCells(r.Spec)
	if be, ok := r.Estimator.(*BayesEstimator); ok && be.Spec == r.Spec {
		be.use(cells)
	}
	sess := filter.NewSession(r.Set)
	s := &run{
		set: r.Set, opts: opts, ctx: ctx,
		validator: &filter.Validator{DB: r.DB, Cells: cells},
		sess:      sess,
		rank:      newRanking(r.Set, sess),
		// On traced rounds the estimates hang one "estimate" span, and each
		// validation a "validate" span, under the round's schedule span;
		// untraced rounds carry a nil parent and every span call is a no-op.
		trace: obs.SpanFromContext(ctx),
	}
	s.preloadCache()

	spEstimate := s.trace.Child("estimate")
	estimates := s.rank.estimate(ctx, r.Estimator, cost)
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
	opts      Options
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
		sp.SetAttr("plan", f.TreeSignature())
	}
	defer func() {
		if rec := recover(); rec != nil {
			metricPanics.Inc()
			vr, err = filter.ValidationResult{}, fmt.Errorf("validation panic: %v: %w", rec, sentinel.ErrInternal)
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
// The counts are kept current from the session's resolution log (sync); the
// heap orders the filters a pick may still choose.
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
	// heap is a max-heap, in pick order, of the filters estimate ranked and
	// pick has not yet found dead, each under the counts its entry was last
	// computed from.
	heap []rankEntry
	// seen is how much of the resolution log the counts reflect;
	// confirmed and pruned count the candidates in that part.
	seen              int
	confirmed, pruned int
}

// rankEntry is one filter's place in the pick order as last computed: its
// score and the counts the score was computed from.
type rankEntry struct {
	score float64
	idx   int32
	reach int32
	top   bool
}

func newRanking(set *filter.Set, sess *filter.Session) *ranking {
	n := set.NumFilters()
	k := &ranking{
		set: set, sess: sess,
		failProb: make([]float64, n), cost: make([]float64, n),
		reach: make([]int32, n), tops: make([]int32, n),
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
// fixed per filter — builds the heap pick reads, and returns how many
// estimates it asked for, one per filter it ranks. Only filters pick can
// still reach are ranked: a filter the session cache already determined, or
// whose candidates it all resolved, never is. It polls ctx every 64 filters
// and stops ranking once it is dead; the loop then ends the run before its
// first pick.
func (k *ranking) estimate(ctx context.Context, est Estimator, costModel func(*filter.Filter) float64) int {
	k.heap = make([]rankEntry, 0, len(k.set.Filters))
	for i, f := range k.set.Filters {
		if i%64 == 0 && ctx.Err() != nil {
			break
		}
		if k.reach[i] == 0 || k.sess.Determined(i) {
			continue
		}
		k.failProb[i] = clamp01(est.FailureProbability(f))
		k.cost[i] = clampCost(costModel(f))
		k.heap = append(k.heap, k.entry(int32(i)))
	}
	for h := len(k.heap)/2 - 1; h >= 0; h-- {
		k.down(h)
	}
	return len(k.heap)
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
// lower index for determinism. Minimising validations is the paper's §2.4
// metric; the cost model only arbitrates ties, keeping validation time low
// at equal pruning power.
//
// The heap is lazy (Minoux's accelerated greedy): pick drops a dead top
// entry and refreshes a stale one until the top entry's stored key is
// current, and returns that filter without removing it. This is exactly the
// argmax of a scan over every live filter. P(fail) and cost are fixed for
// the run, and reach and the top-of-an-unresolved-candidate flag only fall
// as candidates resolve, so a filter's key (score, top, reach, −cost,
// −index) never rises: every stored key is at least its filter's current
// key. A top entry whose stored key is current is therefore at least every
// other filter's current key, and the key order is total, so it is today's
// argmax with today's tie-breaks. A dead filter — determined, or with no
// unresolved candidate left — never comes back. Every step is array reads
// and swaps within the heap estimate built, so a pick does not allocate.
func (k *ranking) pick() (int, bool) {
	for len(k.heap) > 0 {
		i := k.heap[0].idx
		switch {
		case k.reach[i] == 0 || k.sess.Outcomes[i] != filter.Unknown:
			last := len(k.heap) - 1
			k.heap[0] = k.heap[last]
			k.heap = k.heap[:last]
		case k.heap[0].reach != k.reach[i] || k.heap[0].top != (k.tops[i] > 0):
			k.heap[0] = k.entry(i)
		default:
			return int(i), true
		}
		k.down(0)
	}
	return -1, false
}

// entry computes filter i's rank entry from the current counts.
func (k *ranking) entry(i int32) rankEntry {
	e := rankEntry{idx: i, reach: k.reach[i], top: k.tops[i] > 0}
	topResolve := 0.0
	if e.top {
		topResolve = 1
	}
	e.score = k.failProb[i]*float64(e.reach) + (1-k.failProb[i])*topResolve
	return e
}

// before reports whether entry a precedes entry b in the pick order.
func (k *ranking) before(a, b rankEntry) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	if a.top != b.top {
		return a.top
	}
	if a.reach != b.reach {
		return a.reach > b.reach
	}
	if ca, cb := k.cost[a.idx], k.cost[b.idx]; ca != cb {
		return ca < cb
	}
	return a.idx < b.idx
}

// down restores the heap order below position h.
func (k *ranking) down(h int) {
	for {
		first := h
		for _, c := range [2]int{2*h + 1, 2*h + 2} {
			if c < len(k.heap) && k.before(k.heap[c], k.heap[first]) {
				first = c
			}
		}
		if first == h {
			return
		}
		k.heap[h], k.heap[first] = k.heap[first], k.heap[h]
		h = first
	}
}

// tableSizeCost returns the cost model of one run: the sum of the filter's
// base-table sizes, each table's row count asked of the backend once. Cost
// arbitrates between filters of equal pruning power, cheaper first, and the
// ranking asks it at most once per filter.
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

// clampCost maps a cost-model value to a positive cost: a non-positive or
// NaN value counts as 1.
func clampCost(c float64) float64 {
	if c <= 0 || math.IsNaN(c) {
		return 1
	}
	return c
}

// clamp01 maps an estimate to a probability: out-of-range values to the
// nearer bound, NaN to 0.5 (a NaN would make the pick order depend on
// which filter is compared first).
func clamp01(f float64) float64 {
	switch {
	case math.IsNaN(f):
		return 0.5
	case f < 0:
		return 0
	case f > 1:
		return 1
	}
	return f
}
