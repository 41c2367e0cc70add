// Package discovery wires the whole Prism pipeline together (Figure 2):
// related-column search over the preprocessed column metadata and
// per-column keyword sets (which columns hold a keyword — the part of the
// paper's inverted index this step needs; the postings, which rows, are the
// columnar executor's kwText index), candidate generation over the schema
// graph, filter decomposition,
// scheduled filter validation under a time budget, and assembly of the
// final schema mapping queries with their SQL text.
package discovery

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"prism/internal/bayes"
	"prism/internal/constraint"
	"prism/internal/exec"
	"prism/internal/fault"
	"prism/internal/filter"
	"prism/internal/graphx"
	"prism/internal/mem"
	"prism/internal/obs"
	"prism/internal/sched"
	"prism/internal/schema"
	"prism/internal/sqlgen"
	"prism/internal/value"

	// Register the bundled execution backends so Options.Executor can name
	// them ("mem" registers through the mem import above).
	_ "prism/internal/colexec"
)

// Policy selects the filter-scheduling policy.
type Policy string

const (
	// PolicyBayes is Prism's Bayesian-model-based scheduling (default).
	PolicyBayes Policy = "bayes"
	// PolicyPathLength is the Filter baseline (failure probability
	// proportional to join-path length).
	PolicyPathLength Policy = "pathlength"
	// PolicyRandom schedules filters in pseudo-random order.
	PolicyRandom Policy = "random"
	// PolicyOracle uses ground-truth outcomes; it is the optimum reference
	// and is only available when ComputeGroundTruth is set.
	PolicyOracle Policy = "oracle"
)

// Options tune a discovery round.
type Options struct {
	// MaxTables bounds the join-tree size of candidates (default 4).
	MaxTables int
	// MaxCandidates bounds candidate enumeration (default 5000).
	MaxCandidates int
	// TimeLimit bounds the validation phase; the paper's demo uses 60
	// seconds per round (the default here as well). Zero keeps the default;
	// use a negative value for "no limit".
	TimeLimit time.Duration
	// Now injects a clock for tests.
	Now func() time.Time
	// Policy selects the scheduling policy (default PolicyBayes).
	Policy Policy
	// IncludeResults executes each final mapping and attaches up to
	// ResultLimit result rows to the report.
	IncludeResults bool
	// ResultLimit caps attached result rows (default 20).
	ResultLimit int
	// MaxResults caps the number of final mappings returned (0 = all).
	MaxResults int
	// Parallelism is accepted and ignored: a round validates one filter at a
	// time, the paper's sequential greedy loop.
	//
	// Deprecated: ROADMAP item 0e removes it; the files under benchmark/
	// still set it.
	Parallelism int
	// Executor selects the execution backend for this round by registry
	// name ("columnar", "mem", ...). Empty selects the engine's default
	// (normally exec.DefaultName). The mapping set is identical for every
	// backend — executors differ only in how fast they answer.
	Executor string
	// Trace records a span tree for the round — one span per pipeline
	// phase (related → enumerate → decompose → schedule → assemble) with
	// per-validation child spans under the scheduler — and attaches
	// it as Report.Trace. Default off; untraced rounds carry a nil span
	// everywhere and pay nothing.
	Trace bool
}

func (o Options) withDefaults() Options {
	if o.MaxTables <= 0 {
		o.MaxTables = 4
	}
	if o.MaxCandidates <= 0 {
		o.MaxCandidates = 5000
	}
	if o.TimeLimit == 0 {
		o.TimeLimit = 60 * time.Second
	}
	if o.TimeLimit < 0 {
		o.TimeLimit = 0
	}
	if o.Policy == "" {
		o.Policy = PolicyBayes
	}
	if o.ResultLimit <= 0 {
		o.ResultLimit = 20
	}
	return o
}

// Mapping is one final schema mapping query.
type Mapping struct {
	// Candidate is the join tree plus projection that produced the mapping.
	Candidate graphx.Candidate
	// Plan is the executable Project-Join plan.
	Plan exec.Plan
	// SQL is the rendered SQL text shown to the user.
	SQL string
	// Result holds up to Options.ResultLimit result rows when
	// Options.IncludeResults is set, nil otherwise.
	Result *exec.Result
}

// Report is the outcome of one discovery round.
type Report struct {
	// Spec echoes the constraint specification of the round.
	Spec *constraint.Spec
	// Related lists, per target column, the related source columns found.
	Related [][]schema.ColumnRef
	// Mappings are the final schema mapping queries, simplest first.
	Mappings []Mapping

	// CandidatesEnumerated and FiltersGenerated describe the search space.
	CandidatesEnumerated int
	FiltersGenerated     int
	// Validations, Implied and Cost describe the validation work performed.
	// Cost counters are specific to the executor used (an indexed backend
	// scans fewer rows for the same outcome).
	Validations int
	Implied     int
	Cost        exec.ExecStats
	// Cache reports the session filter-outcome cache activity of the round.
	// It is zero for cache-less rounds (Engine.Discover outside a session).
	Cache CacheCounters
	// CandidatesConfirmed and CandidatesPruned count candidate resolutions;
	// CandidatesConfirmed can exceed len(Mappings) when MaxResults truncates
	// the report.
	CandidatesConfirmed int
	CandidatesPruned    int
	// Policy names the scheduling policy used.
	Policy string
	// Executor names the execution backend the round ran on.
	Executor string
	// TimedOut reports whether the round hit the time limit before
	// resolving every candidate (the paper reports this as a failure).
	TimedOut bool
	// Cancelled reports whether the round's context was cancelled before
	// resolving every candidate; the report then covers the work done up to
	// the cancellation.
	Cancelled bool
	// Elapsed is the wall-clock duration of the round.
	Elapsed time.Duration
	// Trace is the round's span tree when Options.Trace was set: phase
	// durations, validations with their ExecStats, cache activity and the
	// scratch peak as span attributes. Nil on untraced rounds.
	Trace *obs.Span
}

// CacheCounters summarises what a session's filter-outcome cache did for
// one round. Because filter outcomes are ground truths of the database, a
// hit stands for a validation (plus its share of the propagation) the round
// did not have to execute — Hits is the round's saved-validation count.
type CacheCounters struct {
	// Hits counts filter outcomes served from the cache, i.e. validations
	// skipped entirely.
	Hits int
	// Misses counts validations that executed because the cache had no
	// entry for them (equal to Report.Validations on session rounds).
	Misses int
	// Stores counts outcomes written back for future rounds.
	Stores int
}

// IsZero reports whether the round ran without any cache activity.
func (c CacheCounters) IsZero() bool { return c == CacheCounters{} }

// Failure returns a human-readable failure reason ("" when the round fully
// succeeded), mirroring the paper's behaviour of reporting a failure on
// timeout.
func (r *Report) Failure() string {
	if r.Cancelled {
		return "discovery was cancelled before resolving every candidate query"
	}
	if r.TimedOut {
		return "discovery timed out before resolving every candidate query"
	}
	return ""
}

// Engine runs discovery rounds over one source database. Creating an engine
// performs the preprocessing the paper assumes: column statistics, the
// per-column keyword sets, and the Bayesian models. Plan execution goes
// through a pluggable exec.Executor; backends are built lazily per engine,
// cached, and selected per round with Options.Executor.
type Engine struct {
	db    *mem.Database
	model *bayes.Model
	graph *graphx.Graph

	defaultExecutor string
	mu              sync.Mutex
	executors       map[string]*executorEntry
}

// executorEntry builds one named backend exactly once; concurrent rounds
// wait on the build without holding the engine mutex, so cache hits on
// already-built backends never stall behind another backend's build.
type executorEntry struct {
	once sync.Once
	ex   exec.Executor
	err  error
}

// NewEngine preprocesses the database and returns an engine whose default
// execution backend is exec.DefaultName (the columnar engine).
func NewEngine(db *mem.Database) *Engine {
	return NewEngineWithExecutor(db, "")
}

// NewEngineWithExecutor is NewEngine with an explicit default execution
// backend ("" selects exec.DefaultName). The backend is built lazily on
// first use; an unknown name surfaces as an error from the first round.
func NewEngineWithExecutor(db *mem.Database, executor string) *Engine {
	db.Analyze()
	return &Engine{
		db:              db,
		model:           bayes.Train(db),
		graph:           graphx.New(db.Schema()),
		defaultExecutor: executor,
		executors:       make(map[string]*executorEntry),
	}
}

// Database returns the underlying database.
func (e *Engine) Database() *mem.Database { return e.db }

// Executor returns the named execution backend over the engine's database,
// building and caching it on first use. The empty name selects the
// engine's default backend.
func (e *Engine) Executor(name string) (exec.Executor, error) {
	if name == "" {
		name = e.defaultExecutor
	}
	key := exec.CanonicalName(name)
	e.mu.Lock()
	entry, ok := e.executors[key]
	if !ok {
		entry = &executorEntry{}
		e.executors[key] = entry
	}
	e.mu.Unlock()
	entry.once.Do(func() { entry.ex, entry.err = exec.New(name, e.db) })
	return entry.ex, entry.err
}

// SampleRows returns up to limit rows of the named source table (limit <= 0
// returns all rows); demo surfaces use it for dataset previews. The fetch
// goes through the engine's default execution backend.
func (e *Engine) SampleRows(table string, limit int) ([]value.Tuple, error) {
	ex, err := e.Executor("")
	if err != nil {
		return nil, err
	}
	return ex.SampleRows(table, limit)
}

// Model returns the trained Bayesian model.
func (e *Engine) Model() *bayes.Model { return e.model }

// RelatedColumns finds, for every target column, the source columns that
// could be mapped to it: columns satisfying the column's metadata
// constraint whose contents make at least one value constraint feasible
// (checked against the per-column keyword sets and column statistics, §2.3
// step #1).
func (e *Engine) RelatedColumns(spec *constraint.Spec) ([][]schema.ColumnRef, error) {
	if spec == nil {
		return nil, fmt.Errorf("discovery: nil specification")
	}
	stats := e.db.AllStats()
	related := make([][]schema.ColumnRef, spec.NumColumns)
	for col := 0; col < spec.NumColumns; col++ {
		for _, st := range stats {
			ref := st.Ref
			has := func(kw string) bool { return e.db.ColumnHasKeyword(ref, kw) }
			if spec.ColumnFeasible(col, st, has) {
				related[col] = append(related[col], ref)
			}
		}
		if len(related[col]) == 0 {
			return related, fmt.Errorf("discovery: no source column matches the constraints of target column %d", col+1)
		}
	}
	return related, nil
}

// Discover runs one discovery round: it synthesizes every Project-Join
// schema mapping query satisfying the specification, within the options'
// search bounds and time budget. Cancelling ctx aborts the round
// mid-validation; the partial report accumulated so far is returned
// together with ctx.Err().
func (e *Engine) Discover(ctx context.Context, spec *constraint.Spec, opts Options) (*Report, error) {
	return e.run(ctx, spec, opts, nil, nil)
}

// streamBuffer sizes the event channel of DiscoverStream: deep enough that
// a briefly busy consumer drops nothing, small enough to bound memory.
const streamBuffer = 64

// DiscoverStream runs one discovery round incrementally: it returns a
// channel that yields phase events, validation progress, and every
// confirmed Mapping as soon as the scheduler resolves its candidate —
// before the round completes. The stream always ends with one EventDone
// carrying the final (or partial) Report and the round error, after which
// the channel is closed.
//
// Consumers should receive until the channel closes. Cancelling ctx stops
// the round promptly; the producing goroutine never leaks: once ctx is
// done, pending event sends are abandoned and the channel is closed. A
// consumer that keeps draining after cancelling still receives the final
// EventDone with the partial report in all but pathological cases (it is
// delivered without blocking whenever buffer space remains).
//
// Mappings are streamed in confirmation order, while the final report
// sorts them simplest-first — so when MaxResults truncates a round, the
// streamed subset and Report.Mappings may select different mappings.
// Consumers that care about the canonical result set should read it from
// the EventDone report.
func (e *Engine) DiscoverStream(ctx context.Context, spec *constraint.Spec, opts Options) <-chan Event {
	ch := make(chan Event, streamBuffer)
	go func() {
		defer close(ch)
		emit := func(ev Event) {
			select {
			case ch <- ev:
			case <-ctx.Done():
			}
		}
		report, err := e.run(ctx, spec, opts, emit, nil)
		done := Event{Kind: EventDone, Report: report, Err: err, Progress: report.progress()}
		select {
		case ch <- done:
		default:
			emit(done)
		}
	}()
	return ch
}

// progress summarises a report as a Progress snapshot (used for events
// emitted outside the scheduler, where no live Snapshot exists).
func (r *Report) progress() Progress {
	return Progress{
		CandidatesEnumerated: r.CandidatesEnumerated,
		FiltersGenerated:     r.FiltersGenerated,
		Validations:          r.Validations,
		Implied:              r.Implied,
		Confirmed:            r.CandidatesConfirmed,
		Pruned:               r.CandidatesPruned,
		Unresolved:           r.CandidatesEnumerated - r.CandidatesConfirmed - r.CandidatesPruned,
		Elapsed:              r.Elapsed,
	}
}

// errTimeBudget is the cancellation cause installed on the round context
// when Options.TimeLimit expires; it distinguishes budget exhaustion (a
// clean paper-style timeout) from caller cancellation.
var errTimeBudget = errors.New("discovery: time budget exhausted")

// run is the shared implementation of Discover, DiscoverStream and session
// rounds; emit is nil for the non-streaming path, sess is nil outside a
// session. It is the round-level panic barrier: a panic anywhere in the
// pipeline outside a validation (which the scheduler recovers itself; what
// else panics on its loop it re-raises here) aborts this round with an
// ErrInternal-wrapped error and a partial report, leaving the engine and
// other rounds untouched.
func (e *Engine) run(ctx context.Context, spec *constraint.Spec, opts Options, emit func(Event), sess *Session) (report *Report, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			metricRoundPanics.Inc()
			if report == nil {
				report = &Report{Spec: spec, Policy: string(opts.Policy)}
			}
			err = fmt.Errorf("discovery: round panic: %v: %w", rec, fault.ErrInternal)
		}
	}()
	if ferr := faultRound.Hit(); ferr != nil {
		return &Report{Spec: spec, Policy: string(opts.Policy)}, fmt.Errorf("discovery: %w", ferr)
	}
	return e.roundBody(ctx, spec, opts, emit, sess)
}

// roundBody is the round pipeline proper. On panic its defers still run
// (the trace is closed and the partial report is folded into metrics)
// before run's recover converts the panic to an error.
func (e *Engine) roundBody(ctx context.Context, spec *constraint.Spec, opts Options, emit func(Event), sess *Session) (*Report, error) {
	opts = opts.withDefaults()
	report := &Report{Spec: spec, Policy: string(opts.Policy)}
	start := time.Now()
	// The round trace is opt-in: every span below hangs off this root,
	// and with Trace unset the nil root makes each Child/SetAttr/End a
	// no-op, so untraced rounds pay nothing.
	var trace *obs.Span
	if opts.Trace {
		trace = obs.NewSpan("round")
		trace.SetAttr("policy", string(opts.Policy))
		report.Trace = trace
	}
	defer func() {
		report.Elapsed = time.Since(start)
		if trace != nil {
			trace.SetAttr("validations", report.Validations)
			trace.SetAttr("rowsScanned", report.Cost.RowsScanned)
			trace.SetAttr("selectionsReused", report.Cost.SelectionsReused)
			trace.SetAttr("scratchBytes", report.Cost.ScratchBytes)
			if report.TimedOut {
				trace.SetAttr("timedOut", true)
			}
			if report.Cancelled {
				trace.SetAttr("cancelled", true)
			}
			trace.End()
		}
		recordRound(report)
	}()

	executor, err := e.Executor(opts.Executor)
	if err != nil {
		return report, fmt.Errorf("discovery: %w", err)
	}
	report.Executor = executor.ExecutorName()
	trace.SetAttr("executor", report.Executor)

	// The time budget bounds the whole round — including candidate
	// enumeration and filter decomposition, not just the validation loop —
	// via a context deadline. Skipped when a test clock is injected, since
	// a synthetic clock cannot drive a real deadline.
	if opts.TimeLimit > 0 && opts.Now == nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadlineCause(ctx, start.Add(opts.TimeLimit), errTimeBudget)
		defer cancel()
	}
	// interrupted classifies a dead round context: budget exhaustion ends
	// the round cleanly as a timeout (nil error, partial report); anything
	// else is caller cancellation and surfaces ctx's error.
	interrupted := func() (error, bool) {
		if ctx.Err() == nil {
			return nil, false
		}
		if errors.Is(context.Cause(ctx), errTimeBudget) {
			report.TimedOut = true
			return nil, true
		}
		report.Cancelled = true
		return ctx.Err(), true
	}

	if err2, dead := interrupted(); dead {
		return report, err2
	}
	spRelated := trace.Child("related")
	related, err := e.RelatedColumns(spec)
	spRelated.End()
	report.Related = related
	if err != nil {
		return report, err
	}
	if emit != nil {
		emit(Event{Kind: EventRelated, Related: related})
	}

	spEnum := trace.Child("enumerate")
	candidates, err := graphx.Enumerate(e.graph, related, graphx.EnumerateOptions{
		MaxTables:           opts.MaxTables,
		MaxCandidates:       opts.MaxCandidates,
		RequireUsefulLeaves: true,
	})
	spEnum.SetAttr("candidates", len(candidates))
	spEnum.End()
	if err != nil {
		return report, fmt.Errorf("discovery: %w", err)
	}
	report.CandidatesEnumerated = len(candidates)
	if len(candidates) == 0 {
		return report, fmt.Errorf("discovery: no candidate schema mapping queries connect the related columns")
	}
	if emit != nil {
		emit(Event{Kind: EventCandidates, Progress: Progress{
			CandidatesEnumerated: len(candidates),
			Unresolved:           len(candidates),
		}})
	}

	// Sessions also reuse the filter decomposition across rounds: the Set
	// depends only on the candidate list (which refinement deltas usually
	// leave unchanged) and is read-only during scheduling, and its filters
	// carry what rounds memoise on them (plan and plan fingerprint).
	spDecompose := trace.Child("decompose")
	var set *filter.Set
	if sess != nil {
		set = sess.lookupSet(candidates)
	}
	if set == nil {
		set, err = filter.DecomposeContext(ctx, candidates)
		if err != nil {
			spDecompose.End()
			err, _ := interrupted()
			return report, err
		}
		if sess != nil {
			sess.storeSet(candidates, set)
		}
	} else {
		spDecompose.SetAttr("cachedSet", true)
	}
	spDecompose.SetAttr("filters", set.NumFilters())
	spDecompose.End()
	report.FiltersGenerated = set.NumFilters()
	if emit != nil {
		emit(Event{Kind: EventFilters, Progress: Progress{
			CandidatesEnumerated: len(candidates),
			FiltersGenerated:     set.NumFilters(),
			Unresolved:           len(candidates),
		}})
	}

	spEstimator := trace.Child("estimator")
	estimator, err := e.estimator(ctx, opts, executor, spec, set)
	spEstimator.End()
	if err != nil {
		if err2, dead := interrupted(); dead {
			return report, err2
		}
		return report, err
	}

	// Mappings are assembled lazily and cached so the streaming path and the
	// final report share one execution of each confirmed candidate. Once the
	// round context is dead, result previews are no longer executed — the
	// partial report keeps every confirmed mapping's SQL (plus any previews
	// already built), and cancellation latency stays bounded by the
	// in-flight work, not by MaxResults preview queries.
	built := make(map[int]*Mapping)
	var buildErr error
	buildMapping := func(ci int) *Mapping {
		if m, ok := built[ci]; ok {
			return m
		}
		cand := set.Candidates[ci]
		plan := cand.Plan()
		plan.Distinct = true
		m := &Mapping{Candidate: cand, Plan: plan, SQL: sqlgen.Generate(plan)}
		if opts.IncludeResults && ctx.Err() == nil {
			result, err := executor.ExecuteWith(plan, exec.ExecOptions{Limit: opts.ResultLimit})
			if err != nil {
				if buildErr == nil {
					buildErr = fmt.Errorf("discovery: executing final mapping %s: %w", m.SQL, err)
				}
				return nil
			}
			m.Result = result
		}
		built[ci] = m
		return m
	}

	progressOf := func(s sched.Snapshot) Progress {
		return Progress{
			CandidatesEnumerated: len(candidates),
			FiltersGenerated:     set.NumFilters(),
			Validations:          s.Validations,
			Implied:              s.Implied,
			Confirmed:            s.Confirmed,
			Pruned:               s.Pruned,
			Unresolved:           s.Unresolved,
			Elapsed:              s.Elapsed,
			TimeRemaining:        s.Remaining,
		}
	}
	schedOpts := sched.Options{
		TimeLimit: opts.TimeLimit,
		Now:       opts.Now,
	}
	if sess != nil {
		// Keys bind each filter to the round's constraints and the current
		// data version, so a refined round reuses exactly the outcomes its
		// delta left intact and a data mutation invalidates everything.
		version := e.db.Version()
		schedOpts.Cache = sess.cache
		schedOpts.CacheKey = func(i int) string {
			return filter.ValidationKey(set.Filters[i], spec, version)
		}
	}
	if emit != nil {
		streamed := 0
		schedOpts.OnResolved = func(ci int, confirmed bool, s sched.Snapshot) {
			if !confirmed || buildErr != nil {
				return
			}
			if opts.MaxResults > 0 && streamed >= opts.MaxResults {
				return
			}
			m := buildMapping(ci)
			if m == nil {
				return
			}
			streamed++
			emit(Event{Kind: EventMapping, Mapping: m, Progress: progressOf(s)})
		}
		schedOpts.OnProgress = func(s sched.Snapshot) {
			emit(Event{Kind: EventProgress, Progress: progressOf(s)})
		}
	}
	runner := &sched.Runner{
		DB:        executor,
		Spec:      spec,
		Set:       set,
		Estimator: estimator,
		Options:   schedOpts,
	}
	// The schedule span rides the context so the scheduler can hang one
	// child span per validation under it.
	spSchedule := trace.Child("schedule")
	res, err := runner.RunContext(obs.ContextWithSpan(ctx, spSchedule))
	if be, ok := estimator.(*sched.BayesEstimator); ok {
		// The scheduler's estimate span counts the calls; what the calls
		// shared is the Bayes estimator's to report.
		cellSets, memoHits := be.MemoStats()
		spEstimate := spSchedule.Find("estimate")
		spEstimate.SetAttr("cell_sets", cellSets)
		spEstimate.SetAttr("memo_hits", memoHits)
	}
	spSchedule.SetAttr("validations", res.Validations)
	spSchedule.SetAttr("implied", res.Implied)
	spSchedule.SetAttr("confirmed", len(res.Confirmed))
	spSchedule.SetAttr("pruned", len(res.Pruned))
	if res.CacheHits+res.CacheMisses+res.CacheStores > 0 {
		spSchedule.SetAttr("cacheHits", res.CacheHits)
		spSchedule.SetAttr("cacheMisses", res.CacheMisses)
		spSchedule.SetAttr("cacheStores", res.CacheStores)
	}
	spSchedule.SetAttr("rowsScanned", res.Cost.RowsScanned)
	spSchedule.SetAttr("selectionsReused", res.Cost.SelectionsReused)
	spSchedule.SetAttr("blocksPruned", res.Cost.BlocksPruned)
	spSchedule.SetAttr("zonesPruned", res.Cost.ZonesPruned)
	spSchedule.SetAttr("scratchBytes", res.Cost.ScratchBytes)
	spSchedule.End()
	report.Validations = res.Validations
	report.Implied = res.Implied
	report.Cost = res.Cost
	report.Cache = CacheCounters{Hits: res.CacheHits, Misses: res.CacheMisses, Stores: res.CacheStores}
	report.CandidatesConfirmed = len(res.Confirmed)
	report.CandidatesPruned = len(res.Pruned)
	report.TimedOut = report.TimedOut || res.TimedOut
	if err != nil {
		if res.Cancelled {
			// Classify: our own budget deadline ends the round as a clean
			// timeout; caller cancellation surfaces ctx's error.
			err, _ = interrupted()
		} else {
			err = fmt.Errorf("discovery: %w", err)
		}
	}

	// Assemble final mappings, simplest (fewest tables) first — also after
	// cancellation or timeout, so interrupted rounds report partial results.
	spAssemble := trace.Child("assemble")
	defer func() {
		spAssemble.SetAttr("mappings", len(report.Mappings))
		spAssemble.End()
	}()
	confirmed := append([]int(nil), res.Confirmed...)
	slices.SortFunc(confirmed, func(i, j int) int {
		a, b := set.Candidates[i], set.Candidates[j]
		if c := a.Tree.Size() - b.Tree.Size(); c != 0 {
			return c
		}
		return strings.Compare(a.Canonical(), b.Canonical())
	})
	for _, ci := range confirmed {
		if opts.MaxResults > 0 && len(report.Mappings) >= opts.MaxResults {
			break
		}
		m := buildMapping(ci)
		if m == nil {
			break
		}
		report.Mappings = append(report.Mappings, *m)
	}
	if err != nil {
		return report, err
	}
	if buildErr != nil {
		return report, buildErr
	}
	return report, nil
}

// estimator builds the scheduling estimator named by the options.
func (e *Engine) estimator(ctx context.Context, opts Options, executor exec.Executor, spec *constraint.Spec, set *filter.Set) (sched.Estimator, error) {
	switch opts.Policy {
	case PolicyBayes:
		return &sched.BayesEstimator{Model: e.model, Spec: spec}, nil
	case PolicyPathLength:
		return &sched.PathLengthEstimator{}, nil
	case PolicyRandom:
		return &sched.RandomEstimator{}, nil
	case PolicyOracle:
		truth, err := sched.GroundTruthContext(ctx, executor, spec, set)
		if err != nil {
			return nil, fmt.Errorf("discovery: computing oracle ground truth: %w", err)
		}
		return sched.NewOracle(set, truth), nil
	default:
		return nil, fmt.Errorf("discovery: unknown scheduling policy %q", opts.Policy)
	}
}

// Summary renders a short human-readable description of the report.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy=%s", r.Policy)
	if r.Executor != "" {
		fmt.Fprintf(&b, " executor=%s", r.Executor)
	}
	fmt.Fprintf(&b, " candidates=%d filters=%d validations=%d (+%d implied) mappings=%d elapsed=%s",
		r.CandidatesEnumerated, r.FiltersGenerated, r.Validations, r.Implied, len(r.Mappings), r.Elapsed.Round(time.Millisecond))
	if !r.Cache.IsZero() {
		fmt.Fprintf(&b, " cache=%d/%d hits (validations saved)", r.Cache.Hits, r.Cache.Hits+r.Cache.Misses)
	}
	if r.Cancelled {
		b.WriteString(" CANCELLED")
	} else if r.TimedOut {
		b.WriteString(" TIMED OUT")
	}
	return b.String()
}
