// Package discovery wires the whole Prism pipeline together (Figure 2):
// related-column search over the preprocessed column metadata and the
// per-column key dictionaries (which columns hold a keyword — the part of
// the paper's inverted index this step needs; the same dictionaries say
// which rows, for the columnar executor), candidate generation over the
// schema graph, filter decomposition,
// scheduled filter validation under a time budget, and assembly of the
// final schema mapping queries with their SQL text.
package discovery

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"prism/api"
	"prism/internal/bayes"
	"prism/internal/colexec"
	"prism/internal/constraint"
	"prism/internal/exec"
	"prism/internal/filter"
	"prism/internal/graphx"
	"prism/internal/mem"
	"prism/internal/obs"
	"prism/internal/sched"
	"prism/internal/schema"
	"prism/internal/sentinel"
	"prism/internal/sqlgen"
	"prism/internal/value"
)

// Options tune a discovery round.
type Options struct {
	// MaxTables bounds the join-tree size of candidates (default 4).
	MaxTables int
	// MaxCandidates bounds candidate enumeration (default 5000).
	MaxCandidates int
	// TimeLimit bounds the whole round, from related-column search to
	// assembly, as one deadline counted from the round's start; the paper's
	// demo uses 60 seconds per round (the default here as well). A round that
	// exhausts it ends with Report.TimedOut, the partial report and a nil
	// error. Zero keeps the default; use a negative value for "no limit".
	TimeLimit time.Duration
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
	// Executor is "" or "columnar" for the engine's executor and "mem" for
	// the reference engine over the engine's database; any other name fails
	// the round with exec.ErrUnknownExecutor.
	//
	// Deprecated: ROADMAP item 0e removes it; the files under benchmark/
	// still set it. Reach the reference engine with NewEngineOn(db, db).
	Executor string
	// estimator, when set, builds the round's scheduling estimator in place
	// of the Bayes model; tests sweep the paper's E3 baselines through it.
	estimator func(ctx context.Context, ex exec.Executor, spec *constraint.Spec, set *filter.Set) (sched.Estimator, error)
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
	if o.ResultLimit <= 0 {
		o.ResultLimit = 20
	}
	return o
}

// Mapping is one final schema mapping query.
type Mapping struct {
	// Candidate is the join tree plus projection that produced the mapping.
	Candidate graphx.Candidate
	// Plan is the executable Project-Join plan. Its Tables and Joins are
	// shared with the other mappings of the round over the same join tree,
	// and its Project is the candidate's Projection: treat them as
	// read-only.
	Plan exec.Plan
	// SQL is the rendered SQL text shown to the user.
	SQL string
	// Result holds up to Options.ResultLimit result rows when
	// Options.IncludeResults is set, nil otherwise.
	Result *exec.Result
}

// Event is one element of a DiscoverStream: a phase marker, a progress
// update, an incrementally delivered mapping, or the final report.
type Event struct {
	Kind api.EventKind
	// Related is set on api.EventRelated.
	Related [][]schema.ColumnRef
	// Progress is populated on every event kind once known.
	Progress api.Progress
	// Mapping is set on api.EventMapping.
	Mapping *Mapping
	// Report and Err are set on api.EventDone. After cancellation or timeout
	// Report is the partial report and Err the terminating error.
	Report *Report
	Err    error
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
	// the report or the round was interrupted before it assembled them.
	CandidatesConfirmed int
	CandidatesPruned    int
	// TimedOut reports whether the round hit the time limit before
	// resolving every candidate and assembling every confirmed mapping (the
	// paper reports this as a failure).
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

	// What progress measures against; deadline is zero when there is none.
	start, deadline time.Time
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
// performs the preprocessing the paper assumes: the per-column key
// dictionaries, column statistics, and the Bayesian models. Every plan
// execution goes through the engine's one exec.Executor.
type Engine struct {
	db    *mem.Database
	model *bayes.Model
	graph *graphx.Graph

	// exOnce builds the columnar executor on first use, unless the engine
	// was handed one (NewEngineOn); ex and exErr are what it left.
	exOnce sync.Once
	ex     exec.Executor
	exErr  error
}

// NewEngine preprocesses the database and returns an engine over it. Its
// executor is the columnar engine, built on the first round.
func NewEngine(db *mem.Database) *Engine {
	db.Analyze()
	return &Engine{db: db, model: bayes.Train(db), graph: graphx.New(db.Schema())}
}

// NewEngineOn is NewEngine with the executor given as a value: the reference
// engine (NewEngineOn(db, db)) in the equivalence tests, or a wrapped
// executor in tests that hook its probes.
func NewEngineOn(db *mem.Database, ex exec.Executor) *Engine {
	e := NewEngine(db)
	e.exOnce.Do(func() { e.ex = ex })
	return e
}

// Database returns the underlying database.
func (e *Engine) Database() *mem.Database { return e.db }

// Executor returns the engine's executor, building the columnar engine over
// the database on first use.
func (e *Engine) Executor() (exec.Executor, error) {
	e.exOnce.Do(func() { e.ex, e.exErr = colexec.New(e.db) })
	return e.ex, e.exErr
}

// executorFor answers the deprecated Options.Executor with the engine's own
// two engines.
func (e *Engine) executorFor(name string) (exec.Executor, error) {
	switch name {
	case "", exec.DefaultName:
		return e.Executor()
	case "mem":
		return e.db, nil
	}
	return nil, fmt.Errorf("%w %q", exec.ErrUnknownExecutor, name)
}

// SampleRows returns up to limit rows of the named source table (limit <= 0
// returns all rows); demo surfaces use it for dataset previews. The fetch
// goes through the engine's executor.
func (e *Engine) SampleRows(table string, limit int) ([]value.Tuple, error) {
	ex, err := e.Executor()
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
// (checked against the key dictionaries and column statistics, §2.3
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
// before the round completes. The stream always ends with one api.EventDone
// carrying the final (or partial) Report and the round error, after which
// the channel is closed.
//
// Consumers should receive until the channel closes. Cancelling ctx stops
// the round promptly; the producing goroutine never leaks: once ctx is
// done, pending event sends are abandoned and the channel is closed. A
// consumer that keeps draining after cancelling still receives the final
// api.EventDone with the partial report in all but pathological cases (it is
// delivered without blocking whenever buffer space remains).
//
// Mappings are streamed in confirmation order, while the final report
// sorts them simplest-first — so when MaxResults truncates a round, the
// streamed subset and Report.Mappings may select different mappings.
// Consumers that care about the canonical result set should read it from
// the api.EventDone report.
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
		done := Event{Kind: api.EventDone, Report: report, Err: err, Progress: report.progress()}
		select {
		case ch <- done:
		default:
			emit(done)
		}
	}()
	return ch
}

// progress is the one place a Progress is built, for every event of a round,
// EventDone included: the report's counters as they stand, the time since the
// round started and the time left to its deadline.
func (r *Report) progress() api.Progress {
	p := api.Progress{
		CandidatesEnumerated: r.CandidatesEnumerated,
		FiltersGenerated:     r.FiltersGenerated,
		Validations:          r.Validations,
		Implied:              r.Implied,
		Confirmed:            r.CandidatesConfirmed,
		Pruned:               r.CandidatesPruned,
		Unresolved:           r.CandidatesEnumerated - r.CandidatesConfirmed - r.CandidatesPruned,
		Elapsed:              time.Since(r.start),
	}
	if !r.deadline.IsZero() {
		p.TimeRemaining = max(0, time.Until(r.deadline))
	}
	return p
}

// round is the state of one discovery round: what the caller handed in, the
// report being filled, and what each stage leaves for the next.
type round struct {
	eng  *Engine
	ctx  context.Context // the caller's, under the round's time budget
	spec *constraint.Spec
	opts Options     // defaulted
	emit func(Event) // nil outside a stream
	sess *Session    // nil outside a session

	report *Report
	// trace is the root of the opt-in round trace: every stage span hangs
	// off it, and with Options.Trace unset the nil root makes each
	// Child/SetAttr/End a no-op, so untraced rounds pay nothing.
	trace *obs.Span

	executor   exec.Executor
	candidates []graphx.Candidate // enumerate
	set        *filter.Set        // decompose
	estimator  sched.Estimator    // estimate
	res        *sched.Result      // schedule; nil until the scheduler has run
	// streamed holds the mappings a stream delivered, by candidate, so the
	// final report shares their one execution; buildErr is the first
	// preview that failed.
	streamed map[int]*Mapping
	buildErr error
	// joins holds what assembly renders once per join tree, by the tree id
	// decomposition gave it (filter.Set.TreeID).
	joins map[int32]*joinText
}

// joinText is the part of a mapping that depends only on its join tree: the
// plan's tables and joins, which every mapping over the tree shares, and
// their rendered FROM and WHERE clauses.
type joinText struct {
	tree graphx.Tree
	plan exec.Plan // Tables and Joins only
	from string
}

// run is the shared implementation of Discover, DiscoverStream and session
// rounds; emit is nil for the non-streaming path, sess is nil outside a
// session. It drives the stages (Figure 2) under the round's one time budget
// and owns the only exit: a stage returns its own error, and what a dead
// context means is decided once, by settle. It is also the round-level panic
// barrier: a panic anywhere in the pipeline outside a validation (which the
// scheduler recovers itself; what else panics on its loop it re-raises here)
// aborts this round with an ErrInternal-wrapped error and a partial report —
// finish has closed the trace and folded it into metrics by then — leaving
// the engine and other rounds untouched.
func (e *Engine) run(ctx context.Context, spec *constraint.Spec, opts Options, emit func(Event), sess *Session) (report *Report, err error) {
	opts = opts.withDefaults()
	report = &Report{Spec: spec, start: time.Now()}
	defer func() {
		if rec := recover(); rec != nil {
			metricRoundPanics.Inc()
			err = fmt.Errorf("discovery: round panic: %v: %w", rec, sentinel.ErrInternal)
		}
	}()
	if ferr := faultRound.Hit(); ferr != nil {
		return report, fmt.Errorf("discovery: %w", ferr)
	}
	// The time budget bounds the whole round — enumeration, decomposition and
	// the estimator as much as the validation loop — as one context deadline
	// counted from the round's start; the scheduler runs under it and issues
	// none of its own.
	ctx, cancel := sched.WithBudget(ctx, report.start, opts.TimeLimit)
	defer cancel()
	report.deadline, _ = ctx.Deadline()
	r := &round{eng: e, ctx: ctx, spec: spec, opts: opts, emit: emit, sess: sess, report: report, joins: make(map[int32]*joinText)}
	if opts.Trace {
		r.trace = obs.NewSpan("round")
		report.Trace = r.trace
	}
	defer r.finish()

	if r.executor, err = e.executorFor(opts.Executor); err != nil {
		return report, fmt.Errorf("discovery: %w", err)
	}

	stages := []func() error{r.relate, r.enumerate, r.decompose, r.estimate, r.schedule}
	stop, err := r.settle(nil) // a round handed a dead context runs no stage
	for i := 0; !stop && i < len(stages); i++ {
		stop, err = r.settle(stages[i]())
	}
	// Whatever stopped the round, what the scheduler confirmed is assembled:
	// interrupted rounds report partial results. The budget bounds assembly
	// too, so a context that dies during it interrupts the round as well.
	if r.res != nil {
		aerr := r.assemble()
		_, ierr := r.settle(nil)
		err = cmp.Or(err, ierr, aerr)
	}
	return report, err
}

// settle decides, after each stage, whether the round goes on. A dead
// context outranks what the stage returned — it is what the stage tripped
// over: an expired budget is a clean paper-style timeout (nil error, partial
// report), anything else the caller's cancellation and surfaces ctx's error.
// Under a live context a stage's error is the round's.
func (r *round) settle(stageErr error) (stop bool, err error) {
	r.report.TimedOut, r.report.Cancelled, err = sched.Interruption(r.ctx)
	if r.report.TimedOut || r.report.Cancelled {
		return true, err
	}
	return stageErr != nil, stageErr
}

// finish closes the round: duration, the root span's totals, metrics.
func (r *round) finish() {
	report := r.report
	report.Elapsed = time.Since(report.start)
	if r.trace != nil {
		r.trace.SetAttr("validations", report.Validations)
		sched.SetCostAttrs(r.trace, report.Cost)
		if report.TimedOut {
			r.trace.SetAttr("timedOut", true)
		}
		if report.Cancelled {
			r.trace.SetAttr("cancelled", true)
		}
		r.trace.End()
	}
	recordRound(report)
}

// send delivers one stream event stamped with the round's progress so far.
func (r *round) send(ev Event) {
	if r.emit != nil {
		ev.Progress = r.report.progress()
		r.emit(ev)
	}
}

// relate finds every target column's related source columns (§2.3 step #1).
func (r *round) relate() error {
	sp := r.trace.Child("related")
	related, err := r.eng.RelatedColumns(r.spec)
	sp.End()
	r.report.Related = related
	if err != nil {
		return err
	}
	r.send(Event{Kind: api.EventRelated, Related: related})
	return nil
}

// enumerate builds the candidate queries connecting the related columns.
func (r *round) enumerate() error {
	sp := r.trace.Child("enumerate")
	candidates, err := graphx.EnumerateContext(r.ctx, r.eng.graph, r.report.Related, graphx.EnumerateOptions{
		MaxTables:           r.opts.MaxTables,
		MaxCandidates:       r.opts.MaxCandidates,
		RequireUsefulLeaves: true,
	})
	sp.SetAttr("candidates", len(candidates))
	sp.End()
	if err != nil {
		return fmt.Errorf("discovery: %w", err)
	}
	r.candidates = candidates
	r.report.CandidatesEnumerated = len(candidates)
	if len(candidates) == 0 {
		return fmt.Errorf("discovery: no candidate schema mapping queries connect the related columns")
	}
	r.send(Event{Kind: api.EventCandidates})
	return nil
}

// decompose splits the candidates into filters under the round's spec.
// Sessions reuse the decomposition across rounds: the Set depends only on
// the candidate list and on which target columns the spec constrains (which
// refinement deltas usually leave unchanged), is read-only during
// scheduling, and its filters carry what rounds memoise on them (plan and
// tree signature).
func (r *round) decompose() error {
	sp := r.trace.Child("decompose")
	var key string
	if r.sess != nil {
		key = setKey(r.spec, r.candidates)
		r.set = r.sess.lookupSet(key)
		sp.SetAttr("cachedSet", r.set != nil)
	}
	if r.set == nil {
		set, err := filter.DecomposeFor(r.ctx, r.spec, r.candidates)
		if err != nil {
			sp.End()
			return fmt.Errorf("discovery: %w", err)
		}
		r.set = set
		if r.sess != nil {
			r.sess.storeSet(key, set)
		}
	}
	sp.SetAttr("filters", r.set.NumFilters())
	sp.End()
	r.report.FiltersGenerated = r.set.NumFilters()
	r.send(Event{Kind: api.EventFilters})
	return nil
}

// estimate builds the scheduling estimator: the paper's Bayes model, unless
// a test sets Options.estimator.
func (r *round) estimate() error {
	sp := r.trace.Child("estimator")
	defer sp.End()
	if r.opts.estimator == nil {
		r.estimator = &sched.BayesEstimator{Model: r.eng.model, Spec: r.spec}
		return nil
	}
	est, err := r.opts.estimator(r.ctx, r.executor, r.spec, r.set)
	if err != nil {
		return fmt.Errorf("discovery: building the estimator: %w", err)
	}
	r.estimator = est
	return nil
}

// schedule runs the validation loop and folds its result into the report.
func (r *round) schedule() error {
	runner := &sched.Runner{DB: r.executor, Spec: r.spec, Set: r.set, Estimator: r.estimator, Options: r.schedOptions()}
	// The schedule span rides the context so the scheduler can hang one
	// child span per validation under it.
	sp := r.trace.Child("schedule")
	res, err := runner.RunContext(obs.ContextWithSpan(r.ctx, sp))
	r.res = &res
	sp.SetAttr("validations", res.Validations)
	sp.SetAttr("implied", res.Implied)
	sp.SetAttr("confirmed", len(res.Confirmed))
	sp.SetAttr("pruned", len(res.Pruned))
	if res.CacheHits+res.CacheMisses+res.CacheStores > 0 {
		sp.SetAttr("cacheHits", res.CacheHits)
		sp.SetAttr("cacheMisses", res.CacheMisses)
		sp.SetAttr("cacheStores", res.CacheStores)
	}
	sched.SetCostAttrs(sp, res.Cost)
	sp.End()

	report := r.report
	report.Validations = res.Validations
	report.Implied = res.Implied
	report.Cost = res.Cost
	report.Cache = CacheCounters{Hits: res.CacheHits, Misses: res.CacheMisses, Stores: res.CacheStores}
	report.CandidatesConfirmed = len(res.Confirmed)
	report.CandidatesPruned = len(res.Pruned)
	if err != nil {
		return fmt.Errorf("discovery: %w", err)
	}
	return nil
}

// schedOptions wires the scheduler to the session's outcome cache and to the
// stream. It sets no time limit: the loop runs under the round's budget.
func (r *round) schedOptions() sched.Options {
	var o sched.Options
	if r.sess != nil {
		// Keys bind each filter to the round's constraints and the current
		// data version, so a refined round reuses exactly the outcomes its
		// delta left intact and a data mutation invalidates everything.
		version := r.eng.db.Version()
		o.Cache = r.sess.cache
		o.CacheKey = func(i int) string {
			return filter.ValidationKey(r.set.Filters[i], r.spec, version)
		}
	}
	if r.emit == nil {
		return o
	}
	// Events read their progress off the report, so its counters are brought
	// up to the snapshot first; the scheduler's result ends on the same numbers.
	stream := func(ev Event, s sched.Snapshot) {
		r.report.Validations, r.report.Implied = s.Validations, s.Implied
		r.report.CandidatesConfirmed, r.report.CandidatesPruned = s.Confirmed, s.Pruned
		r.send(ev)
	}
	r.streamed = make(map[int]*Mapping)
	o.OnResolved = func(ci int, confirmed bool, s sched.Snapshot) {
		if !confirmed || r.buildErr != nil || (r.opts.MaxResults > 0 && len(r.streamed) >= r.opts.MaxResults) {
			return
		}
		if m, ok := r.mapping(ci); ok {
			r.streamed[ci] = &m
			stream(Event{Kind: api.EventMapping, Mapping: &m}, s)
		}
	}
	o.OnProgress = func(s sched.Snapshot) { stream(Event{Kind: api.EventProgress}, s) }
	return o
}

// mapping assembles the mapping of one confirmed candidate, or reports
// false when its result preview failed (r.buildErr holds why). Once the
// round context is dead, result previews are no longer executed, so
// cancellation latency stays bounded by the in-flight work, not by
// MaxResults preview queries.
func (r *round) mapping(ci int) (Mapping, bool) {
	cand := r.set.Candidates[ci]
	join := r.join(ci)
	plan := join.plan
	plan.Project, plan.Distinct = cand.Projection, true
	m := Mapping{Candidate: cand, Plan: plan, SQL: sqlgen.GenerateFrom(plan, join.from)}
	if r.opts.IncludeResults && r.ctx.Err() == nil {
		result, err := r.executor.ExecuteWith(plan, exec.ExecOptions{Limit: r.opts.ResultLimit})
		if err != nil {
			if r.buildErr == nil {
				r.buildErr = fmt.Errorf("discovery: executing final mapping %s: %w", m.SQL, err)
			}
			return Mapping{}, false
		}
		m.Result = result
	}
	return m, true
}

// join returns the join text of candidate ci's tree, rendered on the first
// mapping over the tree. Candidates of one tree id share one tree as
// enumerated; a literal tree with the same signature in another order or
// spelling renders its own, uncached.
func (r *round) join(ci int) *joinText {
	tree, id := r.set.Candidates[ci].Tree, r.set.TreeID(ci)
	j, cached := r.joins[id]
	if cached && slices.Equal(j.tree.Tables, tree.Tables) && slices.Equal(j.tree.Edges, tree.Edges) {
		return j
	}
	joins := make([]exec.JoinEdge, len(tree.Edges))
	for i, e := range tree.Edges {
		joins[i] = exec.JoinEdge{Left: e.From, Right: e.To}
	}
	j = &joinText{tree: tree, plan: exec.Plan{Tables: tree.Tables, Joins: joins}}
	j.from = sqlgen.FromWhere(j.plan)
	if !cached && id >= 0 {
		r.joins[id] = j
	}
	return j
}

// assemble lists the confirmed mappings, simplest (fewest tables) first,
// then by Canonical. Once the round context is dead it builds no further
// mapping: the partial report keeps the mappings built before (the streamed
// ones), and rendering the SQL of thousands of confirmed candidates does not
// outlast the budget.
func (r *round) assemble() error {
	sp := r.trace.Child("assemble")
	confirmed := r.res.Confirmed // the round's own; sorted in place
	sortSimplestFirst(r.set, confirmed)
	n := len(confirmed)
	if r.opts.MaxResults > 0 {
		n = min(n, r.opts.MaxResults)
	}
	r.report.Mappings = slices.Grow(r.report.Mappings, n)
	for _, ci := range confirmed {
		if r.opts.MaxResults > 0 && len(r.report.Mappings) >= r.opts.MaxResults {
			break
		}
		if m, ok := r.streamed[ci]; ok {
			r.report.Mappings = append(r.report.Mappings, *m)
			continue
		}
		if r.ctx.Err() != nil {
			continue
		}
		m, ok := r.mapping(ci)
		if !ok {
			break
		}
		r.report.Mappings = append(r.report.Mappings, m)
	}
	sp.SetAttr("mappings", len(r.report.Mappings))
	sp.End()
	return r.buildErr
}

// sortSimplestFirst orders candidates of set, by index, simplest (fewest
// tables) first, then by Canonical, without comparing whole Canonicals.
// Candidates of one tree id begin their Canonical with the same tree text,
// so two of them compare by what follows it alone (ProjectionSignature).
// Two of different trees TA and TB compare as TA+"#" and TB+"#" do, since
// a ProjectionSignature begins with '#': the first byte where those two
// differ decides the whole comparison, unless one is a prefix of the
// other, and for different texts that needs the longer one to hold '#'.
// So each tree id is ranked once by (size, text+"#"), and candidates of
// different trees compare by rank. Where a tree text holds '#', a tree id
// is -1 or a candidate projects nothing, the Canonicals are compared.
func sortSimplestFirst(set *filter.Set, confirmed []int) {
	if rank := treeRanks(set, confirmed); rank != nil {
		slices.SortFunc(confirmed, func(i, j int) int {
			if c := int(rank[set.TreeID(i)] - rank[set.TreeID(j)]); c != 0 {
				return c
			}
			return strings.Compare(set.Candidates[i].ProjectionSignature(), set.Candidates[j].ProjectionSignature())
		})
		return
	}
	slices.SortFunc(confirmed, func(i, j int) int {
		a, b := &set.Candidates[i], &set.Candidates[j]
		if c := a.Tree.Size() - b.Tree.Size(); c != 0 {
			return c
		}
		if id := set.TreeID(i); id >= 0 && id == set.TreeID(j) {
			return strings.Compare(a.ProjectionSignature(), b.ProjectionSignature())
		}
		return strings.Compare(a.Canonical(), b.Canonical())
	})
}

// treeRanks returns, by tree id, the rank of each tree of the candidates by
// (size, text+"#"), or nil when sortSimplestFirst cannot compare by rank.
func treeRanks(set *filter.Set, candidates []int) []int32 {
	type tree struct {
		id   int32
		size int
		text string // the tree's text and the '#' after it
	}
	maxID := int32(-1)
	for _, ci := range candidates {
		id := set.TreeID(ci)
		if id < 0 {
			return nil
		}
		maxID = max(maxID, id)
	}
	rank := make([]int32, maxID+1) // 1 once the tree is listed, then its rank
	var trees []tree
	for _, ci := range candidates {
		id := set.TreeID(ci)
		if rank[id] != 0 {
			continue
		}
		rank[id] = 1
		c := &set.Candidates[ci]
		canon, proj := c.Canonical(), c.ProjectionSignature()
		text := canon[:len(canon)-len(proj)]
		if proj == "" || strings.Contains(text, "#") {
			return nil
		}
		trees = append(trees, tree{id: id, size: c.Tree.Size(), text: canon[:len(text)+1]})
	}
	slices.SortFunc(trees, func(a, b tree) int {
		if c := a.size - b.size; c != 0 {
			return c
		}
		return strings.Compare(a.text, b.text)
	})
	for r, t := range trees {
		rank[t.id] = int32(r)
	}
	return rank
}

// Summary renders a short human-readable description of the report.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "candidates=%d filters=%d validations=%d (+%d implied) mappings=%d elapsed=%s",
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
