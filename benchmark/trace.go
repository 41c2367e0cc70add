package main

import (
	"context"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"prism"
	"prism/internal/constraint"
	"prism/internal/exec"
	"prism/internal/filter"
	"prism/internal/graphx"
	"prism/internal/obs"
	"prism/internal/sched"
	"prism/internal/sqlgen"
)

// Span names: one per call into a layer. The five stage spans are the
// direct children of a "stages" span and together replay one round; the
// others are children of a stage or stand alone.
const (
	spanStages    = "stages"
	spanRelated   = "discovery.related"
	spanEnumerate = "graphx.enumerate"
	spanDecompose = "filter.decompose"
	spanSched     = "sched.run"
	spanAssemble  = "sqlgen.assemble"

	spanEstimate = "bayes.estimate"        // under sched.run, one per filter
	spanKey      = "filter.validation_key" // under sched.run, session rounds
	spanExists   = "exec.exists"           // under sched.run
	spanBatch    = "exec.batch"            // under sched.run
	spanPreview  = "exec.preview"          // under sqlgen.assemble

	spanParse  = "lang.parse"
	spanEncode = "api.encode_spec"
	spanDecode = "api.decode_spec"
	spanRound  = "discovery.round" // the real round, through the workload's API

	spanClientUnary  = "client.unary"
	spanClientStream = "client.stream"
	spanClientRefine = "client.refine"
	spanHandler      = "server.handler"
)

var stageSpans = []string{spanRelated, spanEnumerate, spanDecompose, spanSched, spanAssemble}

// span is one timed call: name, start, end, the span that caused it, and
// the round it belongs to.
type span struct {
	id, parent int
	round      int
	name       string
	start, end time.Duration // offsets from the recorder's start
}

func (s span) duration() time.Duration { return s.end - s.start }

// recorder keeps spans in memory until the run ends. Every method is a
// no-op on a nil recorder, which is how the same staged replay runs
// untraced to measure what the tracing costs.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, parent, round int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{id: id, parent: parent, round: round, name: name, start: time.Since(r.t0)})
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].end = now
	r.mu.Unlock()
}

// add records a span that was timed elsewhere.
func (r *recorder) add(name string, round int, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	from := start.Sub(r.t0)
	r.spans = append(r.spans, span{id: len(r.spans) + 1, round: round, name: name, start: from, end: from + d})
}

// selfTimes returns, per span id, the span's duration minus the durations
// of its direct children: the time spent in the layer itself. Children of
// one span never overlap here, since traced rounds run at parallelism 1.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.id] += s.duration()
		if s.parent != 0 {
			self[s.parent] -= s.duration()
		}
	}
	return self
}

// writeNDJSON writes the spans as one internal/obs span tree, one span per
// line with parent ids: the format of the repository's other -trace files.
func (r *recorder) writeNDJSON(w io.Writer, workload string) error {
	root := &obs.Span{Name: workload, Start: r.t0, Duration: time.Since(r.t0)}
	nodes := make([]*obs.Span, len(r.spans))
	for i, s := range r.spans {
		nodes[i] = &obs.Span{Name: s.name, Start: r.t0.Add(s.start), Duration: s.duration(),
			Attrs: map[string]any{"round": s.round}}
	}
	for i, s := range r.spans {
		parent := root
		if s.parent != 0 {
			parent = nodes[s.parent-1]
		}
		parent.Children = append(parent.Children, nodes[i])
	}
	return root.WriteNDJSON(w)
}

// timedExecutor records one span per call into the executor.
type timedExecutor struct {
	exec.Executor
	rec           *recorder
	parent, round int
}

func (t *timedExecutor) Exists(p exec.Plan, opts exec.ExecOptions) (bool, exec.ExecStats, error) {
	id := t.rec.begin(spanExists, t.parent, t.round)
	defer t.rec.end(id)
	return t.Executor.Exists(p, opts)
}

func (t *timedExecutor) ExistsBatch(p exec.Plan, sets []exec.PredicateSet, opts exec.ExecOptions) ([]exec.Verdict, exec.ExecStats, error) {
	id := t.rec.begin(spanBatch, t.parent, t.round)
	defer t.rec.end(id)
	return t.Executor.ExistsBatch(p, sets, opts)
}

func (t *timedExecutor) ExecuteWith(p exec.Plan, opts exec.ExecOptions) (*exec.Result, error) {
	id := t.rec.begin(spanPreview, t.parent, t.round)
	defer t.rec.end(id)
	return t.Executor.ExecuteWith(p, opts)
}

// timedEstimator records one span per failure-probability estimate.
type timedEstimator struct {
	sched.Estimator
	rec           *recorder
	parent, round int
}

func (t *timedEstimator) FailureProbability(f *filter.Filter) float64 {
	id := t.rec.begin(spanEstimate, t.parent, t.round)
	defer t.rec.end(id)
	return t.Estimator.FailureProbability(f)
}

// stager replays a round stage by stage through the layers' exported
// functions, the way discovery.Engine composes them, at parallelism 1.
type stager struct {
	eng   *prism.Engine
	graph *graphx.Graph
	ex    exec.Executor
	// previews executes each mapping for ten result rows, as the server's
	// rounds do (Options.IncludeResults).
	previews bool
}

func newStager(eng *prism.Engine, ex exec.Executor, previews bool) *stager {
	return &stager{eng: eng, graph: graphx.New(eng.Database().Schema()), ex: ex, previews: previews}
}

// replaySession is what a prism.Session carries from round to round: the
// filter-outcome cache and the decompositions of the candidate lists seen.
type replaySession struct {
	cache *filter.OutcomeCache
	sets  map[string]*filter.Set
}

func newReplaySession() *replaySession {
	return &replaySession{cache: filter.NewOutcomeCache(0), sets: make(map[string]*filter.Set)}
}

func candidatesKey(candidates []graphx.Candidate) string {
	var b strings.Builder
	for _, c := range candidates {
		b.WriteString(c.Canonical())
		b.WriteByte(0)
	}
	return b.String()
}

// stagedRound is what one staged replay produced.
type stagedRound struct {
	sqls       []string
	candidates int
	filters    int
	sched      sched.Result
	total      time.Duration
	schedRun   time.Duration
}

// round replays one round over spec. sess is nil outside a session. With a
// nil recorder the layers are called bare, without decorators or spans.
func (s *stager) round(ctx context.Context, rec *recorder, round int, spec *constraint.Spec, sess *replaySession, batching bool) (out stagedRound, err error) {
	ctx, cancel := context.WithTimeout(ctx, roundBudget)
	defer cancel()
	begin := time.Now()
	root := rec.begin(spanStages, 0, round)
	defer func() {
		rec.end(root)
		out.total = time.Since(begin)
	}()
	stage := func(name string) func() {
		id := rec.begin(name, root, round)
		return func() { rec.end(id) }
	}

	done := stage(spanRelated)
	related, err := s.eng.RelatedColumns(spec)
	done()
	if err != nil {
		return out, err
	}

	done = stage(spanEnumerate)
	candidates, err := graphx.Enumerate(s.graph, related, graphx.EnumerateOptions{RequireUsefulLeaves: true})
	done()
	if err != nil {
		return out, err
	}
	out.candidates = len(candidates)

	done = stage(spanDecompose)
	var set *filter.Set
	if sess != nil {
		set = sess.sets[candidatesKey(candidates)]
	}
	if set == nil {
		set, err = filter.DecomposeContext(ctx, candidates)
		if err == nil && sess != nil {
			sess.sets[candidatesKey(candidates)] = set
		}
	}
	done()
	if err != nil {
		return out, err
	}
	out.filters = set.NumFilters()

	schedID := rec.begin(spanSched, root, round)
	var (
		executor  exec.Executor   = s.ex
		estimator sched.Estimator = &sched.BayesEstimator{Model: s.eng.Model(), Spec: spec}
	)
	if rec != nil {
		executor = &timedExecutor{Executor: s.ex, rec: rec, parent: schedID, round: round}
		estimator = &timedEstimator{Estimator: estimator, rec: rec, parent: schedID, round: round}
	}
	opts := sched.Options{TimeLimit: roundBudget, Parallelism: 1, Batching: batching}
	if sess != nil {
		version := s.eng.Database().Version()
		opts.Cache = sess.cache
		opts.CacheKey = func(i int) string {
			id := rec.begin(spanKey, schedID, round)
			defer rec.end(id)
			return filter.ValidationKey(set.Filters[i], spec, version)
		}
	}
	runner := &sched.Runner{DB: executor, Spec: spec, Set: set, Estimator: estimator, Options: opts}
	schedStart := time.Now()
	out.sched, err = runner.RunContext(ctx)
	out.schedRun = time.Since(schedStart)
	rec.end(schedID)
	if err != nil {
		return out, err
	}
	if out.sched.TimedOut {
		return out, context.DeadlineExceeded
	}

	assembleID := rec.begin(spanAssemble, root, round)
	defer rec.end(assembleID)
	if rec != nil {
		executor = &timedExecutor{Executor: s.ex, rec: rec, parent: assembleID, round: round}
	}
	confirmed := slices.Clone(out.sched.Confirmed)
	slices.SortFunc(confirmed, func(i, j int) int {
		a, b := set.Candidates[i], set.Candidates[j]
		if c := a.Tree.Size() - b.Tree.Size(); c != 0 {
			return c
		}
		return strings.Compare(a.Canonical(), b.Canonical())
	})
	for _, ci := range confirmed {
		plan := set.Candidates[ci].Plan()
		plan.Distinct = true
		out.sqls = append(out.sqls, sqlgen.Generate(plan))
		if s.previews {
			if _, err := executor.ExecuteWith(plan, exec.ExecOptions{Limit: serverResultLimit}); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// serverResultLimit is the preview size internal/server attaches to every
// mapping.
const serverResultLimit = 10

// specGrids renders a spec as the demo's string grids.
func specGrids(sp *constraint.Spec) (rows [][]string, metadata []string) {
	for _, s := range sp.Samples {
		row := make([]string, len(s.Cells))
		for i, c := range s.Cells {
			if c != nil {
				row[i] = c.String()
			}
		}
		rows = append(rows, row)
	}
	for i, m := range sp.Metadata {
		if m == nil {
			continue
		}
		if metadata == nil {
			metadata = make([]string, len(sp.Metadata))
		}
		metadata[i] = m.String()
	}
	return rows, metadata
}
