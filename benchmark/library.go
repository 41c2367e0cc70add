package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"prism"
	"prism/internal/dataset"
	"prism/internal/mem"
	"prism/internal/sqlgen"
)

// roundBudget is the only option an end-to-end round sets: everything else
// (parallelism = GOMAXPROCS, columnar executor, Bayes policy) is the
// library default a caller gets. No pool spec comes near it (the slowest
// takes under a second); it is ten times that, because a round that hits
// the budget counts as failed and on a shared host a one-second round has
// been seen to take more than two.
const roundBudget = 10 * time.Second

func defaultOptions() prism.Options { return prism.Options{TimeLimit: roundBudget} }

// round kinds: what a sample was a measurement of.
const (
	kindCold    = "cold"    // first round of a session
	kindRefine  = "refine"  // one cell cleared
	kindRevert  = "revert"  // the cell written back
	kindReplay  = "replay"  // the full spec submitted again
	kindOneshot = "oneshot" // a round outside any session
)

// outcome is one finished round as the caller saw it.
type outcome struct {
	kind  string
	start time.Time
	total time.Duration
	// first is when the caller held its first mapping: the first streamed
	// mapping on the stream API, the whole answer everywhere else.
	first time.Duration
	// refined says the round ran over the spec with one cell cleared, whose
	// mapping set differs from the base spec's.
	refined bool
	sqls    []string
	err     error
}

// libEnv is a built library workload: database, engine and spec pool.
type libEnv struct {
	def  workloadDef
	db   *mem.Database
	eng  *prism.Engine
	pool []poolSpec
}

// buildEngine is one set-up: generate the database, preprocess it into an
// engine, and build the default executor. The executor is otherwise built
// lazily by the first round; a one-row table preview goes through it, so
// set-up pays for the build and not the first spec of the pool.
func buildEngine(cfg dataset.MondialConfig) (*mem.Database, *prism.Engine, error) {
	db, err := dataset.Mondial(cfg)
	if err != nil {
		return nil, nil, err
	}
	eng := prism.NewEngine(db)
	if _, err := eng.SampleRows("Country", 1); err != nil {
		return nil, nil, err
	}
	return db, eng, nil
}

// timedSetups runs build def.setups times and returns the last result with
// every build time. Earlier builds are dropped and collected, so the heap
// holds one system when the rounds start.
func timedSetups[T any](n int, build func() (T, error)) (T, []float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < n; i++ {
		var zero T
		last = zero
		runtime.GC()
		start := time.Now()
		built, err := build()
		if err != nil {
			return zero, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		last = built
	}
	return last, times, nil
}

func newLibEnv(def workloadDef, seed int64) (*libEnv, []float64, error) {
	type built struct {
		db  *mem.Database
		eng *prism.Engine
	}
	b, times, err := timedSetups(def.setups, func() (built, error) {
		db, eng, err := buildEngine(def.mondial)
		return built{db, eng}, err
	})
	if err != nil {
		return nil, nil, err
	}
	pool, err := buildPool(b.db, def, seed)
	if err != nil {
		return nil, nil, err
	}
	return &libEnv{def: def, db: b.db, eng: b.eng, pool: pool}, times, nil
}

func reportSQLs(r *prism.Report) []string {
	if r == nil {
		return nil
	}
	sqls := make([]string, len(r.Mappings))
	for i, m := range r.Mappings {
		sqls[i] = m.SQL
	}
	return sqls
}

// roundError folds a round's ways of failing into one error: the call's
// own error, or a report that hit the time budget.
func roundError(r *prism.Report, err error) error {
	if err != nil {
		return err
	}
	if r == nil {
		return fmt.Errorf("round returned no report")
	}
	if r.TimedOut {
		return fmt.Errorf("round hit the %s budget", roundBudget)
	}
	return nil
}

// visit runs the workload's rounds for pool spec i through the workload's
// own API and returns one outcome per round. Only the calls are timed;
// copying SQL text out of the report happens after the clock stops.
func (e *libEnv) visit(ctx context.Context, i int, opts prism.Options) []outcome {
	ps := e.pool[i]
	switch e.def.loop {
	case loopSession:
		return e.visitSession(ctx, ps, opts)
	case loopStream:
		return []outcome{e.streamRound(ctx, ps, opts)}
	default:
		start := time.Now()
		report, err := e.eng.Discover(ctx, ps.spec, opts)
		total := time.Since(start)
		return []outcome{{kind: kindOneshot, start: start, total: total, first: total, sqls: reportSQLs(report), err: roundError(report, err)}}
	}
}

// visitSession is one interactive trajectory in a fresh session: the cold
// round, a refinement that clears one cell, the revert that writes it
// back, and the full spec submitted again.
func (e *libEnv) visitSession(ctx context.Context, ps poolSpec, opts prism.Options) []outcome {
	sess := e.eng.NewSession(ctx)
	defer sess.Close()
	steps := []struct {
		kind    string
		refined bool
		run     func() (*prism.Report, error)
	}{
		{kindCold, false, func() (*prism.Report, error) { return sess.Discover(ctx, ps.spec, opts) }},
		{kindRefine, true, func() (*prism.Report, error) { return sess.Refine(ctx, ps.refine, opts) }},
		{kindRevert, false, func() (*prism.Report, error) { return sess.Refine(ctx, ps.revert, opts) }},
		{kindReplay, false, func() (*prism.Report, error) { return sess.Discover(ctx, ps.spec, opts) }},
	}
	out := make([]outcome, 0, len(steps))
	for _, st := range steps {
		start := time.Now()
		report, err := st.run()
		total := time.Since(start)
		out = append(out, outcome{kind: st.kind, start: start, total: total, first: total, refined: st.refined,
			sqls: reportSQLs(report), err: roundError(report, err)})
	}
	return out
}

// streamRound is one round through DiscoverStream: the round ends at
// EventDone, the first mapping is the first EventMapping.
func (e *libEnv) streamRound(ctx context.Context, ps poolSpec, opts prism.Options) outcome {
	var (
		first  time.Duration
		report *prism.Report
		err    error
		done   bool
	)
	start := time.Now()
	for ev := range e.eng.DiscoverStream(ctx, ps.spec, opts) {
		switch ev.Kind {
		case prism.EventMapping:
			if first == 0 {
				first = time.Since(start)
			}
		case prism.EventDone:
			report, err, done = ev.Report, ev.Err, true
		}
	}
	total := time.Since(start)
	if first == 0 {
		first = total
	}
	if !done {
		err = fmt.Errorf("stream closed without a done event")
	}
	return outcome{kind: kindOneshot, start: start, total: total, first: first, sqls: reportSQLs(report), err: roundError(report, err)}
}

// oracle holds the expected mapping-set digest of every pool spec, for the
// base spec and for the spec with one cell cleared. A golden file fills it
// for the recorded seed; for any other seed the first round over a spec
// fills it, after checking that the set contains the mapping the spec was
// generated from, and every later round must reproduce it.
type oracle struct {
	pool    []poolSpec
	base    []string
	refined []string
	// normalize canonicalises SQL for the containment check.
	normalize func(sql string) (string, error)
}

func newOracle(db *mem.Database, pool []poolSpec) *oracle {
	return &oracle{
		pool:      pool,
		base:      make([]string, len(pool)),
		refined:   make([]string, len(pool)),
		normalize: func(sql string) (string, error) { return sqlgen.Normalize(sql, db.Schema()) },
	}
}

// check reports why the mapping set of a round over pool spec i is wrong,
// or nil.
func (o *oracle) check(i int, refined bool, sqls []string) error {
	want := &o.base[i]
	if refined {
		want = &o.refined[i]
	}
	got := mappingDigest(sqls)
	if *want == "" {
		if err := o.containsTruth(i, sqls); err != nil {
			return err
		}
		*want = got
		return nil
	}
	if got != *want {
		return fmt.Errorf("%s: mapping set %s (%d mappings), want %s", o.pool[i].name, got, len(sqls), *want)
	}
	return nil
}

func (o *oracle) containsTruth(i int, sqls []string) error {
	if o.pool[i].truthSQL == "" {
		return nil // a hand-written grid has no generating mapping
	}
	for _, sql := range sqls {
		norm, err := o.normalize(sql)
		if err != nil {
			return fmt.Errorf("%s: mapping does not parse: %w", o.pool[i].name, err)
		}
		if norm == o.pool[i].truthSQL {
			return nil
		}
	}
	return fmt.Errorf("%s: %d mappings, none is the ground truth %s", o.pool[i].name, len(sqls), o.pool[i].truthSQL)
}

// pass is the correct rounds of one pass over the pool.
type pass struct {
	totals, firsts []float64 // ms
	byKind         map[string][]float64
	wall           time.Duration
}

// rate is the pass's throughput in correct rounds per second.
func (p *pass) rate() float64 { return float64(len(p.totals)) / p.wall.Seconds() }

// tally accumulates the rounds of a phase, pass by pass. Every pass has the
// same composition, so a run is a series of repeated measurements of the
// pool and its metrics are medians over the passes: a burst of interference
// that slows one pass does not move them.
type tally struct {
	attempted, failed int
	firstFailure      error
	passes            []*pass
}

func newTally() *tally { return &tally{} }

// startPass opens the pass that later rounds are added to.
func (t *tally) startPass() *pass {
	p := &pass{byKind: make(map[string][]float64)}
	t.passes = append(t.passes, p)
	return p
}

func (t *tally) add(kind string, total, first time.Duration, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstFailure == nil {
			t.firstFailure = err
		}
		return
	}
	if len(t.passes) == 0 {
		t.startPass()
	}
	p := t.passes[len(t.passes)-1]
	p.totals = append(p.totals, ms(total))
	p.firsts = append(p.firsts, ms(first))
	p.byKind[kind] = append(p.byKind[kind], ms(total))
}

// timedPass runs one pass and records its wall time; it returns the number
// of rounds attempted, for runPasses.
func (t *tally) timedPass(run func()) int {
	before := t.attempted
	p := t.startPass()
	start := time.Now()
	run()
	p.wall = time.Since(start)
	return t.attempted - before
}

// merge appends another tally's passes and counts (the callers of the
// serving workload each keep their own).
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.passes = append(t.passes, o.passes...)
	if t.firstFailure == nil {
		t.firstFailure = o.firstFailure
	}
}

// rounds is the number of correct rounds over all passes.
func (t *tally) rounds() int {
	n := 0
	for _, p := range t.passes {
		n += len(p.totals)
	}
	return n
}

// overPasses is the median over the passes of each pass's q-quantile of the
// sample pick selects. The quantile must be supported by the run as a
// whole: at least minSamplesBeyond measured rounds on either side of it.
func (t *tally) overPasses(q float64, pick func(*pass) []float64) (float64, error) {
	total := 0
	per := make([]float64, 0, len(t.passes))
	for _, p := range t.passes {
		if sample := pick(p); len(sample) > 0 {
			total += len(sample)
			per = append(per, nearestRank(sample, q))
		}
	}
	if err := supported(total, q); err != nil {
		return 0, err
	}
	return median(per), nil
}

// medianRate is the median over the passes of the pass throughput.
func (t *tally) medianRate() float64 {
	rates := make([]float64, len(t.passes))
	for i, p := range t.passes {
		rates[i] = p.rate()
	}
	return median(rates)
}

// record checks an outcome against the oracle and tallies it.
func (t *tally) record(o *oracle, i int, out outcome) {
	err := out.err
	if err == nil {
		err = o.check(i, out.refined, out.sqls)
	}
	t.add(out.kind, out.total, out.first, err)
}

// liveHeapMB is the heap still reachable after a forced collection. It
// collects twice: a sync.Pool hands its contents to a victim cache on the
// first collection and drops them on the second, and whether a pool held
// scratch buffers at the end of a run is not a property of the workload.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// runLibrary is the untraced end-to-end run of a library workload.
func runLibrary(ctx context.Context, def workloadDef, cfg runConfig) (*result, error) {
	env, setupTimes, err := newLibEnv(def, cfg.seed)
	if err != nil {
		return nil, err
	}
	orc := newOracle(env.db, env.pool)
	if err := cfg.golden(def, env.pool, orc); err != nil {
		return nil, err
	}
	opts := defaultOptions()

	// The warm-up pass is the correctness pass: it fills every lazy
	// structure and checks every spec before anything is timed.
	warm := newTally()
	warmStart := time.Now()
	for i := range env.pool {
		for _, out := range env.visit(ctx, i, opts) {
			warm.record(orc, i, out)
		}
	}
	warmup := time.Since(warmStart)
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up pass: %d of %d rounds failed, first: %w", warm.failed, warm.attempted, warm.firstFailure)
	}

	t := newTally()
	passes, _ := runPasses(cfg.seconds, minSamples, func() int {
		return t.timedPass(func() {
			for i := range env.pool {
				for _, out := range env.visit(ctx, i, opts) {
					t.record(orc, i, out)
				}
			}
		})
	})
	heap := liveHeapMB()
	runtime.KeepAlive(env)

	res := newResult(def.name, t)
	res.rate = t.medianRate()
	res.setupTimes = setupTimes
	res.heapMB = heap
	res.info("pool_specs", float64(len(env.pool)), "count")
	res.info("passes", float64(passes), "count")
	res.info("warmup_s", warmup.Seconds(), "s")
	return res, nil
}
