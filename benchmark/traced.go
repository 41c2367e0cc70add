package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"time"

	"prism"
	"prism/api"
	"prism/internal/bayes"
	"prism/internal/dataset"
	"prism/internal/exec"
	"prism/internal/mem"
	"prism/internal/serve"
)

// layerMetrics lists the per-layer metrics in BENCHMARK.json order. Every
// traced run prints all of them; a layer the workload never reaches reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"dataset.generate_ms", "ms"},
	{"mem.analyze_ms", "ms"},
	{"bayes.train_ms", "ms"},
	{"colexec.build_ms", "ms"},
	{"colexec.build_heap_mb", "MB"},
	{"lang.parse_us", "us"},
	{"api.encode_spec_us", "us"},
	{"api.decode_spec_us", "us"},
	{"discovery.related_us", "us"},
	{"graphx.enumerate_us", "us"},
	{"graphx.candidates", "count"},
	{"filter.decompose_us", "us"},
	{"filter.filters", "count"},
	{"bayes.estimate_us", "us"},
	{"bayes.estimate_calls", "count"},
	{"sched.run_us", "us"},
	{"sched.self_us", "us"},
	{"sched.validations", "count"},
	{"sched.implied", "count"},
	{"sched.implied_share", "ratio"},
	{"sched.validations_per_candidate", "ratio"},
	{"sched.pdefault_over_p1", "ratio"},
	{"sched.batched_over_sequential", "ratio"},
	{"exec.exists_calls", "count"},
	{"exec.exists_us", "us"},
	{"exec.batch_calls", "count"},
	{"exec.batch_us", "us"},
	{"exec.preview_us", "us"},
	{"exec.busy_share", "ratio"},
	{"exec.rows_scanned", "count"},
	{"exec.intermediate_rows", "count"},
	{"exec.blocks_pruned", "count"},
	{"exec.zones_pruned", "count"},
	{"exec.peak_intermediate_bytes", "B"},
	{"sqlgen.assemble_us", "us"},
	{"sqlgen.mappings", "count"},
	{"filter.validation_key_us", "us"},
	{"filter.cache_hits", "count"},
	{"filter.cache_misses", "count"},
	{"filter.cache_stores", "count"},
	{"filter.cache_hit_share", "ratio"},
	{"session.validations_saved_share", "ratio"},
	{"session.cold_us", "us"},
	{"session.refine_us", "us"},
	{"session.replay_us", "us"},
	{"session.replay_over_cold", "ratio"},
	{"discovery.round_us", "us"},
	{"discovery.unattributed_us", "us"},
	{"discovery.stages_over_round", "ratio"},
	{"discovery.alloc_kb_per_round", "KB"},
	{"discovery.first_mapping_share", "ratio"},
	{"bayes.estimate_share", "ratio"},
	{"filter.decompose_share", "ratio"},
	{"graphx.enumerate_share", "ratio"},
	{"sched.self_share", "ratio"},
	{"sqlgen.assemble_share", "ratio"},
	{"client.unary_us", "us"},
	{"client.stream_us", "us"},
	{"client.refine_us", "us"},
	{"server.handler_us", "us"},
	{"server.wire_us", "us"},
	{"server.overhead_share", "ratio"},
	{"server.service_p50_ms", "ms"},
	{"serve.admit_ns", "ns"},
	{"serve.admitted", "count"},
	{"serve.shed", "count"},
	{"obs.trace_overhead_share", "ratio"},
	{"harness.trace_overhead_share", "ratio"},
}

// tracedRound is everything measured about one round of the traced pass.
type tracedRound struct {
	id   int
	kind string
	// primary rounds carry the stage metrics: every one-shot round, and
	// the cold round of a session trajectory.
	primary bool
	staged  stagedRound
	// real is the round through the workload's own API at parallelism 1;
	// first is when its first mapping arrived.
	real, first time.Duration
	allocKB     float64
	// Primary rounds only: the real round at default parallelism, the real
	// round with Options.Trace, the staged replay without spans and its
	// scheduler run, and (on the low-resolution workload) the scheduler
	// run with batching.
	realDefault, realObs, stagedBare, schedBare, schedBatched time.Duration
	// Serving rounds only.
	client, handler time.Duration
}

// setupStages times the set-up layer by layer on a database of its own:
// generate, analyze, train, build the columnar store.
type setupStages struct {
	generate, analyze, train, colexec time.Duration
	colexecHeapMB                     float64
}

func stageSetup(build func() (*mem.Database, error)) (*mem.Database, exec.Executor, setupStages, error) {
	var st setupStages
	start := time.Now()
	db, err := build()
	if err != nil {
		return nil, nil, st, err
	}
	st.generate = time.Since(start)

	// The generators analyze the database before they return (so
	// dataset.generate_ms includes one analysis); the analysis alone is
	// timed by repeating it on a copy of the rows.
	clone := mem.NewDatabase(db.Name, db.Schema())
	for _, table := range db.Schema().Tables() {
		rel, _ := db.Relation(table.Name)
		if err := clone.BulkInsert(table.Name, rel.Rows); err != nil {
			return nil, nil, st, err
		}
	}
	start = time.Now()
	clone.Analyze()
	st.analyze = time.Since(start)

	start = time.Now()
	model := bayes.Train(db)
	st.train = time.Since(start)
	runtime.KeepAlive(model)

	before := liveHeapMB()
	start = time.Now()
	ex, err := exec.New(exec.DefaultName, db)
	if err != nil {
		return nil, nil, st, err
	}
	st.colexec = time.Since(start)
	st.colexecHeapMB = liveHeapMB() - before
	return db, ex, st, nil
}

func (a *setupStages) add(b setupStages) {
	a.generate += b.generate
	a.analyze += b.analyze
	a.train += b.train
	a.colexec += b.colexec
	a.colexecHeapMB += b.colexecHeapMB
}

// tracer drives the traced pass of one workload.
type tracer struct {
	rec    *recorder
	stager *stager
	orc    *oracle
	rounds []*tracedRound
	tally  *tally
	// batching also measures the scheduler with batched validation.
	batching bool
	// stages is the layer-by-layer set-up; extra holds metrics read
	// directly rather than derived from rounds (the server's own counters).
	stages setupStages
	extra  map[string]float64
}

func (t *tracer) newRound(kind string, primary bool) *tracedRound {
	tr := &tracedRound{id: len(t.rounds) + 1, kind: kind, primary: primary}
	t.rounds = append(t.rounds, tr)
	return tr
}

// checkStaged holds a staged replay to the same oracle as a real round:
// the decorators and the replay itself must not change a mapping set.
func (t *tracer) checkStaged(i int, refined bool, kind string, st stagedRound, err error) {
	if err == nil {
		err = t.orc.check(i, refined, st.sqls)
	}
	if err != nil {
		err = fmt.Errorf("staged %s round: %w", kind, err)
	}
	t.tally.add(kind, st.total, st.total, err)
}

// frontend times the layers in front of a round: the grid parser and the
// wire codec of the spec. Cells whose canonical text the parser rejects
// (see trajectoryDeltas) leave the parse span out.
func (t *tracer) frontend(round int, ps poolSpec) {
	rows, metadata := specGrids(ps.spec)
	start := time.Now()
	if _, err := prism.ParseConstraints(ps.spec.NumColumns, rows, metadata); err == nil {
		t.rec.add(spanParse, round, start, time.Since(start))
	}
	start = time.Now()
	wire, err := api.EncodeSpec(ps.spec)
	if err != nil {
		return
	}
	t.rec.add(spanEncode, round, start, time.Since(start))
	start = time.Now()
	if _, err := wire.Decode(); err == nil {
		t.rec.add(spanDecode, round, start, time.Since(start))
	}
}

func totalAllocKB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / 1024
}

// traceLibrarySpec runs the traced visit of pool spec i of a library
// workload: a warm-up visit, the staged replay of every round of the
// visit, the real visit at parallelism 1, and for the primary round the
// three comparison runs.
func (t *tracer) traceLibrarySpec(ctx context.Context, env *libEnv, i int) {
	ps := env.pool[i]
	p1 := defaultOptions()
	p1.Parallelism = 1
	record := func(outs []outcome) {
		for _, out := range outs {
			t.tally.record(t.orc, i, out)
		}
	}
	record(env.visit(ctx, i, p1)) // warm-up, and the oracle's first look

	// The rounds of one visit, in the order the loop issues them.
	type step struct {
		kind    string
		refined bool
		spec    func(prev *prism.Spec) (*prism.Spec, error)
	}
	same := func(*prism.Spec) (*prism.Spec, error) { return ps.spec, nil }
	steps := []step{{kindOneshot, false, same}}
	var sess *replaySession
	if env.def.loop == loopSession {
		sess = newReplaySession()
		steps = []step{
			{kindCold, false, same},
			{kindRefine, true, ps.refine.Apply},
			{kindRevert, false, ps.revert.Apply},
			{kindReplay, false, same},
		}
	}
	rounds := make([]*tracedRound, len(steps))
	var spec *prism.Spec
	for k, st := range steps {
		tr := t.newRound(st.kind, k == 0)
		rounds[k] = tr
		var err error
		if spec, err = st.spec(spec); err != nil {
			t.tally.add(st.kind, 0, 0, err)
			return
		}
		tr.staged, err = t.stager.round(ctx, t.rec, tr.id, spec, sess, false)
		t.checkStaged(i, st.refined, st.kind, tr.staged, err)
	}
	t.frontend(rounds[0].id, ps)

	allocBefore := totalAllocKB()
	outs := env.visit(ctx, i, p1)
	alloc := (totalAllocKB() - allocBefore) / float64(len(outs))
	record(outs)
	for k, out := range outs {
		tr := rounds[k]
		tr.real, tr.first, tr.allocKB = out.total, out.first, alloc
		t.rec.add(spanRound, tr.id, out.start, out.total)
	}

	primary := rounds[0]
	outs = env.visit(ctx, i, defaultOptions())
	record(outs)
	primary.realDefault = outs[0].total

	traced := p1
	traced.Trace = true
	outs = env.visit(ctx, i, traced)
	record(outs)
	primary.realObs = outs[0].total

	var bareSess *replaySession
	if sess != nil {
		bareSess = newReplaySession()
	}
	bare, err := t.stager.round(ctx, nil, 0, ps.spec, bareSess, false)
	t.checkStaged(i, false, primary.kind, bare, err)
	primary.stagedBare, primary.schedBare = bare.total, bare.schedRun
	if t.batching {
		batched, err := t.stager.round(ctx, nil, 0, ps.spec, nil, true)
		t.checkStaged(i, false, primary.kind, batched, err)
		primary.schedBatched = batched.schedRun
	}
}

// runTraced is the traced run: per-layer metrics from an outside-in replay.
func runTraced(ctx context.Context, def workloadDef, cfg runConfig) (*result, error) {
	t := &tracer{rec: newRecorder(), tally: newTally(), batching: def.loop == loopUnary}
	trace := t.traceLibrary
	if def.loop == loopServe {
		trace = t.traceServe
	}
	passes, err := trace(ctx, def, cfg)
	if err != nil {
		return nil, err
	}
	if t.tally.failed > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d of %d traced rounds failed, first: %v\n", def.name, t.tally.failed, t.tally.attempted, t.tally.firstFailure)
	}
	values := t.layerValues()
	res := newResult(def.name, t.tally)
	for _, m := range layerMetrics {
		res.add(m.name, values[m.name], m.unit)
	}
	res.info("traced_passes", float64(passes), "count")
	res.info("traced_rounds", float64(len(t.rounds)), "count")
	res.info("spans", float64(len(t.rec.spans)), "count")
	if cfg.traceFile != "" {
		// Appending lets a run over all four workloads share one file.
		f, err := os.OpenFile(cfg.traceFile, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		if err := t.rec.writeNDJSON(f, def.name); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (t *tracer) traceLibrary(ctx context.Context, def workloadDef, cfg runConfig) (int, error) {
	db, ex, stages, err := stageSetup(func() (*mem.Database, error) { return dataset.Mondial(def.mondial) })
	if err != nil {
		return 0, err
	}
	t.stages = stages
	eng := prism.NewEngine(db)
	if _, err := eng.SampleRows("Country", 1); err != nil {
		return 0, err
	}
	pool, err := buildPool(db, def, cfg.seed)
	if err != nil {
		return 0, err
	}
	env := &libEnv{def: def, db: db, eng: eng, pool: pool}
	t.orc = newOracle(db, pool)
	if err := cfg.golden(def, pool, t.orc); err != nil {
		return 0, err
	}
	t.stager = newStager(eng, ex, false)
	passes, _ := runPasses(cfg.seconds, 0, func() int {
		for i := range pool {
			t.traceLibrarySpec(ctx, env, i)
		}
		return len(pool)
	})
	return passes, nil
}

// traceServe is the traced pass of the serving workload: one client, and
// per typed spec the unary request over the wire, the same request handed
// to the handler without a socket, the library round the handler runs, a
// streamed request and a two-round session.
func (t *tracer) traceServe(ctx context.Context, def workloadDef, cfg runConfig) (int, error) {
	for _, name := range prism.DatasetNames() {
		_, _, st, err := stageSetup(func() (*mem.Database, error) { return dataset.ByName(name) })
		if err != nil {
			return 0, err
		}
		t.stages.add(st)
	}
	def.setups = 1
	env, _, err := newServeEnv(def, cfg.seed)
	if err != nil {
		return 0, err
	}
	defer env.stop()
	mondial := env.engines["mondial"]
	t.orc = newOracle(mondial.Database(), env.oracleEntries())
	if err := cfg.golden(def, env.pool, t.orc); err != nil {
		return 0, err
	}
	if err := env.learnFromLibrary(ctx, t.orc); err != nil {
		return 0, fmt.Errorf("library reference: %w", err)
	}
	ex, err := exec.New(exec.DefaultName, mondial.Database())
	if err != nil {
		return 0, err
	}
	t.stager = newStager(mondial, ex, true)
	bc, err := env.newClient(0)
	if err != nil {
		return 0, err
	}
	defer bc.transport.CloseIdleConnections()
	handler := env.srv.Handler()

	passes, _ := runPasses(cfg.seconds, 0, func() int {
		for i := range env.pool {
			t.traceServeSpec(ctx, env, bc, handler, i)
		}
		return len(env.pool)
	})

	stats, err := bc.byPriority[api.PriorityNormal].Stats(ctx)
	if err != nil {
		return 0, err
	}
	var weighted, count float64
	for _, l := range stats.Latency {
		weighted += l.P50Ms * float64(l.Count)
		count += float64(l.Count)
	}
	t.extra = map[string]float64{
		"serve.admitted":        float64(stats.Admission.Admitted),
		"serve.shed":            float64(stats.Admission.Shed),
		"server.service_p50_ms": ratio(weighted, count),
		"serve.admit_ns":        admitNanos(ctx),
	}
	return passes, nil
}

// serverOptions are the round options internal/server derives from a
// request that sets only a timeout.
func serverOptions() prism.Options {
	opts := defaultOptions()
	opts.IncludeResults = true
	opts.ResultLimit = serverResultLimit
	return opts
}

func (t *tracer) traceServeSpec(ctx context.Context, env *serveEnv, bc *benchClient, handler http.Handler, i int) {
	ps := env.pool[i]
	c := bc.byPriority[priorities[i%len(priorities)]]
	req := env.typedRequest(i)
	record := func(out outcome) { t.tally.record(t.orc, i, out) }
	record(unaryRound(ctx, c, req)) // warm-up

	tr := t.newRound(kindUnary, true)
	var err error
	tr.staged, err = t.stager.round(ctx, t.rec, tr.id, ps.spec, nil, false)
	t.checkStaged(i, false, kindUnary, tr.staged, err)
	t.frontend(tr.id, ps)

	out := unaryRound(ctx, c, req)
	record(out)
	tr.client = out.total
	t.rec.add(spanClientUnary, tr.id, out.start, out.total)

	// The same request, handed to the handler without a socket.
	body, err := json.Marshal(req)
	if err != nil {
		t.tally.add(kindUnary, 0, 0, err)
		return
	}
	httpReq := httptest.NewRequest(http.MethodPost, api.PathPrefix+"/discover", bytes.NewReader(body))
	httpReq.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	start := time.Now()
	handler.ServeHTTP(w, httpReq.WithContext(ctx))
	tr.handler = time.Since(start)
	t.rec.add(spanHandler, tr.id, start, tr.handler)
	var resp api.DiscoverResponse
	err = json.Unmarshal(w.Body.Bytes(), &resp)
	record(outcome{kind: kindUnary, total: tr.handler, first: tr.handler, sqls: responseSQLs(&resp), err: responseError(&resp, err)})

	// The library round the handler runs, sequential and as served.
	libRound := func(opts prism.Options) outcome {
		start := time.Now()
		report, err := env.engines["mondial"].Discover(ctx, ps.spec, opts)
		total := time.Since(start)
		return outcome{kind: kindUnary, start: start, total: total, first: total, sqls: reportSQLs(report), err: roundError(report, err)}
	}
	p1 := serverOptions()
	p1.Parallelism = 1
	allocBefore := totalAllocKB()
	out = libRound(p1)
	tr.allocKB = totalAllocKB() - allocBefore
	record(out)
	tr.real, tr.first = out.total, out.first
	t.rec.add(spanRound, tr.id, out.start, out.total)
	out = libRound(serverOptions())
	record(out)
	tr.realDefault = out.total
	traced := p1
	traced.Trace = true
	out = libRound(traced)
	record(out)
	tr.realObs = out.total
	bare, err := t.stager.round(ctx, nil, 0, ps.spec, nil, false)
	t.checkStaged(i, false, kindUnary, bare, err)
	tr.stagedBare = bare.total

	// The other two request kinds, client side only.
	sr := t.newRound(kindStream, false)
	out = streamRound(ctx, c, req)
	record(out)
	sr.client = out.total
	t.rec.add(spanClientStream, sr.id, out.start, out.total)
	for _, out := range env.sessionRounds(ctx, c, i) {
		rr := t.newRound(kindSession, false)
		record(out)
		rr.client = out.total
		t.rec.add(spanClientRefine, rr.id, out.start, out.total)
	}
}

// admitNanos is the cost of one uncontended admit and release on a
// controller with the server's default configuration.
func admitNanos(ctx context.Context) float64 {
	const calls = 20000
	ctrl := serve.NewController(serve.Config{})
	start := time.Now()
	for i := 0; i < calls; i++ {
		release, err := ctrl.Admit(ctx, api.DefaultTenant, serve.PriorityNormal)
		if err != nil {
			return 0
		}
		release()
	}
	return float64(time.Since(start).Nanoseconds()) / calls
}

// rows flattens every traced round into named per-round values: the sum,
// call count and self time of each span name ("us.", "calls.", "self."
// plus the span name) and the round's own measurements. A value a round
// does not have (a span that never opened) is absent, not zero.
func (t *tracer) rows() map[*tracedRound]map[string]float64 {
	byID := make(map[int]map[string]float64, len(t.rounds))
	rows := make(map[*tracedRound]map[string]float64, len(t.rounds))
	for _, tr := range t.rounds {
		cost := tr.staged.sched.Cost
		row := map[string]float64{
			"candidates":        float64(tr.staged.candidates),
			"filters":           float64(tr.staged.filters),
			"validations":       float64(tr.staged.sched.Validations),
			"implied":           float64(tr.staged.sched.Implied),
			"mappings":          float64(len(tr.staged.sqls)),
			"hits":              float64(tr.staged.sched.CacheHits),
			"misses":            float64(tr.staged.sched.CacheMisses),
			"stores":            float64(tr.staged.sched.CacheStores),
			"rows_scanned":      float64(cost.RowsScanned),
			"intermediate_rows": float64(cost.IntermediateRows),
			"blocks_pruned":     float64(cost.BlocksPruned),
			"zones_pruned":      float64(cost.ZonesPruned),
			"peak_bytes":        float64(cost.PeakIntermediateBytes),
			"alloc_kb":          tr.allocKB,
			"staged":            us(tr.staged.total),
			"staged_bare":       us(tr.stagedBare),
			"sched_bare":        us(tr.schedBare),
			"sched_batched":     us(tr.schedBatched),
			"real":              us(tr.real),
			"first":             us(tr.first),
			"real_default":      us(tr.realDefault),
			"real_obs":          us(tr.realObs),
			"client":            us(tr.client),
			"handler":           us(tr.handler),
		}
		byID[tr.id], rows[tr] = row, row
	}
	self := selfTimes(t.rec.spans)
	for _, s := range t.rec.spans {
		row := byID[s.round]
		row["us."+s.name] += us(s.duration())
		row["calls."+s.name]++
		row["self."+s.name] += us(self[s.id])
	}
	for _, row := range rows {
		for _, name := range stageSpans {
			row["stages"] += row["us."+name]
		}
		row["unattributed"] = max(0, row["real"]-row["stages"])
		row["exec"] = row["us."+spanExists] + row["us."+spanBatch] + row["us."+spanPreview]
	}
	return rows
}

// layerValues folds the traced rounds into the per-layer metrics. Times
// and counts are medians over the primary rounds of the per-round values;
// shares are ratios of totals over the same rounds.
func (t *tracer) layerValues() map[string]float64 {
	rows := t.rows()
	// column is the named value of every given round that has it.
	column := func(rounds []*tracedRound, key string) []float64 {
		var out []float64
		for _, tr := range rounds {
			if v, ok := rows[tr][key]; ok {
				out = append(out, v)
			}
		}
		return out
	}
	ofKind := func(kinds ...string) []*tracedRound {
		var out []*tracedRound
		for _, tr := range t.rounds {
			if slices.Contains(kinds, tr.kind) {
				out = append(out, tr)
			}
		}
		return out
	}
	var primary []*tracedRound
	for _, tr := range t.rounds {
		if tr.primary {
			primary = append(primary, tr)
		}
	}
	med := func(key string) float64 { return median(column(primary, key)) }
	tot := func(key string) float64 { return sum(column(primary, key)) }

	v := map[string]float64{
		"dataset.generate_ms":   ms(t.stages.generate),
		"mem.analyze_ms":        ms(t.stages.analyze),
		"bayes.train_ms":        ms(t.stages.train),
		"colexec.build_ms":      ms(t.stages.colexec),
		"colexec.build_heap_mb": t.stages.colexecHeapMB,
	}
	for metric, key := range map[string]string{
		"lang.parse_us":                "us." + spanParse,
		"api.encode_spec_us":           "us." + spanEncode,
		"api.decode_spec_us":           "us." + spanDecode,
		"discovery.related_us":         "us." + spanRelated,
		"graphx.enumerate_us":          "us." + spanEnumerate,
		"graphx.candidates":            "candidates",
		"filter.decompose_us":          "us." + spanDecompose,
		"filter.filters":               "filters",
		"bayes.estimate_us":            "us." + spanEstimate,
		"bayes.estimate_calls":         "calls." + spanEstimate,
		"sched.run_us":                 "us." + spanSched,
		"sched.self_us":                "self." + spanSched,
		"sched.validations":            "validations",
		"sched.implied":                "implied",
		"exec.exists_calls":            "calls." + spanExists,
		"exec.exists_us":               "us." + spanExists,
		"exec.batch_calls":             "calls." + spanBatch,
		"exec.batch_us":                "us." + spanBatch,
		"exec.preview_us":              "us." + spanPreview,
		"exec.rows_scanned":            "rows_scanned",
		"exec.intermediate_rows":       "intermediate_rows",
		"exec.blocks_pruned":           "blocks_pruned",
		"exec.zones_pruned":            "zones_pruned",
		"exec.peak_intermediate_bytes": "peak_bytes",
		"sqlgen.assemble_us":           "us." + spanAssemble,
		"sqlgen.mappings":              "mappings",
		"filter.validation_key_us":     "us." + spanKey,
		"discovery.round_us":           "real",
		"discovery.unattributed_us":    "unattributed",
		"discovery.alloc_kb_per_round": "alloc_kb",
	} {
		v[metric] = med(key)
	}
	v["sched.implied_share"] = ratio(tot("implied"), tot("implied")+tot("validations"))
	v["sched.validations_per_candidate"] = ratio(tot("validations"), tot("candidates"))
	v["sched.pdefault_over_p1"] = ratio(med("real_default"), med("real"))
	// Batching only changes how validations are dispatched, so the ratio
	// compares scheduler runs, not whole rounds.
	v["sched.batched_over_sequential"] = ratio(tot("sched_batched"), tot("sched_bare"))
	for metric, key := range map[string]string{
		"exec.busy_share":        "exec",
		"bayes.estimate_share":   "us." + spanEstimate,
		"filter.decompose_share": "us." + spanDecompose,
		"graphx.enumerate_share": "us." + spanEnumerate,
		"sched.self_share":       "self." + spanSched,
		"sqlgen.assemble_share":  "self." + spanAssemble,
	} {
		v[metric] = ratio(tot(key), tot("stages"))
	}
	v["discovery.stages_over_round"] = ratio(tot("stages"), tot("real"))
	v["discovery.first_mapping_share"] = ratio(tot("first"), tot("real"))
	v["obs.trace_overhead_share"] = ratio(tot("real_obs"), tot("real")) - 1
	v["harness.trace_overhead_share"] = ratio(tot("staged"), tot("staged_bare")) - 1

	// Session metrics: the cache counters of a whole trajectory, and the
	// real rounds by kind.
	if cold := ofKind(kindCold); len(cold) > 0 {
		session := ofKind(kindCold, kindRefine, kindRevert, kindReplay)
		warm := ofKind(kindRefine, kindRevert, kindReplay)
		visits := float64(len(cold))
		hits, misses := sum(column(session, "hits")), sum(column(session, "misses"))
		warmHits, warmMisses := sum(column(warm, "hits")), sum(column(warm, "misses"))
		v["filter.cache_hits"] = hits / visits
		v["filter.cache_misses"] = misses / visits
		v["filter.cache_stores"] = sum(column(session, "stores")) / visits
		v["filter.cache_hit_share"] = ratio(hits, hits+misses)
		v["session.validations_saved_share"] = ratio(warmHits, warmHits+warmMisses)
		v["session.cold_us"] = median(column(cold, "real"))
		v["session.refine_us"] = median(column(ofKind(kindRefine), "real"))
		v["session.replay_us"] = median(column(ofKind(kindRevert, kindReplay), "real"))
		v["session.replay_over_cold"] = ratio(v["session.replay_us"], v["session.cold_us"])
	}

	// Serving metrics: client-observed time per request kind, the handler
	// without a socket, and what the server adds to the library round.
	if unary := ofKind(kindUnary); len(unary) > 0 {
		v["client.unary_us"] = median(column(unary, "client"))
		v["client.stream_us"] = median(column(ofKind(kindStream), "client"))
		v["client.refine_us"] = median(column(ofKind(kindSession), "client"))
		v["server.handler_us"] = median(column(unary, "handler"))
		v["server.wire_us"] = max(0, v["client.unary_us"]-v["server.handler_us"])
		v["server.overhead_share"] = 1 - ratio(sum(column(unary, "real_default")), sum(column(unary, "client")))
	}
	for k, extra := range t.extra {
		v[k] = extra
	}
	return v
}
