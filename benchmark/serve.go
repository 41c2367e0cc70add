package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"prism"
	"prism/api"
	"prism/client"
	"prism/internal/server"
)

// round kinds of the serving workload, by the API that carried the round.
const (
	kindUnary   = "unary"
	kindStream  = "stream"
	kindSession = "session"
)

// serveTimeoutMs is the round budget every request asks for: the same 2 s
// the library workloads set, on a server that otherwise runs its defaults.
const serveTimeoutMs = int(roundBudget / time.Millisecond)

// walkthroughs are the three hand-written demo grids, one per bundled
// database: the only requests that exercise the string-grid parser.
var walkthroughs = []api.DiscoverRequest{
	{Database: "mondial", NumColumns: 3,
		Samples:  [][]string{{"California || Nevada", "Lake Tahoe", ""}},
		Metadata: []string{"", "", "DataType=='decimal' AND MinValue>='0'"}},
	{Database: "imdb", NumColumns: 3,
		Samples:  [][]string{{"Inception", "Leonardo DiCaprio || Tim Robbins", "[8, 10]"}},
		Metadata: []string{"", "", "DataType=='decimal' AND MinValue>='0' AND MaxValue<='10'"}},
	{Database: "nba", NumColumns: 3,
		Samples:  [][]string{{"Los Angeles", "Lakers", "[80, 140]"}},
		Metadata: []string{"", "", "DataType=='int' AND MinValue>='0'"}},
}

var priorities = []string{api.PriorityInteractive, api.PriorityNormal, api.PriorityBatch}

// serveEnv is a running in-process server on loopback plus the request
// material of the mixed workload.
type serveEnv struct {
	srv     *server.Server
	httpSrv *http.Server
	baseURL string
	served  chan error

	engines map[string]*prism.Engine
	pool    []poolSpec
	typed   []*api.Spec
}

// startServer is one set-up of the serving workload: a default server,
// the three bundled engines with their default executors built, and a
// listener on a free loopback port.
func startServer() (*serveEnv, error) {
	srv := server.New()
	engines := make(map[string]*prism.Engine)
	for _, name := range prism.DatasetNames() {
		eng, err := srv.Registry.Get(name)
		if err != nil {
			return nil, err
		}
		// As in buildEngine: build the lazily-built default executor now.
		if _, err := eng.SampleRows(eng.Database().Schema().Tables()[0].Name, 1); err != nil {
			return nil, err
		}
		engines[name] = eng
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{
		srv:     srv,
		httpSrv: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		baseURL: "http://" + ln.Addr().String(),
		served:  make(chan error, 1),
		engines: engines,
	}
	go func() { e.served <- e.httpSrv.Serve(ln) }()
	return e, nil
}

// stop shuts the server down and waits for its accept loop to end.
func (e *serveEnv) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.httpSrv.Shutdown(ctx)
	<-e.served
	return err
}

// newServeEnv builds the server def.setups times (stopping all but the
// last) and generates the pool over the served mondial database.
func newServeEnv(def workloadDef, seed int64) (*serveEnv, []float64, error) {
	var prev *serveEnv
	env, times, err := timedSetups(def.setups, func() (*serveEnv, error) {
		if prev != nil {
			if err := prev.stop(); err != nil {
				return nil, err
			}
		}
		e, err := startServer()
		prev = e
		return e, err
	})
	if err != nil {
		return nil, nil, err
	}
	env.pool, err = buildPool(env.engines["mondial"].Database(), def, seed)
	if err != nil {
		return nil, nil, err
	}
	for _, ps := range env.pool {
		typed, err := api.EncodeSpec(ps.spec)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", ps.name, err)
		}
		env.typed = append(env.typed, typed)
	}
	return env, times, nil
}

// oracleEntries is the pool followed by one entry per walkthrough grid;
// walkthroughs have no generating mapping, so only pass-to-pass and
// wire-versus-library equality check them.
func (e *serveEnv) oracleEntries() []poolSpec {
	entries := append([]poolSpec(nil), e.pool...)
	for _, w := range walkthroughs {
		entries = append(entries, poolSpec{name: "walkthrough/" + w.Database})
	}
	return entries
}

// learnFromLibrary fills the oracle with what the in-process engines
// answer, so every mapping set that later crosses the wire is compared
// with one that did not.
func (e *serveEnv) learnFromLibrary(ctx context.Context, orc *oracle) error {
	mondial := e.engines["mondial"]
	for i, ps := range e.pool {
		report, err := mondial.Discover(ctx, ps.spec, defaultOptions())
		if err := roundError(report, err); err != nil {
			return fmt.Errorf("%s: %w", ps.name, err)
		}
		if err := orc.check(i, false, reportSQLs(report)); err != nil {
			return err
		}
		refinedSpec, err := ps.refine.Apply(ps.spec)
		if err != nil {
			return fmt.Errorf("%s: %w", ps.name, err)
		}
		report, err = mondial.Discover(ctx, refinedSpec, defaultOptions())
		if err := roundError(report, err); err != nil {
			return fmt.Errorf("%s refined: %w", ps.name, err)
		}
		if err := orc.check(i, true, reportSQLs(report)); err != nil {
			return err
		}
	}
	for k, w := range walkthroughs {
		spec, err := prism.ParseConstraints(w.NumColumns, w.Samples, w.Metadata)
		if err != nil {
			return err
		}
		report, err := e.engines[w.Database].Discover(ctx, spec, defaultOptions())
		if err := roundError(report, err); err != nil {
			return fmt.Errorf("walkthrough/%s: %w", w.Database, err)
		}
		if err := orc.check(len(e.pool)+k, false, reportSQLs(report)); err != nil {
			return err
		}
	}
	return nil
}

// benchClient is one closed-loop caller: one tenant, one connection, and a
// client per priority class (the priority header is client-level state).
type benchClient struct {
	transport  *http.Transport
	byPriority map[string]*client.Client
}

func (e *serveEnv) newClient(index int) (*benchClient, error) {
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	httpc := &http.Client{Transport: transport}
	bc := &benchClient{transport: transport, byPriority: make(map[string]*client.Client)}
	for _, pri := range priorities {
		c, err := client.New(e.baseURL,
			client.WithHTTPClient(httpc),
			client.WithTenant(fmt.Sprintf("tenant-%d", index)),
			client.WithPriority(pri))
		if err != nil {
			return nil, err
		}
		bc.byPriority[pri] = c
	}
	return bc, nil
}

func responseSQLs(r *api.DiscoverResponse) []string {
	if r == nil {
		return nil
	}
	sqls := make([]string, len(r.Mappings))
	for i, m := range r.Mappings {
		sqls[i] = m.SQL
	}
	return sqls
}

func responseError(r *api.DiscoverResponse, err error) error {
	if err != nil {
		return err
	}
	if r == nil {
		return fmt.Errorf("no response")
	}
	if r.TimedOut {
		return fmt.Errorf("round hit the %s budget", roundBudget)
	}
	return nil
}

func (e *serveEnv) typedRequest(i int) api.DiscoverRequest {
	return api.DiscoverRequest{Database: "mondial", Spec: e.typed[i], TimeoutMs: serveTimeoutMs}
}

func wireDelta(d prism.Delta) *api.Delta {
	out := &api.Delta{}
	for _, u := range d.UpdateCells {
		out.UpdateCells = append(out.UpdateCells, api.CellUpdate{Row: u.Row, Col: u.Col, Cell: u.Cell})
	}
	return out
}

func unaryRound(ctx context.Context, c *client.Client, req api.DiscoverRequest) outcome {
	start := time.Now()
	resp, err := c.Discover(ctx, req)
	total := time.Since(start)
	return outcome{kind: kindUnary, start: start, total: total, first: total, sqls: responseSQLs(resp), err: responseError(resp, err)}
}

func streamRound(ctx context.Context, c *client.Client, req api.DiscoverRequest) outcome {
	start := time.Now()
	out := outcome{kind: kindStream, start: start}
	events, err := c.DiscoverStream(ctx, req)
	if err != nil {
		out.total = time.Since(start)
		out.first, out.err = out.total, err
		return out
	}
	var result *api.DiscoverResponse
	done := false
	for ev := range events {
		switch ev.Kind {
		case prism.EventMapping:
			if out.first == 0 {
				out.first = time.Since(start)
			}
		case prism.EventDone:
			result, err, done = ev.Result, ev.Err, true
		}
	}
	out.total = time.Since(start)
	if out.first == 0 {
		out.first = out.total
	}
	if !done {
		err = fmt.Errorf("stream closed without a done event")
	}
	out.sqls, out.err = responseSQLs(result), responseError(result, err)
	return out
}

// sessionRounds is create, a seeding round over the full spec, a delta
// round that clears one cell, and close. Only the two refine calls carry a
// round; a failed create or close fails both.
func (e *serveEnv) sessionRounds(ctx context.Context, c *client.Client, i int) []outcome {
	fail := func(err error) []outcome {
		return []outcome{{kind: kindSession, err: err}, {kind: kindSession, refined: true, err: err}}
	}
	sess, err := c.CreateSession(ctx, "mondial")
	if err != nil {
		return fail(err)
	}
	requests := []api.RefineRequest{
		{Spec: e.typed[i], TimeoutMs: serveTimeoutMs},
		{Delta: wireDelta(e.pool[i].refine), TimeoutMs: serveTimeoutMs},
	}
	outs := make([]outcome, 0, len(requests))
	for k, req := range requests {
		start := time.Now()
		resp, err := sess.Refine(ctx, req)
		total := time.Since(start)
		outs = append(outs, outcome{kind: kindSession, start: start, total: total, first: total, refined: k == 1,
			sqls: responseSQLs(resp), err: responseError(resp, err)})
	}
	if err := sess.Close(ctx); err != nil {
		return fail(err)
	}
	return outs
}

// cycle issues the ten rounds of cycle j: six unary (five typed specs and
// one walkthrough grid), two streamed, and one session with two rounds.
// The sequence depends only on j, so every pass of len(pool) cycles has
// the same composition. emit receives each round with its oracle index.
func (e *serveEnv) cycle(ctx context.Context, bc *benchClient, j int, emit func(i int, out outcome)) {
	n := len(e.pool)
	c := bc.byPriority[priorities[j%len(priorities)]]
	typed := func(i int) { emit(i, unaryRound(ctx, c, e.typedRequest(i))) }
	stream := func(i int) { emit(i, streamRound(ctx, c, e.typedRequest(i))) }

	typed((5 * j) % n)
	typed((5*j + 1) % n)
	stream((2 * j) % n)
	typed((5*j + 2) % n)
	for _, out := range e.sessionRounds(ctx, c, j%n) {
		emit(j%n, out)
	}
	k := j % len(walkthroughs)
	w := walkthroughs[k]
	w.TimeoutMs = serveTimeoutMs
	emit(n+k, unaryRound(ctx, c, w))
	typed((5*j + 3) % n)
	stream((2*j + 1) % n)
	typed((5*j + 4) % n)
}

// numClients is the closed-loop client count: one per core, at most four.
func numClients() int { return min(runtime.NumCPU(), 4) }

// runServe is the untraced end-to-end run of the serving workload.
func runServe(ctx context.Context, def workloadDef, cfg runConfig) (*result, error) {
	env, setupTimes, err := newServeEnv(def, cfg.seed)
	if err != nil {
		return nil, err
	}
	defer env.stop()
	orc := newOracle(env.engines["mondial"].Database(), env.oracleEntries())
	if err := cfg.golden(def, env.pool, orc); err != nil {
		return nil, err
	}
	if err := env.learnFromLibrary(ctx, orc); err != nil {
		return nil, fmt.Errorf("library reference: %w", err)
	}

	clients := make([]*benchClient, numClients())
	for i := range clients {
		if clients[i], err = env.newClient(i); err != nil {
			return nil, err
		}
		defer clients[i].transport.CloseIdleConnections()
	}
	n := len(env.pool)

	// Warm-up and correctness pass: one client, every cycle of a pass.
	warm := newTally()
	warmStart := time.Now()
	for j := 0; j < n; j++ {
		env.cycle(ctx, clients[0], j, func(i int, out outcome) { warm.record(orc, i, out) })
	}
	warmup := time.Since(warmStart)
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up pass: %d of %d rounds failed, first: %w", warm.failed, warm.attempted, warm.firstFailure)
	}

	// Measured phase: every client runs whole passes of n cycles, offset
	// so that clients do not walk the pool in step. The oracle is complete
	// after the warm-up, so concurrent checks only read it.
	tallies := make([]*tally, len(clients))
	passes := make([]int, len(clients))
	var wg sync.WaitGroup
	for ci, bc := range clients {
		tallies[ci] = newTally()
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := tallies[ci]
			offset := ci * n / len(clients)
			passes[ci], _ = runPasses(cfg.seconds, minSamples, func() int {
				return t.timedPass(func() {
					for j := 0; j < n; j++ {
						env.cycle(ctx, bc, (j+offset)%n, func(i int, out outcome) { t.record(orc, i, out) })
					}
				})
			})
		}()
	}
	wg.Wait()
	heap := liveHeapMB()

	// Throughput is the sum of the callers' own median pass rates: callers
	// finish their last pass at different times, so no common window exists.
	t := newTally()
	rate := 0.0
	for _, ct := range tallies {
		t.merge(ct)
		rate += ct.medianRate()
	}
	res := newResult(def.name, t)
	res.rate = rate
	res.setupTimes = setupTimes
	res.heapMB = heap
	res.info("clients", float64(len(clients)), "count")
	res.info("pool_specs", float64(n), "count")
	res.info("passes_per_client", float64(passes[0]), "count")
	res.info("warmup_s", warmup.Seconds(), "s")
	return res, nil
}
