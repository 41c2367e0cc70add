// Package server implements the web demonstration of Prism described in §3:
// a Configuration section (source database, number of target columns,
// number of sample constraints), a Description section (the sample and
// metadata constraint grids), and a Result section listing every discovered
// schema mapping query with its SQL text, result preview and query-graph
// explanation.
//
// It exposes server-rendered HTML (GET /, POST /discover) and the
// versioned JSON API of the prism/api package, mounted under /api/v1/*.
// Engines are served from a prism.Registry, so concurrent
// requests share preprocessed engines, every round runs under the
// request's context (an abandoned connection cancels its round
// mid-validation), and POST /api/v1/discover/stream pushes mappings and
// progress incrementally as NDJSON or SSE. The official Go client for
// this surface is the prism/client package.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prism"
	"prism/api"
	"prism/internal/discovery"
	"prism/internal/explain"
	"prism/internal/mem"
	"prism/internal/obs"
	"prism/internal/serve"
)

// Server is the demo web application.
type Server struct {
	// Registry serves the engines; the bundled data sets are pre-registered
	// and built lazily on first use.
	Registry *prism.Registry
	// TimeLimit is the per-round discovery budget (default 60s, as in the
	// paper's demo).
	TimeLimit time.Duration
	// ShutdownGrace bounds how long ListenAndServe waits for in-flight
	// requests to drain after its context is cancelled (0 = TimeLimit plus
	// slack, so a round that started before the signal can finish).
	ShutdownGrace time.Duration
	// Admission tunes the multi-tenant admission controller gating every
	// discovery round (zero fields take the serve package defaults).
	Admission serve.Config

	// streamWriteTimeout is serve.StreamWriteTimeout; the stall test
	// shortens it.
	streamWriteTimeout time.Duration

	initOnce     sync.Once
	admission    *serve.Controller
	latency      []*obs.Histogram // round latency in ms, indexed by serve.Priority
	health       *serve.Health
	panics       atomic.Int64
	streamStalls atomic.Int64
	started      time.Time
	sessions     *sessionStore
	obsReg       *obs.Registry
	tenantMu     sync.Mutex
	tenantSeen   map[string]struct{}
	tmpl         *template.Template
}

// New creates the demo server. Engines for the bundled data sets are built
// lazily on first use so start-up stays instant.
func New() *Server {
	return &Server{
		Registry:           prism.NewRegistry(),
		TimeLimit:          60 * time.Second,
		streamWriteTimeout: serve.StreamWriteTimeout,
		tmpl:               template.Must(template.New("page").Parse(pageTemplate)),
	}
}

// maxGraphs bounds the number of inline SVG explanations a response
// renders.
const maxGraphs = 3

// RegisterDatabase installs a custom database under the given name,
// alongside the bundled synthetic ones.
func (s *Server) RegisterDatabase(name string, db *mem.Database) {
	s.Registry.RegisterDatabase(name, db)
}

// engine resolves a registry engine and feeds the readiness tracker:
// a registered engine that fails to build (snapshot corruption, a bad
// ingest) is a server-side failure that should eventually flip readyz,
// while an unknown database name is a client mistake and counts for
// nothing.
func (s *Server) engine(name string) (*prism.Engine, error) {
	eng, err := s.Registry.Get(name)
	if s.health != nil {
		switch {
		case err == nil:
			s.health.ReportSuccess("engine")
		case !errors.Is(err, prism.ErrUnknownDatabase):
			s.health.ReportFailure("engine")
		}
	}
	return eng, err
}

// Handler returns the HTTP handler of the demo. The JSON API is mounted
// under api.PathPrefix (/api/v1).
func (s *Server) Handler() http.Handler {
	s.init()
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.recovered(s.handleIndex))
	mux.HandleFunc("/discover", s.recovered(s.admitted(serve.PriorityNormal, s.handleDiscoverForm)))
	// Method-less fallbacks so wrong-method requests get the structured
	// JSON 405 like every other API endpoint, not net/http's text page.
	methodNotAllowed := func(allowed string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			writeAPIError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "use "+allowed)
		}
	}
	// Every API route sits behind the panic barrier: a panicking handler
	// answers a structured 500 and the process keeps serving. method is
	// empty or a ServeMux method prefix such as "POST ".
	route := func(method, path string, h http.HandlerFunc) {
		mux.HandleFunc(method+api.PathPrefix+path, s.recovered(h))
	}
	route("", api.HealthzPath, s.handleHealthz)
	route("", api.ReadyzPath, s.handleReadyz)
	route("", "/datasets", s.handleDatasets)
	route("", "/sample", s.handleSample)
	route("", "/stats", s.handleStats)
	route("", "/metrics", s.handleMetrics)
	// Round-running endpoints pass the admission controller; one-shot
	// discovers default to the normal class, session refine rounds (a
	// human waiting) to interactive. The priority header can override.
	route("", "/discover", s.admitted(serve.PriorityNormal, s.handleDiscoverAPI))
	route("", "/discover/stream", s.admitted(serve.PriorityNormal, s.handleDiscoverStream))
	route("POST ", "/session", s.handleSessionCreate)
	route("GET ", "/session/{id}", s.handleSessionInfo)
	route("DELETE ", "/session/{id}", s.handleSessionDelete)
	route("POST ", "/session/{id}/refine", s.admitted(serve.PriorityInteractive, s.handleSessionRefine))
	route("", "/session", methodNotAllowed("POST"))
	route("", "/session/{id}", methodNotAllowed("GET or DELETE"))
	route("", "/session/{id}/refine", methodNotAllowed("POST"))
	return mux
}

// ListenAndServe starts the demo on the given address and blocks until the
// listener fails or ctx is cancelled. On cancellation it shuts down
// gracefully: the listener closes immediately, in-flight discovery rounds
// keep their request contexts and drain for up to ShutdownGrace (default:
// the per-round TimeLimit plus scheduling slack, so a round that started
// before the signal can finish), then the remaining connections are
// closed. A clean drain returns nil.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Stop admitting new rounds before the listener closes: queued
	// requests are flushed with an immediate 503 (draining) and new
	// arrivals fail fast, while rounds already running keep their request
	// contexts and finish inside the grace window below. Readiness flips
	// first so load balancers stop routing here.
	s.health.SetDraining()
	s.admission.Drain()
	grace := s.ShutdownGrace
	if grace <= 0 {
		grace = s.TimeLimit + 10*time.Second
		if s.TimeLimit <= 0 {
			grace = 30 * time.Second
		}
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		srv.Close()
		return err
	}
	return nil
}

// ---------------------------------------------------------------------------
// JSON API handlers (the wire types live in prism/api)
// ---------------------------------------------------------------------------

func writeAPIError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, api.Error{Message: msg, Code: code})
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeAPIError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, api.DatasetsResponse{Datasets: s.Registry.Names()})
}

// handleSample serves GET /api/v1/sample?db=NAME&table=NAME&limit=N: a
// preview of the named source table, for exploring a database before
// writing constraints against it. Unknown dataset and table names come
// back as structured JSON errors with a classifying code, not bare
// statuses.
func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeAPIError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "use GET")
		return
	}
	eng, err := s.engine(r.URL.Query().Get("db"))
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, api.CodeForError(err), err.Error())
		return
	}
	table := r.URL.Query().Get("table")
	limit := 10
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			writeAPIError(w, http.StatusBadRequest, api.CodeInvalidRequest,
				fmt.Sprintf("sample limit must be a positive integer, got %q", raw))
			return
		}
		limit = n
	}
	rows, err := eng.SampleRows(table, limit)
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, api.CodeForError(err), err.Error())
		return
	}
	out := make([][]string, len(rows))
	for i, row := range rows {
		cells := make([]string, len(row))
		for ci, v := range row {
			cells[ci] = v.String()
		}
		out[i] = cells
	}
	writeJSON(w, http.StatusOK, api.SampleResponse{Table: table, Rows: out})
}

func (s *Server) handleDiscoverAPI(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeAPIError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "use POST")
		return
	}
	var req api.DiscoverRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, api.DiscoverResponse{Error: "invalid JSON: " + err.Error(), Code: api.CodeBadRequest})
		return
	}
	resp, status := s.discover(r.Context(), req, false)
	writeJSON(w, status, resp)
}

// round holds the validated inputs of one discovery round.
type round struct {
	eng  *prism.Engine
	spec *prism.Spec
	opts discovery.Options
}

// specFromRequest assembles the constraint specification of a request:
// either the structured Spec tree or the demo's string grids, never both.
func specFromRequest(structured *api.Spec, numColumns int, samples [][]string, metadata []string) (*prism.Spec, error) {
	if structured != nil {
		if numColumns != 0 || len(samples) > 0 || len(metadata) > 0 {
			return nil, fmt.Errorf("send either a structured spec or the numColumns/samples grids, not both")
		}
		return structured.Decode()
	}
	if len(metadata) == 0 {
		metadata = nil
	}
	return prism.ParseConstraints(numColumns, samples, metadata)
}

// prepare resolves the engine, decodes the constraint specification and
// assembles the discovery options for a request.
func (s *Server) prepare(req api.DiscoverRequest) (*round, error) {
	eng, err := s.engine(req.Database)
	if err != nil {
		return nil, err
	}
	spec, err := specFromRequest(req.Spec, req.NumColumns, req.Samples, req.Metadata)
	if err != nil {
		return nil, err
	}
	return &round{eng: eng, spec: spec, opts: s.roundOptions(req.MaxResults, req.TimeoutMs)}, nil
}

// roundOptions assembles the discovery options shared by the discover and
// session handlers: a request's timeoutMs shortens the server's budget.
func (s *Server) roundOptions(maxResults, timeoutMs int) discovery.Options {
	timeLimit := s.TimeLimit
	if timeoutMs > 0 {
		if d := time.Duration(timeoutMs) * time.Millisecond; timeLimit <= 0 || d < timeLimit {
			timeLimit = d
		}
	}
	return discovery.Options{
		TimeLimit:      timeLimit,
		IncludeResults: true,
		ResultLimit:    10,
		MaxResults:     maxResults,
	}
}

// requestContext derives the per-round context: the request's context (so
// an abandoned connection cancels its round) bounded by the time budget.
func (rd *round) requestContext(parent context.Context) (context.Context, context.CancelFunc) {
	if rd.opts.TimeLimit > 0 {
		// Grace on top of the budget: the scheduler handles the limit itself
		// and reports a clean timeout; the deadline is a backstop.
		return context.WithTimeout(parent, rd.opts.TimeLimit+5*time.Second)
	}
	return context.WithCancel(parent)
}

// mappingResponse converts one discovered mapping for JSON transport.
func mappingResponse(m discovery.Mapping) api.Mapping {
	mr := api.Mapping{SQL: m.SQL, Tables: m.Candidate.Tree.Tables}
	for _, ref := range m.Plan.Project {
		mr.Columns = append(mr.Columns, ref.String())
	}
	if m.Result != nil {
		for _, row := range m.Result.Rows {
			cells := make([]string, len(row))
			for ci, v := range row {
				cells[ci] = v.String()
			}
			mr.ResultRows = append(mr.ResultRows, cells)
		}
	}
	return mr
}

// discoverResponse converts a report for JSON transport.
func (s *Server) discoverResponse(database string, report *discovery.Report, err error, spec *prism.Spec, withGraphs bool) api.DiscoverResponse {
	resp := api.DiscoverResponse{Database: database}
	if report != nil {
		resp.Candidates = report.CandidatesEnumerated
		resp.Filters = report.FiltersGenerated
		resp.Validations = report.Validations
		resp.Implied = report.Implied
		resp.ElapsedMS = report.Elapsed.Milliseconds()
		resp.TimedOut = report.TimedOut
		resp.Failure = report.Failure()
		if !report.Cache.IsZero() {
			resp.Cache = &api.CacheStats{
				Hits:   report.Cache.Hits,
				Misses: report.Cache.Misses,
				Stores: report.Cache.Stores,
			}
		}
	}
	if err != nil {
		resp.Error = err.Error()
		resp.Code = api.CodeForError(err)
		return resp
	}
	for i, m := range report.Mappings {
		mr := mappingResponse(m)
		if withGraphs && i < maxGraphs {
			g := explain.Build(m.Candidate, spec, m.SQL, explain.AllConstraints())
			mr.GraphSVG = g.SVG()
		}
		resp.Mappings = append(resp.Mappings, mr)
	}
	return resp
}

// discover executes a blocking discovery round for the JSON and HTML
// handlers.
func (s *Server) discover(ctx context.Context, req api.DiscoverRequest, withGraphs bool) (api.DiscoverResponse, int) {
	rd, err := s.prepare(req)
	if err != nil {
		return api.DiscoverResponse{Database: req.Database, Error: err.Error(), Code: api.CodeForError(err)}, http.StatusBadRequest
	}
	ctx, cancel := rd.requestContext(ctx)
	defer cancel()
	report, err := rd.eng.Discover(ctx, rd.spec, rd.opts)
	s.recordRoundMetrics(ctx, report)
	resp := s.discoverResponse(req.Database, report, err, rd.spec, withGraphs)
	if err != nil {
		return resp, http.StatusUnprocessableEntity
	}
	return resp, http.StatusOK
}

// handleDiscoverStream streams a discovery round incrementally. The
// response is NDJSON (application/x-ndjson), one api.StreamEvent per
// line, unless the client asks for Server-Sent Events with
// Accept: text/event-stream. Mappings are pushed as soon as the scheduler
// confirms them; the final event carries the full report.
//
// Writes go through a bounded serve.Sink under a per-write deadline: a
// consumer that can neither drain the buffer nor complete a write within
// serve.StreamWriteTimeout has its round cancelled — only its own round, so a
// stalled reader never ties up a worker slot or another tenant's stream.
func (s *Server) handleDiscoverStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeAPIError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "use POST")
		return
	}
	var req api.DiscoverRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, api.DiscoverResponse{Error: "invalid JSON: " + err.Error(), Code: api.CodeBadRequest})
		return
	}
	// Bad inputs (unknown dataset, malformed constraints) fail
	// as a structured 400 here, before the 200 streaming header goes out.
	rd, err := s.prepare(req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, api.DiscoverResponse{Database: req.Database, Error: err.Error(), Code: api.CodeForError(err)})
		return
	}
	ctx, cancel := rd.requestContext(r.Context())
	defer cancel()

	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)

	sink := serve.NewSink(w, serve.SinkOptions{
		WriteTimeout:     s.streamWriteTimeout,
		SetWriteDeadline: func(t time.Time) error { return rc.SetWriteDeadline(t) },
		Flush: func() {
			if flusher != nil {
				flusher.Flush()
			}
		},
		OnStall: func() {
			// The consumer cannot keep up: cancel this round (and only
			// this round) and count the stall for /stats.
			s.streamStalls.Add(1)
			cancel()
		},
	})
	// The event loop below is the only producer, so Close after it ends
	// cannot race Send.
	defer sink.Close()

	write := func(ev api.StreamEvent) {
		payload, err := json.Marshal(ev)
		if err != nil {
			return
		}
		var framed []byte
		if sse {
			framed = fmt.Appendf(nil, "event: %s\ndata: %s\n\n", ev.Event, payload)
		} else {
			framed = append(payload, '\n')
		}
		sink.Send(framed)
	}

	for ev := range rd.eng.DiscoverStream(ctx, rd.spec, rd.opts) {
		if ferr := faultStreamCut.Hit(); ferr != nil {
			// Injected connection drop: end the response mid-stream with
			// no done event. The deferred cancel unblocks the producing
			// goroutine and the deferred Close drains the sink.
			return
		}
		out := api.StreamEvent{
			Event:       string(ev.Kind),
			Candidates:  ev.Progress.CandidatesEnumerated,
			Filters:     ev.Progress.FiltersGenerated,
			Validations: ev.Progress.Validations,
			Implied:     ev.Progress.Implied,
			Confirmed:   ev.Progress.Confirmed,
			Pruned:      ev.Progress.Pruned,
			Unresolved:  ev.Progress.Unresolved,
			ElapsedMS:   ev.Progress.Elapsed.Milliseconds(),
			RemainingMS: ev.Progress.TimeRemaining.Milliseconds(),
		}
		switch ev.Kind {
		case api.EventMapping:
			mr := mappingResponse(*ev.Mapping)
			out.Mapping = &mr
		case api.EventDone:
			s.recordRoundMetrics(ctx, ev.Report)
			resp := s.discoverResponse(req.Database, ev.Report, ev.Err, rd.spec, false)
			out.Result = &resp
		}
		write(out)
	}
}

// ---------------------------------------------------------------------------
// HTML handlers
// ---------------------------------------------------------------------------

// pageData feeds the HTML template.
type pageData struct {
	Datasets []string
	Request  api.DiscoverRequest
	// Raw form text (one sample row per line, cells separated by '|').
	SamplesText  string
	MetadataText string
	Response     *api.DiscoverResponse
	Graphs       []template.HTML
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	data := &pageData{
		Datasets:     s.Registry.Names(),
		Request:      api.DiscoverRequest{Database: "mondial", NumColumns: 3},
		SamplesText:  "California || Nevada | Lake Tahoe | ",
		MetadataText: " |  | DataType=='decimal' AND MinValue>='0'",
	}
	s.render(w, data)
}

func (s *Server) handleDiscoverForm(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if err := r.ParseForm(); err != nil {
		http.Error(w, "bad form: "+err.Error(), http.StatusBadRequest)
		return
	}
	numColumns, _ := strconv.Atoi(r.FormValue("columns"))
	samplesText := r.FormValue("samples")
	metadataText := r.FormValue("metadata")
	req := api.DiscoverRequest{
		Database:   r.FormValue("database"),
		NumColumns: numColumns,
		Samples:    parseGridText(samplesText, numColumns),
	}
	if strings.TrimSpace(metadataText) != "" {
		req.Metadata = api.SplitCells(metadataText, numColumns)
	}
	resp, _ := s.discover(r.Context(), req, true)
	data := &pageData{
		Datasets:     s.Registry.Names(),
		Request:      req,
		SamplesText:  samplesText,
		MetadataText: metadataText,
		Response:     &resp,
	}
	for _, m := range resp.Mappings {
		if m.GraphSVG != "" {
			data.Graphs = append(data.Graphs, template.HTML(m.GraphSVG)) //nolint:gosec // SVG is generated by this binary from escaped labels.
		}
	}
	s.render(w, data)
}

func (s *Server) render(w http.ResponseWriter, data *pageData) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := s.tmpl.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// parseGridText converts the textarea form of the sample grid (one row per
// line, cells separated by '|') into rows of exactly numColumns cells.
func parseGridText(text string, numColumns int) [][]string {
	var rows [][]string
	for _, line := range strings.Split(text, "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		rows = append(rows, api.SplitCells(line, numColumns))
	}
	return rows
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

const pageTemplate = `<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>Prism — Multiresolution Schema Mapping</title>
<style>
body { font-family: Helvetica, Arial, sans-serif; margin: 2rem; max-width: 70rem; }
section { border: 1px solid #ccc; border-radius: 6px; padding: 1rem; margin-bottom: 1.5rem; }
h2 { margin-top: 0; }
textarea, input, select { font-family: monospace; width: 100%; box-sizing: border-box; }
table { border-collapse: collapse; margin: 0.5rem 0; }
td, th { border: 1px solid #999; padding: 2px 8px; }
pre.sql { background: #f4f4f4; padding: 0.5rem; overflow-x: auto; }
.stats { color: #555; font-size: 0.9rem; }
.failure { color: #a00; font-weight: bold; }
</style>
</head>
<body>
<h1>Prism — Multiresolution Schema Mapping</h1>

<form method="POST" action="/discover">
<section>
<h2>Configuration</h2>
<label>Source database:
<select name="database">
{{range .Datasets}}<option value="{{.}}" {{if eq . $.Request.Database}}selected{{end}}>{{.}}</option>{{end}}
</select></label>
<label>Number of columns in the target schema:
<input type="number" name="columns" value="{{.Request.NumColumns}}" min="1" max="8"></label>
</section>

<section>
<h2>Description</h2>
<p>Sample / result constraints — one row per line, cells separated by <code>|</code>.
Cells accept the multiresolution language: <code>California || Nevada</code>,
<code>&gt;= 100 &amp;&amp; &lt;= 600</code>, <code>[100, 600]</code>, or exact values.</p>
<textarea name="samples" rows="3">{{.SamplesText}}</textarea>
<p>Metadata constraints — a single row, one cell per target column, e.g.
<code>DataType=='decimal' AND MinValue&gt;='0'</code>.</p>
<textarea name="metadata" rows="2">{{.MetadataText}}</textarea>
<p><button type="submit">Start Searching!</button></p>
</section>
</form>

{{if .Response}}
<section>
<h2>Result</h2>
{{if .Response.Error}}<p class="failure">Error: {{.Response.Error}}</p>{{end}}
{{if .Response.Failure}}<p class="failure">{{.Response.Failure}}</p>{{end}}
<p class="stats">candidates: {{.Response.Candidates}} · filters: {{.Response.Filters}} ·
validations: {{.Response.Validations}} · elapsed: {{.Response.ElapsedMS}} ms</p>
{{range $i, $m := .Response.Mappings}}
<h3>Query {{$i}}</h3>
<pre class="sql">{{$m.SQL}}</pre>
{{if $m.ResultRows}}
<table>
<tr>{{range $m.Columns}}<th>{{.}}</th>{{end}}</tr>
{{range $m.ResultRows}}<tr>{{range .}}<td>{{.}}</td>{{end}}</tr>{{end}}
</table>
{{end}}
{{end}}
{{range .Graphs}}{{.}}{{end}}
</section>
{{end}}
</body>
</html>
`
