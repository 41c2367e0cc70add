// Command prism-cli discovers schema mapping queries from the command line.
//
// Example (the paper's §3 walkthrough):
//
//	prism-cli -db mondial -columns 3 \
//	    -sample "California || Nevada | Lake Tahoe | " \
//	    -metadata " |  | DataType=='decimal' AND MinValue>='0'" \
//	    -results -explain ascii
//
// With -session the CLI becomes a small REPL over an interactive
// refinement session: edit constraint cells between rounds and re-run; the
// session's filter-outcome cache makes refined rounds validate only what
// changed. Type "help" at the prompt for the commands.
//
// With -remote URL every mode — one-shot, -stream and -session — drives a
// prism-demo server through the client SDK (prism/client) over the
// versioned /api/v1 JSON API instead of running the engine in-process:
//
//	prism-cli -remote http://localhost:8080 -db mondial -columns 3 \
//	    -sample "California || Nevada | Lake Tahoe | " -results
//
// Local and remote execution return identical mapping sets and SQL order;
// only -explain requires the local engine.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"prism"
	"prism/api"
	"prism/client"
)

// sampleFlags collects repeated -sample flags.
type sampleFlags []string

func (s *sampleFlags) String() string { return strings.Join(*s, "; ") }

func (s *sampleFlags) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	// Ctrl-C cancels the discovery round; the partial report found so far is
	// still printed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "prism-cli:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, in io.Reader, out io.Writer) error {
	f, err := parseFlags(args)
	if err != nil {
		return err
	}
	if f.remote != "" {
		return runRemote(ctx, f, in, out)
	}
	return runLocal(ctx, f, in, out)
}

// cliFlags are the parsed and checked command line: the flags, the
// constraint grids split into cells and the specification they parse to.
type cliFlags struct {
	db, remote, explain, trace string
	columns, maxResults        int
	timeLimit                  time.Duration
	results, stream, session   bool
	rows                       [][]string
	meta                       []string
	// spec is nil only for a session that starts with no constraints.
	spec *prism.Spec
}

// parseFlags reads the flags, refuses the combinations no mode supports and
// parses the constraint grids.
func parseFlags(args []string) (*cliFlags, error) {
	f := &cliFlags{}
	fs := flag.NewFlagSet("prism-cli", flag.ContinueOnError)
	fs.StringVar(&f.db, "db", "mondial", "source database: mondial, imdb, nba, or file:PATH (a CSV, SQLite or snapshot file)")
	fs.IntVar(&f.columns, "columns", 3, "number of columns in the target schema")
	var samples sampleFlags
	fs.Var(&samples, "sample", "sample-constraint row, cells separated by '|' (repeatable)")
	metadata := fs.String("metadata", "", "metadata-constraint row, cells separated by '|'")
	fs.DurationVar(&f.timeLimit, "timeout", 60*time.Second, "discovery time limit per round, enforced as a context deadline")
	fs.IntVar(&f.maxResults, "max-results", 0, "cap on returned mapping queries (0 = all)")
	fs.BoolVar(&f.results, "results", false, "execute each mapping and print a result preview")
	fs.BoolVar(&f.stream, "stream", false, "stream mappings and progress as they are found instead of waiting for the round to finish")
	fs.BoolVar(&f.session, "session", false, "interactive refinement session: edit constraints between rounds at a REPL prompt; refined rounds reuse cached filter outcomes")
	fs.StringVar(&f.remote, "remote", "", "base URL of a prism-demo server; rounds then run remotely through the /api/v1 client instead of in-process")
	explain := fs.String("explain", "", "render the first mapping's query graph: ascii, dot or svg")
	fs.StringVar(&f.trace, "trace", "", "write the round's span trace as NDJSON to FILE (one-shot local rounds)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	f.explain = strings.ToLower(*explain)
	switch {
	case f.explain != "" && f.explain != "ascii" && f.explain != "dot" && f.explain != "svg":
		return nil, fmt.Errorf("unknown -explain mode %q (want ascii, dot or svg)", *explain)
	case f.remote != "" && f.explain != "":
		return nil, fmt.Errorf("-explain needs the in-process engine; it is not available with -remote")
	case f.trace != "" && f.remote != "":
		return nil, fmt.Errorf("-trace needs the in-process engine; it is not available with -remote")
	case f.trace != "" && f.session:
		return nil, fmt.Errorf("-trace covers one round; it is not available with -session")
	}

	for _, s := range samples {
		f.rows = append(f.rows, api.SplitCells(s, f.columns))
	}
	if strings.TrimSpace(*metadata) != "" {
		f.meta = api.SplitCells(*metadata, f.columns)
	}
	// A session may start with an empty Description and build it at the
	// prompt; every other mode needs constraints up front.
	if !f.session || len(f.rows) > 0 || f.meta != nil {
		var err error
		if f.spec, err = prism.ParseConstraints(f.columns, f.rows, f.meta); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// runRemote runs every mode through the client against a prism-demo server.
func runRemote(ctx context.Context, f *cliFlags, in io.Reader, out io.Writer) error {
	c, err := client.New(f.remote)
	if err != nil {
		return err
	}
	if f.session {
		sess, err := c.CreateSession(ctx, f.db)
		if err != nil {
			return err
		}
		rr := &remoteRunner{
			sess: sess,
			base: api.RefineRequest{
				MaxResults: f.maxResults,
				TimeoutMs:  timeoutMs(f.timeLimit),
			},
		}
		label := fmt.Sprintf("%s at %s", f.db, f.remote)
		return sessionLoop(ctx, in, out, rr, label, f.columns, f.rows, f.meta, f.timeLimit)
	}
	wireSpec, err := api.EncodeSpec(f.spec)
	if err != nil {
		return err
	}
	req := api.DiscoverRequest{
		Database:   f.db,
		Spec:       wireSpec,
		MaxResults: f.maxResults,
		TimeoutMs:  timeoutMs(f.timeLimit),
	}
	if f.stream {
		return remoteStreamRound(ctx, out, c, req, f.results)
	}
	return remoteRound(ctx, out, c, req, f.results)
}

// runLocal runs every mode on an in-process engine.
func runLocal(ctx context.Context, f *cliFlags, in io.Reader, out io.Writer) error {
	eng, err := prism.Open(f.db)
	if err != nil {
		return err
	}
	opts := prism.Options{
		TimeLimit:      f.timeLimit,
		MaxResults:     f.maxResults,
		IncludeResults: f.results,
		ResultLimit:    10,
		Trace:          f.trace != "",
	}
	if f.session {
		// The REPL bounds each round, and may sit idle between rounds.
		rr := &localRunner{sess: eng.NewSession(ctx), opts: opts}
		return sessionLoop(ctx, in, out, rr, eng.Database().Name, f.columns, f.rows, f.meta, f.timeLimit)
	}
	// The timeout is enforced as a context deadline so the whole round is
	// bounded even if it wedges outside discovery. The grace keeps the
	// engine's own budget (Options.TimeLimit, which covers every phase)
	// firing first, so an overrun is reported as a clean paper-style
	// timeout rather than a cancellation.
	if f.timeLimit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.timeLimit+2*time.Second)
		defer cancel()
	}

	var report *prism.Report
	if f.stream {
		report, err = streamRound(ctx, out, eng, f.spec, opts)
	} else {
		report, err = eng.Discover(ctx, f.spec, opts)
	}
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if report == nil {
		return err
	}
	if f.trace != "" && report.Trace != nil {
		if werr := writeTrace(f.trace, report.Trace); werr != nil {
			return werr
		}
		fmt.Fprintf(out, "trace written to %s\n", f.trace)
	}
	printRound(out, viewFromReport(report), "", "\n", f.results)
	if f.explain != "" && len(report.Mappings) > 0 {
		g := prism.Explain(report.Mappings[0], f.spec, prism.AllConstraints())
		fmt.Fprintln(out)
		switch f.explain {
		case "ascii":
			fmt.Fprint(out, g.ASCII())
		case "dot":
			fmt.Fprint(out, g.DOT())
		case "svg":
			fmt.Fprint(out, g.SVG())
		}
	}
	return nil
}

// writeTrace dumps a round's span tree as NDJSON.
func writeTrace(path string, trace *prism.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteNDJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timeoutMs converts the -timeout flag for the wire (0 keeps the server's
// own budget).
func timeoutMs(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return int(d.Milliseconds())
}

// ---------------------------------------------------------------------------
// Remote one-shot and streaming rounds
// ---------------------------------------------------------------------------

// remoteSummary renders a response's statistics in the shape of
// Report.Summary, so local and remote output read alike.
func remoteSummary(resp *api.DiscoverResponse) string {
	var b strings.Builder
	fmt.Fprintf(&b, "candidates=%d filters=%d validations=%d mappings=%d elapsed=%s",
		resp.Candidates, resp.Filters, resp.Validations, len(resp.Mappings),
		(time.Duration(resp.ElapsedMS) * time.Millisecond).String())
	if resp.Cache != nil {
		fmt.Fprintf(&b, " cache=%d/%d hits (validations saved)", resp.Cache.Hits, resp.Cache.Hits+resp.Cache.Misses)
	}
	if resp.TimedOut {
		b.WriteString(" TIMED OUT")
	}
	return b.String()
}

// remoteRound runs one blocking discovery round through the client.
func remoteRound(ctx context.Context, out io.Writer, c *client.Client, req api.DiscoverRequest, showResults bool) error {
	resp, err := c.Discover(ctx, req)
	if err != nil {
		return err
	}
	printRound(out, viewFromResponse(resp), "", "\n", showResults)
	return nil
}

// remoteStreamRound consumes a remote DiscoverStream, printing mappings
// the moment the server pushes them.
func remoteStreamRound(ctx context.Context, out io.Writer, c *client.Client, req api.DiscoverRequest, showResults bool) error {
	events, err := c.DiscoverStream(ctx, req)
	if err != nil {
		return err
	}
	n := 0
	for ev := range events {
		switch ev.Kind {
		case prism.EventCandidates:
			fmt.Fprintf(out, "candidates: %d\n", ev.Progress.CandidatesEnumerated)
		case prism.EventFilters:
			fmt.Fprintf(out, "filters: %d\n", ev.Progress.FiltersGenerated)
		case prism.EventMapping:
			n++
			fmt.Fprintf(out, "<- mapping %d (after %d validations): %s\n", n, ev.Progress.Validations, ev.Mapping.SQL)
		case prism.EventDone:
			if ev.Result != nil {
				printRound(out, viewFromResponse(ev.Result), "", "\n", showResults)
			}
			// A failed round exits nonzero like the local path; client-side
			// cancellation still prints whatever arrived and exits clean.
			if ev.Err != nil && !errors.Is(ev.Err, context.Canceled) && !errors.Is(ev.Err, context.DeadlineExceeded) {
				return ev.Err
			}
			return nil
		}
	}
	return ctx.Err()
}

// ---------------------------------------------------------------------------
// Session REPL (local and remote)
// ---------------------------------------------------------------------------

// queryView is one discovered query of a round, transport-neutral.
type queryView struct {
	sql    string
	result string
}

// roundView is the printable outcome of one round, local or remote.
type roundView struct {
	summary string
	failure string
	queries []queryView
}

// printRound writes a round for every mode: the summary under its heading,
// the failure, then each query after sep, with its result preview (the server
// attaches up to 10 rows per mapping) when results is set. One-shot rounds
// pass no heading and a blank line; the REPL numbers the round and packs it.
func printRound(out io.Writer, v *roundView, heading, sep string, results bool) {
	fmt.Fprintf(out, "%s%s\n", heading, v.summary)
	if v.failure != "" {
		fmt.Fprintln(out, "FAILURE:", v.failure)
	}
	for i, q := range v.queries {
		fmt.Fprintf(out, "%s-- query %d --\n%s\n", sep, i+1, q.sql)
		if results {
			fmt.Fprint(out, q.result)
		}
	}
}

// roundRunner abstracts where a session round executes: in-process
// (localRunner) or on a prism-demo server through the client SDK
// (remoteRunner). The REPL is identical either way.
type roundRunner interface {
	// discover seeds the session with a full specification and runs the
	// first round.
	discover(ctx context.Context, columns int, rows [][]string, meta []string) (*roundView, error)
	// refine applies the queued delta and runs one more round.
	refine(ctx context.Context, delta prism.Delta) (*roundView, error)
	// rounds reports how many rounds have actually completed.
	rounds() int
	// specText renders the session's current constraints ("" when the
	// runner cannot reproduce them, e.g. remotely).
	specText() string
	// statsText renders the session's cache statistics.
	statsText(ctx context.Context) string
	close()
}

// localRunner runs rounds on an in-process engine session.
type localRunner struct {
	sess *prism.Session
	opts prism.Options
}

func viewFromReport(r *prism.Report) *roundView {
	if r == nil {
		return nil
	}
	v := &roundView{summary: r.Summary(), failure: r.Failure()}
	for _, m := range r.Mappings {
		q := queryView{sql: m.SQL}
		if m.Result != nil {
			q.result = m.Result.String()
		}
		v.queries = append(v.queries, q)
	}
	return v
}

func (l *localRunner) discover(ctx context.Context, columns int, rows [][]string, meta []string) (*roundView, error) {
	spec, err := prism.ParseConstraints(columns, rows, meta)
	if err != nil {
		return nil, err
	}
	report, err := l.sess.Discover(ctx, spec, l.opts)
	return viewFromReport(report), err
}

func (l *localRunner) refine(ctx context.Context, delta prism.Delta) (*roundView, error) {
	report, err := l.sess.Refine(ctx, delta, l.opts)
	return viewFromReport(report), err
}

func (l *localRunner) rounds() int { return l.sess.Rounds() }

func (l *localRunner) specText() string {
	if spec := l.sess.Spec(); spec != nil {
		return spec.String()
	}
	return ""
}

func (l *localRunner) statsText(context.Context) string {
	st := l.sess.CacheStats()
	return fmt.Sprintf("cache: %d/%d entries, %d hits, %d misses, %d stores, %d evictions over %d rounds",
		st.Size, st.Capacity, st.Hits, st.Misses, st.Stores, st.Evictions, l.sess.Rounds())
}

func (l *localRunner) close() { l.sess.Close() }

// remoteRunner runs rounds on a server-side session through the client.
type remoteRunner struct {
	sess       *client.Session
	base       api.RefineRequest // round options; the spec/delta is set per call
	lastRounds int
}

// commit resyncs the round counter from the response and keeps
// every round the server actually committed — including failed ones,
// which still applied the delta server-side (mirroring the local runner,
// where a partial report clears the queued edits). Responses that did not
// consume a round (rejected deltas, envelope errors) yield nil so the
// REPL keeps the pending edits.
func (r *remoteRunner) commit(resp *api.DiscoverResponse) *roundView {
	if resp == nil {
		return nil
	}
	committed := resp.Round > r.lastRounds
	if committed {
		r.lastRounds = resp.Round
	}
	if resp.Error != "" && !committed {
		return nil
	}
	return viewFromResponse(resp)
}

func viewFromResponse(resp *api.DiscoverResponse) *roundView {
	v := &roundView{summary: remoteSummary(resp), failure: resp.Failure}
	for _, m := range resp.Mappings {
		q := queryView{sql: m.SQL}
		if len(m.ResultRows) > 0 {
			var b strings.Builder
			for _, row := range m.ResultRows {
				fmt.Fprintf(&b, "  (%s)\n", strings.Join(row, ", "))
			}
			q.result = b.String()
		}
		v.queries = append(v.queries, q)
	}
	return v
}

func (r *remoteRunner) discover(ctx context.Context, columns int, rows [][]string, meta []string) (*roundView, error) {
	req := r.base
	req.NumColumns = columns
	req.Samples = rows
	req.Metadata = meta
	return r.runRound(ctx, req)
}

func (r *remoteRunner) refine(ctx context.Context, delta prism.Delta) (*roundView, error) {
	req := r.base
	req.Delta = wireDelta(delta)
	return r.runRound(ctx, req)
}

func (r *remoteRunner) runRound(ctx context.Context, req api.RefineRequest) (*roundView, error) {
	resp, err := r.sess.Refine(ctx, req)
	view := r.commit(resp)
	if err != nil && resp == nil {
		// Transport-level failure (deadline, dropped connection): the
		// server may still have committed the round — its session applies
		// the delta even when the round errors. Resync so the REPL does
		// not re-apply (and thereby double-apply) the queued edits.
		ictx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if info, ierr := r.sess.Info(ictx); ierr == nil && info.Rounds > r.lastRounds {
			r.lastRounds = info.Rounds
			view = &roundView{summary: fmt.Sprintf(
				"round committed on the server (%d rounds) but its results were lost: %v", info.Rounds, err)}
		}
	}
	return view, err
}

func (r *remoteRunner) rounds() int { return r.lastRounds }

// specText is empty remotely: the authoritative refined spec lives on the
// server, and the REPL falls back to its local mirror of the initial grid.
func (r *remoteRunner) specText() string { return "" }

func (r *remoteRunner) statsText(ctx context.Context) string {
	info, err := r.sess.Info(ctx)
	if err != nil {
		return "stats unavailable: " + err.Error()
	}
	return fmt.Sprintf("cache: %d hits, %d misses, %d stores over %d rounds (server session %s)",
		info.Cache.Hits, info.Cache.Misses, info.Cache.Stores, info.Rounds, info.SessionID)
}

func (r *remoteRunner) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = r.sess.Close(ctx)
}

// wireDelta converts the engine delta into its wire form.
func wireDelta(d prism.Delta) *api.Delta {
	out := &api.Delta{
		RemoveSamples: d.RemoveSamples,
		AddSamples:    d.AddSamples,
	}
	for _, u := range d.UpdateCells {
		out.UpdateCells = append(out.UpdateCells, api.CellUpdate{Row: u.Row, Col: u.Col, Cell: u.Cell})
	}
	for _, m := range d.SetMetadata {
		out.SetMetadata = append(out.SetMetadata, api.MetadataUpdate{Col: m.Col, Cell: m.Cell})
	}
	return out
}

const sessionHelp = `commands:
  sample CELLS        add a sample row, cells separated by '|'
  set ROW COL CELL    rewrite one sample cell (1-based; empty CELL clears)
  clear ROW COL       clear one sample cell
  meta COL CELL       set a metadata constraint (empty CELL clears)
  remove ROW          drop a sample row
  show                print the current constraints and queued edits
  reset               discard the queued (not yet run) edits
  run                 run a discovery round with the edits applied
  stats               print the session's cache statistics
  quit                end the session
`

// sessionLoop is the -session REPL: it owns one refinement session (local
// or remote behind roundRunner) and turns edit commands into deltas, so
// every round after the first reuses the cached filter outcomes of the
// rounds before it.
func sessionLoop(ctx context.Context, in io.Reader, out io.Writer, rr roundRunner, label string, columns int, rows [][]string, meta []string, timeLimit time.Duration) error {
	defer rr.close()
	var pending prism.Delta
	round := 0

	runRound := func() {
		// The per-round deadline: the session context stays untimed (the
		// user may think between rounds for as long as they like), each
		// round is bounded like a one-shot invocation.
		roundCtx, cancel := ctx, context.CancelFunc(func() {})
		if timeLimit > 0 {
			roundCtx, cancel = context.WithTimeout(ctx, timeLimit+2*time.Second)
		}
		defer cancel()
		var view *roundView
		var err error
		if round == 0 {
			round++
			view, err = rr.discover(roundCtx, columns, rows, meta)
		} else {
			round++
			view, err = rr.refine(roundCtx, pending)
		}
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			if view == nil {
				if round > 0 && rr.rounds() < round {
					round-- // the round never ran; keep the pending edits
				}
				return
			}
		}
		pending = prism.Delta{}
		printRound(out, view, fmt.Sprintf("round %d: ", round), "", true)
	}

	fmt.Fprintf(out, "session over %s (%d target columns) — type 'help' for commands\n", label, columns)
	scanner := bufio.NewScanner(in)
	for {
		fmt.Fprint(out, "prism> ")
		if !scanner.Scan() {
			fmt.Fprintln(out)
			return scanner.Err()
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		cmd, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		switch strings.ToLower(cmd) {
		case "help", "?":
			fmt.Fprint(out, sessionHelp)
		case "quit", "exit":
			return nil
		case "run":
			runRound()
		case "stats":
			fmt.Fprintln(out, rr.statsText(ctx))
		case "show":
			if text := rr.specText(); text != "" {
				fmt.Fprint(out, text)
			} else {
				for i, row := range rows {
					fmt.Fprintf(out, "sample %d: %s\n", i+1, strings.Join(row, " | "))
				}
				if meta != nil {
					fmt.Fprintf(out, "metadata: %s\n", strings.Join(meta, " | "))
				}
			}
			if !pending.IsZero() {
				fmt.Fprintf(out, "queued: %s\n", pending)
			}
		case "reset":
			pending = prism.Delta{}
			fmt.Fprintln(out, "ok")
		case "sample":
			cells := api.SplitCells(rest, columns)
			if err := validateCells(cells); err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			if round == 0 {
				rows = append(rows, cells)
			} else {
				pending.AddSamples = append(pending.AddSamples, cells)
			}
			fmt.Fprintln(out, "ok")
		case "set", "clear", "meta", "remove":
			if err := sessionEdit(&pending, cmd, rest, round, rows, meta, columns); err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				fmt.Fprintln(out, "ok")
			}
		default:
			fmt.Fprintf(out, "unknown command %q — type 'help'\n", cmd)
		}
	}
}

// validateCells parses each cell of a sample row, rejecting malformed
// constraint syntax before it is queued.
func validateCells(cells []string) error {
	for i, cell := range cells {
		if _, err := prism.ParseValueConstraint(cell); err != nil {
			return fmt.Errorf("cell %d: %w", i+1, err)
		}
	}
	return nil
}

// sessionEdit queues one cell edit as a delta operation. Before the first
// round there is no session spec to refine, so edits mutate the initial
// grid in place instead.
func sessionEdit(pending *prism.Delta, cmd, rest string, round int, rows [][]string, meta []string, columns int) error {
	fields := strings.Fields(rest)
	num := func(i int, what string, limit int) (int, error) {
		if i >= len(fields) {
			return 0, fmt.Errorf("%s: missing %s", cmd, what)
		}
		n, err := strconv.Atoi(fields[i])
		if err != nil || n < 1 || (limit > 0 && n > limit) {
			return 0, fmt.Errorf("%s: bad %s %q", cmd, what, fields[i])
		}
		return n - 1, nil
	}
	// The trailing cell text (may contain spaces and '|' disjunctions).
	// Tokens are skipped on any whitespace, matching strings.Fields above —
	// a tab between ROW and COL must not silently swallow the cell.
	cellAfter := func(n int) string {
		s := rest
		for i := 0; i < n; i++ {
			s = strings.TrimLeft(s, " \t")
			cut := strings.IndexAny(s, " \t")
			if cut < 0 {
				return ""
			}
			s = s[cut:]
		}
		return strings.TrimSpace(s)
	}
	switch strings.ToLower(cmd) {
	case "set":
		row, err := num(0, "row", 0)
		if err != nil {
			return err
		}
		col, err := num(1, "column", columns)
		if err != nil {
			return err
		}
		cell := cellAfter(2)
		// Validate at queue time, so one bad cell is rejected immediately
		// instead of wedging every later 'run'.
		if _, err := prism.ParseValueConstraint(cell); err != nil {
			return err
		}
		if round == 0 {
			if row >= len(rows) {
				return fmt.Errorf("set: row %d does not exist yet", row+1)
			}
			rows[row][col] = cell
			return nil
		}
		pending.UpdateCells = append(pending.UpdateCells, prism.CellUpdate{Row: row, Col: col, Cell: cell})
	case "clear":
		row, err := num(0, "row", 0)
		if err != nil {
			return err
		}
		col, err := num(1, "column", columns)
		if err != nil {
			return err
		}
		if round == 0 {
			if row >= len(rows) {
				return fmt.Errorf("clear: row %d does not exist yet", row+1)
			}
			rows[row][col] = ""
			return nil
		}
		pending.UpdateCells = append(pending.UpdateCells, prism.CellUpdate{Row: row, Col: col})
	case "meta":
		col, err := num(0, "column", columns)
		if err != nil {
			return err
		}
		cell := cellAfter(1)
		if _, err := prism.ParseMetadataConstraint(cell); err != nil {
			return err
		}
		if round == 0 {
			// Before the first round there is no spec to refine; edit the
			// initial metadata row, which must exist (-metadata flag).
			if meta == nil {
				return fmt.Errorf("meta: pass -metadata up front, or run a first round and refine")
			}
			meta[col] = cell
			return nil
		}
		pending.SetMetadata = append(pending.SetMetadata, prism.MetadataUpdate{Col: col, Cell: cell})
	case "remove":
		row, err := num(0, "row", 0)
		if err != nil {
			return err
		}
		if round == 0 {
			return fmt.Errorf("remove: no rounds yet — edit rows with 'set' or re-add them")
		}
		pending.RemoveSamples = append(pending.RemoveSamples, row)
	}
	return nil
}

// streamRound consumes a DiscoverStream, printing mappings the moment they
// are confirmed, and returns the final report.
func streamRound(ctx context.Context, out io.Writer, eng *prism.Engine, spec *prism.Spec, opts prism.Options) (*prism.Report, error) {
	n := 0
	for ev := range eng.DiscoverStream(ctx, spec, opts) {
		switch ev.Kind {
		case prism.EventCandidates:
			fmt.Fprintf(out, "candidates: %d\n", ev.Progress.CandidatesEnumerated)
		case prism.EventFilters:
			fmt.Fprintf(out, "filters: %d\n", ev.Progress.FiltersGenerated)
		case prism.EventMapping:
			n++
			fmt.Fprintf(out, "<- mapping %d (after %d validations): %s\n", n, ev.Progress.Validations, ev.Mapping.SQL)
		case prism.EventDone:
			return ev.Report, ev.Err
		}
	}
	// The stream closed without a done event: only possible when ctx was
	// cancelled while the final event was pending.
	return nil, ctx.Err()
}
