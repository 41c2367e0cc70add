// Command prism-bench regenerates the paper's evaluation artefacts (the
// Table 1 walkthrough and the §2.4 series E1–E3) on the synthetic Mondial
// data set and prints them as text or markdown tables.
//
//	prism-bench -exp all
//	prism-bench -exp e3 -cases 12 -markdown
//
// With -remote URL the Table 1 walkthrough runs against a prism-demo
// server through the client SDK (prism/client) instead of building the
// database in-process:
//
//	prism-bench -remote http://localhost:8080 -exp t1
//
// The E1–E3 series need local ground truth (oracle scheduling, seeded
// workload generation over the experiment-sized database) and therefore
// stay in-process.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"prism"
	"prism/api"
	"prism/client"
	"prism/internal/dataset"
	"prism/internal/experiment"
	"prism/internal/mem"
)

func main() {
	// Ctrl-C cancels the suite mid-round instead of waiting out the budget.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "prism-bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("prism-bench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to run: all, t1, e1, e2, e3")
	seed := fs.Int64("seed", 1, "random seed for data and workload generation")
	cases := fs.Int("cases", 6, "test cases per resolution level (E1/E2)")
	schedCases := fs.Int("sched-cases", 8, "test cases for the scheduling comparison (E3)")
	scale := fs.Float64("scale", 1.0, "database scale factor relative to the default synthetic Mondial")
	big := fs.Bool("big", false, "use the million-row Mondial variant as the -scale base (see dataset.BigMondialConfig)")
	snapshot := fs.String("snapshot", "", "engine snapshot path: load the experiment database from it when present, else build normally and write it there; must match the run's -big/-scale/-seed")
	markdown := fs.Bool("markdown", false, "emit markdown tables instead of plain text")
	timeout := fs.Duration("timeout", 60*time.Second, "per-round discovery time limit, enforced as a context deadline")
	remote := fs.String("remote", "", "base URL of a prism-demo server; the Table 1 walkthrough then runs remotely through the /api/v1 client (-exp t1 only)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the experiment run to this file (go tool pprof)")
	memprofile := fs.String("memprofile", "", "write a heap profile taken after the experiment run to this file (go tool pprof)")
	traceFile := fs.String("trace", "", "write the last discovery round's span trace as NDJSON to this file (local experiments only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceFile != "" && *remote != "" {
		return fmt.Errorf("-trace needs the in-process engine; it is not available with -remote")
	}

	// Profiling hooks: docs/performance.md walks through reading these.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("creating -cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "prism-bench: creating -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "prism-bench: writing -memprofile:", err)
			}
		}()
	}

	if *remote != "" {
		switch strings.ToLower(*exp) {
		case "t1", "table1":
		default:
			return fmt.Errorf("-remote runs the walkthrough only (use -exp t1); E1-E3 need local ground truth")
		}
		t, err := remoteTable1(ctx, *remote, *timeout)
		if err != nil {
			return err
		}
		if *markdown {
			fmt.Fprintln(out, t.Markdown())
		} else {
			fmt.Fprintln(out, t.String())
		}
		return nil
	}

	base := dataset.DefaultMondialConfig()
	if *big {
		base = dataset.BigMondialConfig()
	}
	cfg := experiment.Config{
		Seed: *seed,
		Mondial: dataset.MondialConfig{
			Seed:                *seed,
			Countries:           scaled(base.Countries, *scale),
			ProvincesPerCountry: scaled(base.ProvincesPerCountry, *scale),
			CitiesPerProvince:   scaled(base.CitiesPerProvince, *scale),
			Lakes:               scaled(base.Lakes, *scale),
			Rivers:              scaled(base.Rivers, *scale),
			Mountains:           scaled(base.Mountains, *scale),
		},
		CasesPerLevel:   *cases,
		SchedulingCases: *schedCases,
		TimeLimit:       *timeout,
		Trace:           *traceFile != "",
	}
	// Cold start from a snapshot when one is on disk; otherwise build the
	// database and (with -snapshot) write one for the next run.
	snapshotLoaded := false
	if *snapshot != "" {
		start := time.Now()
		db, err := loadSnapshotDatabase(*snapshot)
		switch {
		case err == nil:
			cfg.Database = db
			snapshotLoaded = true
			fmt.Fprintf(out, "prism-bench: loaded engine snapshot %s in %v\n", *snapshot, time.Since(start).Round(time.Millisecond))
		case !errors.Is(err, os.ErrNotExist):
			return err
		}
	}
	runner, err := experiment.NewRunner(cfg)
	if err != nil {
		return err
	}
	if *snapshot != "" && !snapshotLoaded {
		start := time.Now()
		if err := writeSnapshotDatabase(*snapshot, runner.DB); err != nil {
			return err
		}
		fmt.Fprintf(out, "prism-bench: wrote engine snapshot %s in %v\n", *snapshot, time.Since(start).Round(time.Millisecond))
	}
	fmt.Fprintf(out, "prism-bench: synthetic Mondial with %d rows, seed %d\n\n", runner.DB.TotalRows(), *seed)

	// The -timeout budget bounds each round from inside discovery (it
	// covers every phase of a round), and the signal context lets Ctrl-C
	// abort between rounds — no extra whole-experiment deadline, which
	// would mis-cancel large but progressing suites.
	perExperiment := func(f func(context.Context) (*experiment.Table, error)) (*experiment.Table, error) {
		return f(ctx)
	}

	var tables []*experiment.Table
	switch strings.ToLower(*exp) {
	case "all":
		for _, f := range []func(context.Context) (*experiment.Table, error){
			runner.RunTable1, runner.RunE1, runner.RunE2, runner.RunE3,
		} {
			var t *experiment.Table
			t, err = perExperiment(f)
			if err != nil {
				break
			}
			tables = append(tables, t)
		}
	case "t1", "table1":
		var t *experiment.Table
		t, err = perExperiment(runner.RunTable1)
		tables = append(tables, t)
	case "e1":
		var t *experiment.Table
		t, err = perExperiment(runner.RunE1)
		tables = append(tables, t)
	case "e2":
		var t *experiment.Table
		t, err = perExperiment(runner.RunE2)
		tables = append(tables, t)
	case "e3":
		var t *experiment.Table
		t, err = perExperiment(runner.RunE3)
		tables = append(tables, t)
	default:
		return fmt.Errorf("unknown experiment %q (want all, t1, e1, e2 or e3)", *exp)
	}
	if err != nil {
		return err
	}
	for _, t := range tables {
		if t == nil {
			continue
		}
		if *markdown {
			fmt.Fprintln(out, t.Markdown())
		} else {
			fmt.Fprintln(out, t.String())
		}
	}
	if *traceFile != "" {
		if runner.LastTrace == nil {
			fmt.Fprintln(os.Stderr, "prism-bench: no traced round ran; -trace file not written")
			return nil
		}
		f, err := os.Create(*traceFile)
		if err != nil {
			return fmt.Errorf("creating -trace: %w", err)
		}
		if err := runner.LastTrace.WriteNDJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("writing -trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "prism-bench: trace written to %s\n", *traceFile)
	}
	return nil
}

func scaled(n int, factor float64) int {
	v := int(float64(n) * factor)
	if v < 1 {
		v = 1
	}
	return v
}

// loadSnapshotDatabase restores the experiment database from an engine
// snapshot written by a previous -snapshot run.
func loadSnapshotDatabase(path string) (*mem.Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening -snapshot: %w", err)
	}
	defer f.Close()
	db, err := mem.ReadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("-snapshot %s: %w", path, err)
	}
	return db, nil
}

// writeSnapshotDatabase persists the freshly built experiment database so
// the next -snapshot run cold-starts instead of regenerating.
func writeSnapshotDatabase(path string, db *mem.Database) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating -snapshot: %w", err)
	}
	if err := db.WriteSnapshot(f); err != nil {
		f.Close()
		return fmt.Errorf("writing -snapshot %s: %w", path, err)
	}
	return f.Close()
}

// remoteTable1 reproduces the §3 walkthrough against a running server: the
// paper's constraints are built with the typed Spec builder, encoded
// structurally, and discovered over the server's "mondial" through the v1
// client.
func remoteTable1(ctx context.Context, baseURL string, timeout time.Duration) (*experiment.Table, error) {
	// Bench traffic declares itself batch-priority so it never competes
	// with interactive rounds on a shared server, and retries through
	// transient shedding (429) honouring the server's Retry-After hint.
	c, err := client.New(baseURL,
		client.WithPriority(api.PriorityBatch),
		client.WithRetry(3, 500*time.Millisecond))
	if err != nil {
		return nil, err
	}
	spec, err := prism.NewSpec(3).
		Sample(prism.OneOf("California", "Nevada"), prism.Exact("Lake Tahoe"), prism.Any()).
		Metadata(2, prism.DataTypeIs("decimal"), prism.MinValueAtLeast(0)).
		Build()
	if err != nil {
		return nil, err
	}
	wireSpec, err := api.EncodeSpec(spec)
	if err != nil {
		return nil, err
	}
	timeoutMs := 0
	if timeout > 0 {
		timeoutMs = int(timeout.Milliseconds())
	}
	resp, err := c.Discover(ctx, api.DiscoverRequest{
		Database:  "mondial",
		Spec:      wireSpec,
		TimeoutMs: timeoutMs,
	})
	if err != nil {
		return nil, err
	}
	t := &experiment.Table{
		ID:      "T1",
		Title:   "Table 1 / §3 walkthrough: lakes, their states and areas (remote via " + baseURL + ")",
		Columns: []string{"State", "Lake Name", "Area (km2)"},
	}
	var desired *api.Mapping
	for i := range resp.Mappings {
		m := &resp.Mappings[i]
		if strings.Contains(m.SQL, "geo_lake.Province, Lake.Name, Lake.Area") {
			desired = m
			break
		}
	}
	if desired == nil && len(resp.Mappings) > 0 {
		desired = &resp.Mappings[0]
	}
	if desired == nil {
		return nil, fmt.Errorf("the Table 1 mapping was not discovered remotely")
	}
	for _, row := range desired.ResultRows {
		t.Rows = append(t.Rows, append([]string(nil), row...))
	}
	t.Notes = append(t.Notes,
		"discovered SQL: "+desired.SQL,
		fmt.Sprintf("discovered %d satisfying schema mapping queries in total (candidates=%d validations=%d elapsed=%dms)",
			len(resp.Mappings), resp.Candidates, resp.Validations, resp.ElapsedMS),
	)
	// The serving-tier view of the run: how the server's admission
	// controller accounted this bench traffic (older servers without
	// /stats just skip the note).
	if stats, err := c.Stats(ctx); err == nil {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"server admission: admitted=%d shed=%d queued=%d inFlight=%d (budgets: %d concurrent, %d queue)",
			stats.Admission.Admitted, stats.Admission.Shed, stats.Admission.QueueDepth,
			stats.Admission.InFlight, stats.Admission.MaxConcurrent, stats.Admission.MaxQueue))
	}
	return t, nil
}
