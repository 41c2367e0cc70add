// Package experiment regenerates the paper's evaluation (§2.4) and the
// Table 1 walkthrough on the synthetic data sets: the resolution sweeps
// (execution time and result-set size as constraints become looser) and the
// filter-scheduling comparison between the Filter baseline, Prism's
// Bayesian scheduling, and the optimum.
package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"prism/internal/constraint"
	"prism/internal/dataset"
	"prism/internal/discovery"
	"prism/internal/exec"
	"prism/internal/filter"
	"prism/internal/graphx"
	"prism/internal/mem"
	"prism/internal/obs"
	"prism/internal/sched"
	"prism/internal/workload"
)

// Table is one regenerated evaluation artefact (a table or figure series).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for pad := len(c); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		b.WriteString("note: ")
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	b.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		b.WriteString("\n*" + n + "*\n")
	}
	return b.String()
}

// Config tunes the experiment suite.
type Config struct {
	// Seed drives dataset and workload generation.
	Seed int64
	// Mondial sizes the synthetic source database (zero value = a reduced
	// instance that keeps the suite interactive).
	Mondial dataset.MondialConfig
	// CasesPerLevel is the number of test cases per resolution level for
	// the E1/E2 sweeps (default 6).
	CasesPerLevel int
	// SchedulingCases is the number of test cases for the E3 scheduling
	// comparison (default 8).
	SchedulingCases int
	// SamplesPerCase is the number of sample rows per generated case.
	SamplesPerCase int
	// TimeLimit is the per-round discovery budget (default 60s, as in the
	// demo).
	TimeLimit time.Duration
	// MaxTables bounds candidate join trees (default 3 to keep the
	// experiment suite fast; the library default is 4).
	MaxTables int
	// Trace enables round tracing (discovery.Options.Trace) for every
	// discovery round of the suite; the Runner keeps the last round's span
	// tree in LastTrace for the caller to dump.
	Trace bool
	// Database, when non-nil, is used as the source database directly —
	// typically one restored from an engine snapshot — instead of
	// generating Mondial from Config.Mondial. It must be a Mondial-shaped
	// database: the workload generator's ground truths assume that
	// schema.
	Database *mem.Database
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Mondial.Countries == 0 && c.Mondial.Lakes == 0 {
		c.Mondial = dataset.MondialConfig{
			Seed: c.Seed, Countries: 5, ProvincesPerCountry: 3, CitiesPerProvince: 2,
			Lakes: 40, Rivers: 25, Mountains: 15,
		}
	}
	if c.CasesPerLevel <= 0 {
		c.CasesPerLevel = 6
	}
	if c.SchedulingCases <= 0 {
		c.SchedulingCases = 8
	}
	if c.SamplesPerCase <= 0 {
		c.SamplesPerCase = 1
	}
	if c.TimeLimit == 0 {
		c.TimeLimit = 60 * time.Second
	}
	if c.MaxTables <= 0 {
		c.MaxTables = 3
	}
	return c
}

// Runner holds the prepared database, engine and workload generator.
type Runner struct {
	Config Config
	DB     *mem.Database
	// Exec is the engine's executor, shared by the scheduling comparison and
	// the discovery rounds.
	Exec   exec.Executor
	Engine *discovery.Engine
	Gen    *workload.Generator
	// LastTrace is the span tree of the most recent traced round (nil
	// until a round runs with Config.Trace set).
	LastTrace *obs.Span
}

// NewRunner prepares the experiment environment.
func NewRunner(cfg Config) (*Runner, error) {
	cfg = cfg.withDefaults()
	db := cfg.Database
	if db == nil {
		var err error
		db, err = dataset.Mondial(cfg.Mondial)
		if err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
	}
	gen, err := workload.NewGenerator(db, cfg.Seed, workload.MondialGroundTruths())
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	r := &Runner{
		Config: cfg,
		DB:     db,
		Engine: discovery.NewEngine(db),
		Gen:    gen,
	}
	// Build the executor once, so the scheduling comparison probes the same
	// instance the discovery rounds use.
	ex, err := r.Engine.Executor()
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	r.Exec = ex
	return r, nil
}

// levelMetrics aggregates per-level measurements for E1/E2.
type levelMetrics struct {
	cases       int
	failures    int
	timeouts    int
	totalTime   time.Duration
	validations int
	candidates  int
	mappings    int
}

func (r *Runner) sweepLevel(ctx context.Context, level workload.Level) (levelMetrics, error) {
	var m levelMetrics
	cases, err := r.Gen.Generate(level, r.Config.CasesPerLevel, workload.Config{SamplesPerCase: r.Config.SamplesPerCase})
	if err != nil {
		return m, err
	}
	for _, tc := range cases {
		if err := ctx.Err(); err != nil {
			return m, err
		}
		m.cases++
		report, err := r.Engine.Discover(ctx, tc.Spec, discovery.Options{
			TimeLimit: r.Config.TimeLimit,
			MaxTables: r.Config.MaxTables,
			Trace:     r.Config.Trace,
		})
		if report != nil && report.Trace != nil {
			r.LastTrace = report.Trace
		}
		if err != nil {
			m.failures++
			continue
		}
		if report.TimedOut {
			m.timeouts++
		}
		m.totalTime += report.Elapsed
		m.validations += report.Validations
		m.candidates += report.CandidatesEnumerated
		m.mappings += len(report.Mappings)
	}
	return m, nil
}

// RunE1 regenerates the execution-time-vs-resolution series: the paper's
// claim that overall execution time does not grow significantly as user
// constraints become loose.
func (r *Runner) RunE1(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "Discovery effort as constraints become looser (synthetic Mondial)",
		Columns: []string{"resolution level", "cases", "avg time (ms)", "avg validations", "avg candidates", "timeouts", "failures"},
		Notes: []string{
			"Expected shape (paper §2.4): execution time stays roughly flat from exact to loose constraints.",
		},
	}
	for _, level := range workload.Levels() {
		m, err := r.sweepLevel(ctx, level)
		if err != nil {
			return nil, err
		}
		ok := m.cases - m.failures
		if ok == 0 {
			ok = 1
		}
		t.Rows = append(t.Rows, []string{
			string(level),
			fmt.Sprintf("%d", m.cases),
			fmt.Sprintf("%.1f", float64(m.totalTime.Milliseconds())/float64(ok)),
			fmt.Sprintf("%.1f", float64(m.validations)/float64(ok)),
			fmt.Sprintf("%.1f", float64(m.candidates)/float64(ok)),
			fmt.Sprintf("%d", m.timeouts),
			fmt.Sprintf("%d", m.failures),
		})
	}
	return t, nil
}

// RunE2 regenerates the result-set-size-vs-resolution series: the paper's
// claim that the number of satisfying schema mapping queries does not
// increase much, except when many cells are missing.
func (r *Runner) RunE2(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "Number of satisfying schema mapping queries as constraints become looser",
		Columns: []string{"resolution level", "cases", "avg mappings", "avg candidates", "failures"},
		Notes: []string{
			"Expected shape (paper §2.4): mapping count stays low across levels and grows mainly at the missing-values level.",
		},
	}
	for _, level := range workload.Levels() {
		m, err := r.sweepLevel(ctx, level)
		if err != nil {
			return nil, err
		}
		ok := m.cases - m.failures
		if ok == 0 {
			ok = 1
		}
		t.Rows = append(t.Rows, []string{
			string(level),
			fmt.Sprintf("%d", m.cases),
			fmt.Sprintf("%.2f", float64(m.mappings)/float64(ok)),
			fmt.Sprintf("%.1f", float64(m.candidates)/float64(ok)),
			fmt.Sprintf("%d", m.failures),
		})
	}
	return t, nil
}

// RunE3 regenerates the filter-scheduling comparison: validations needed by
// the Filter baseline, by Prism's Bayesian scheduling, by a random order,
// and by the (greedy) optimum, plus the gap reduction the paper reports
// (up to ~70%, ~30% on average).
func (r *Runner) RunE3(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:    "E3",
		Title: "Filter validations per scheduling policy (gap to optimum)",
		Columns: []string{
			"test case", "filters", "optimum", "filter(pathlen)", "prism(bayes)", "random", "gap reduction",
		},
		Notes: []string{
			"gap reduction = (gap(pathlength) - gap(bayes)) / gap(pathlength); the paper reports up to ~70%, ~30% on average.",
		},
	}
	// Use the paper-style mixed-resolution cases (disjunctions on text
	// columns, metadata-only numeric columns) — the regime §2.4 targets,
	// where the candidate space is wide and scheduling matters — plus a few
	// plain disjunction cases for contrast.
	var cases []workload.TestCase
	half := r.Config.SchedulingCases / 2
	if half == 0 {
		half = 1
	}
	paper, err := r.Gen.Generate(workload.LevelPaper, r.Config.SchedulingCases-half, workload.Config{SamplesPerCase: r.Config.SamplesPerCase})
	if err != nil {
		return nil, err
	}
	dis, err := r.Gen.Generate(workload.LevelDisjunction, half, workload.Config{SamplesPerCase: r.Config.SamplesPerCase, LoosenFraction: 1})
	if err != nil {
		return nil, err
	}
	cases = append(cases, paper...)
	cases = append(cases, dis...)

	var sumReduction, maxReduction float64
	counted := 0
	for _, tc := range cases {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		row, reduction, err := r.scheduleCase(ctx, tc)
		if err != nil {
			// Cases whose constraints cannot be matched (rare) are skipped.
			continue
		}
		t.Rows = append(t.Rows, row)
		sumReduction += reduction
		if reduction > maxReduction {
			maxReduction = reduction
		}
		counted++
	}
	if counted > 0 {
		t.Rows = append(t.Rows, []string{
			"AVERAGE", "", "", "", "", "",
			fmt.Sprintf("%.0f%%", 100*sumReduction/float64(counted)),
		})
		t.Rows = append(t.Rows, []string{
			"MAX", "", "", "", "", "",
			fmt.Sprintf("%.0f%%", 100*maxReduction),
		})
	}
	return t, nil
}

// scheduleCase runs the three policies on one test case and returns the
// table row plus the bayes-vs-pathlength gap reduction.
func (r *Runner) scheduleCase(ctx context.Context, tc workload.TestCase) ([]string, float64, error) {
	related, err := r.Engine.RelatedColumns(tc.Spec)
	if err != nil {
		return nil, 0, err
	}
	// Scheduling is evaluated on a slightly deeper search space than the
	// E1/E2 sweeps (one more join hop) so that candidate queries share
	// non-trivial filters and validation order matters.
	cands, err := graphx.Enumerate(graphx.New(r.DB.Schema()), related, graphx.EnumerateOptions{
		MaxTables:           r.Config.MaxTables + 1,
		RequireUsefulLeaves: true,
	})
	if err != nil {
		return nil, 0, err
	}
	set := filter.Decompose(cands)
	truth, err := sched.GroundTruthContext(ctx, r.Exec, tc.Spec, set)
	if err != nil {
		return nil, 0, err
	}
	optimum := sched.OptimalValidationCount(set, truth)

	run := func(est sched.Estimator) (int, error) {
		runner := &sched.Runner{DB: r.Exec, Spec: tc.Spec, Set: set, Estimator: est,
			Options: sched.Options{
				TimeLimit: r.Config.TimeLimit,
			}}
		res, err := runner.RunContext(ctx)
		if err != nil {
			return 0, err
		}
		return res.Validations, nil
	}
	path, err := run(&sched.PathLengthEstimator{})
	if err != nil {
		return nil, 0, err
	}
	bayesCount, err := run(&sched.BayesEstimator{Model: r.Engine.Model(), Spec: tc.Spec})
	if err != nil {
		return nil, 0, err
	}
	random, err := run(&sched.RandomEstimator{Seed: r.Config.Seed})
	if err != nil {
		return nil, 0, err
	}
	reduction := sched.GapReduction(path, bayesCount, optimum)
	row := []string{
		tc.Name,
		fmt.Sprintf("%d", set.NumFilters()),
		fmt.Sprintf("%d", optimum),
		fmt.Sprintf("%d", path),
		fmt.Sprintf("%d", bayesCount),
		fmt.Sprintf("%d", random),
		fmt.Sprintf("%.0f%%", 100*reduction),
	}
	return row, reduction, nil
}

// RunTable1 reproduces the paper's running example: the §3 constraints over
// Mondial, the discovered SQL (the paper's §1 query), and the Table 1 rows.
func (r *Runner) RunTable1(ctx context.Context) (*Table, error) {
	spec, err := constraint.ParseGrid(3,
		[][]string{{"California || Nevada", "Lake Tahoe", ""}},
		[]string{"", "", "DataType=='decimal' AND MinValue>='0'"},
	)
	if err != nil {
		return nil, err
	}
	report, err := r.Engine.Discover(ctx, spec, discovery.Options{
		TimeLimit:      r.Config.TimeLimit,
		MaxTables:      r.Config.MaxTables,
		IncludeResults: true,
		ResultLimit:    5,
		Trace:          r.Config.Trace,
	})
	if report != nil && report.Trace != nil {
		r.LastTrace = report.Trace
	}
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "T1",
		Title:   "Table 1 / §3 walkthrough: lakes, their states and areas from Mondial",
		Columns: []string{"State", "Lake Name", "Area (km2)"},
	}
	var desired *discovery.Mapping
	for i := range report.Mappings {
		m := &report.Mappings[i]
		if m.Candidate.Tree.Size() == 2 && strings.Contains(m.SQL, "geo_lake.Province, Lake.Name, Lake.Area") {
			desired = m
			break
		}
	}
	if desired == nil && len(report.Mappings) > 0 {
		desired = &report.Mappings[0]
	}
	if desired == nil {
		return nil, fmt.Errorf("experiment: the Table 1 mapping was not discovered")
	}
	for _, row := range desired.Result.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		t.Rows = append(t.Rows, cells)
	}
	t.Notes = append(t.Notes,
		"discovered SQL: "+desired.SQL,
		fmt.Sprintf("discovered %d satisfying schema mapping queries in total (%s)", len(report.Mappings), report.Summary()),
	)
	return t, nil
}

// RunAll regenerates every evaluation artefact.
func (r *Runner) RunAll(ctx context.Context) ([]*Table, error) {
	var out []*Table
	for _, f := range []func(context.Context) (*Table, error){r.RunTable1, r.RunE1, r.RunE2, r.RunE3} {
		t, err := f(ctx)
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
	return out, nil
}
