package prism

// This file holds the benchmark harness that regenerates the paper's
// evaluation artefacts — one testing.B benchmark per table / figure /
// claimed series (see DESIGN.md §4 and EXPERIMENTS.md):
//
//	BenchmarkTable1LakeDiscovery      — Table 1 / the §3 walkthrough
//	BenchmarkConstraintParse          — Figure 1 (the constraint language)
//	BenchmarkEndToEndPipeline         — Figure 2 (the architecture/workflow)
//	BenchmarkExplainGraph             — Figures 3–4 (query explanation)
//	BenchmarkDiscoveryResolution/*    — E1: discovery effort per resolution level
//	BenchmarkResultSetSize/*          — E2: result-set size per resolution level
//	BenchmarkFilterScheduling/*       — E3: validations per scheduling policy
//	BenchmarkSchedulerAblation/*      — ablation of the design choices
//
// Run with:
//
//	go test -bench=. -benchmem .

import (
	"context"
	"fmt"
	"testing"
	"time"

	"prism/internal/bayes"
	"prism/internal/colexec"
	"prism/internal/dataset"
	"prism/internal/discovery"
	"prism/internal/exec"
	"prism/internal/filter"
	"prism/internal/graphx"
	"prism/internal/sched"
	"prism/internal/workload"
)

// benchMondialConfig keeps the benchmark database at the reduced scale the
// experiment suite uses, so a full -bench=. run stays in seconds.
func benchMondialConfig() MondialConfig {
	return MondialConfig{
		Seed: 1, Countries: 5, ProvincesPerCountry: 3, CitiesPerProvince: 2,
		Lakes: 40, Rivers: 25, Mountains: 15,
	}
}

func benchEngine(b testing.TB) *Engine {
	b.Helper()
	eng, err := Open("mondial", WithMondialConfig(benchMondialConfig()))
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

func benchPaperSpec(b testing.TB) *Spec {
	b.Helper()
	spec, err := ParseConstraints(3,
		[][]string{{"California || Nevada", "Lake Tahoe", ""}},
		[]string{"", "", "DataType=='decimal' AND MinValue>='0'"},
	)
	if err != nil {
		b.Fatal(err)
	}
	return spec
}

// BenchmarkTable1LakeDiscovery regenerates Table 1: the §3 constraints over
// Mondial and the (State, Lake Name, Area) mapping they discover.
func BenchmarkTable1LakeDiscovery(b *testing.B) {
	eng := benchEngine(b)
	spec := benchPaperSpec(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := eng.Discover(context.Background(), spec, Options{IncludeResults: true, ResultLimit: 5})
		if err != nil {
			b.Fatal(err)
		}
		if len(report.Mappings) == 0 {
			b.Fatal("Table 1 mapping not discovered")
		}
	}
}

// BenchmarkConstraintParse covers Figure 1: parsing the multiresolution
// constraint language at every resolution level.
func BenchmarkConstraintParse(b *testing.B) {
	rows := [][]string{{"California || Nevada", "Lake Tahoe", "[400, 600]"}}
	meta := []string{"", "", "DataType=='decimal' AND MinValue>='0' AND MaxLength<=12"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseConstraints(3, rows, meta); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndPipeline covers Figure 2: the full architecture from
// preprocessing to final queries, including engine construction.
func BenchmarkEndToEndPipeline(b *testing.B) {
	db, err := dataset.Mondial(dataset.MondialConfig(benchMondialConfig()))
	if err != nil {
		b.Fatal(err)
	}
	spec := benchPaperSpec(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := NewEngine(db)
		if _, err := eng.Discover(context.Background(), spec, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExplainGraph covers Figures 3–4: building and rendering the
// query-graph explanation with the constraint overlay.
func BenchmarkExplainGraph(b *testing.B) {
	eng := benchEngine(b)
	spec := benchPaperSpec(b)
	report, err := eng.Discover(context.Background(), spec, Options{})
	if err != nil || len(report.Mappings) == 0 {
		b.Fatalf("no mapping to explain: %v", err)
	}
	m := report.Mappings[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := Explain(m, spec, AllConstraints())
		if g.DOT() == "" || g.SVG() == "" {
			b.Fatal("empty rendering")
		}
	}
}

// benchWorkload builds the shared workload generator used by the E1/E2/E3
// benchmarks.
func benchWorkload(b *testing.B) (*Engine, *workload.Generator) {
	b.Helper()
	eng := benchEngine(b)
	gen, err := workload.NewGenerator(eng.Database(), 1, workload.MondialGroundTruths())
	if err != nil {
		b.Fatal(err)
	}
	return eng, gen
}

// BenchmarkDiscoveryResolution regenerates E1: discovery effort as user
// constraints become looser, one sub-benchmark per resolution level.
func BenchmarkDiscoveryResolution(b *testing.B) {
	eng, gen := benchWorkload(b)
	for _, level := range workload.Levels() {
		level := level
		b.Run(string(level), func(b *testing.B) {
			cases, err := gen.Generate(level, 4, workload.Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc := cases[i%len(cases)]
				if _, err := eng.Discover(context.Background(), tc.Spec, Options{MaxTables: 3}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkResultSetSize regenerates E2: it reports the number of
// satisfying schema mapping queries per resolution level as a custom metric
// (mappings/op) alongside the timing.
func BenchmarkResultSetSize(b *testing.B) {
	eng, gen := benchWorkload(b)
	for _, level := range workload.Levels() {
		level := level
		b.Run(string(level), func(b *testing.B) {
			cases, err := gen.Generate(level, 4, workload.Config{})
			if err != nil {
				b.Fatal(err)
			}
			total := 0
			rounds := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc := cases[i%len(cases)]
				report, err := eng.Discover(context.Background(), tc.Spec, Options{MaxTables: 3})
				if err != nil {
					b.Fatal(err)
				}
				total += len(report.Mappings)
				rounds++
			}
			if rounds > 0 {
				b.ReportMetric(float64(total)/float64(rounds), "mappings/op")
			}
		})
	}
}

// schedulingFixture prepares one paper-style scheduling case shared by the
// E3 benchmarks.
type schedulingFixture struct {
	name  string
	eng   *Engine
	spec  *Spec
	set   *filter.Set
	truth []filter.Outcome
	model *bayes.Model
}

func newSchedulingFixture(b *testing.B) *schedulingFixture {
	b.Helper()
	eng, gen := benchWorkload(b)
	cases, err := gen.Generate(workload.LevelPaper, 1, workload.Config{})
	if err != nil {
		b.Fatal(err)
	}
	spec := cases[0].Spec
	related, err := eng.RelatedColumns(spec)
	if err != nil {
		b.Fatal(err)
	}
	cands, err := graphx.Enumerate(graphx.New(eng.Database().Schema()), related,
		graphx.EnumerateOptions{MaxTables: 4, RequireUsefulLeaves: true})
	if err != nil {
		b.Fatal(err)
	}
	set := filter.Decompose(cands)
	truth, err := sched.GroundTruth(eng.Database(), spec, set)
	if err != nil {
		b.Fatal(err)
	}
	return &schedulingFixture{eng: eng, spec: spec, set: set, truth: truth, model: eng.Model()}
}

// BenchmarkFilterScheduling regenerates E3: filter validations needed per
// scheduling policy; validations/op is reported as a custom metric so the
// table in EXPERIMENTS.md can be read straight off the benchmark output.
func BenchmarkFilterScheduling(b *testing.B) {
	fx := newSchedulingFixture(b)
	estimators := []struct {
		name string
		make func() sched.Estimator
	}{
		{"oracle-optimum", func() sched.Estimator { return sched.NewOracle(fx.set, fx.truth) }},
		{"prism-bayes", func() sched.Estimator { return &sched.BayesEstimator{Model: fx.model, Spec: fx.spec} }},
		{"filter-pathlength", func() sched.Estimator { return &sched.PathLengthEstimator{} }},
		{"random", func() sched.Estimator { return &sched.RandomEstimator{Seed: 1} }},
	}
	for _, e := range estimators {
		e := e
		b.Run(e.name, func(b *testing.B) {
			total := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runner := &sched.Runner{
					DB: fx.eng.Database(), Spec: fx.spec, Set: fx.set, Estimator: e.make(),
					Options: sched.Options{TimeLimit: 60 * time.Second},
				}
				res, err := runner.Run()
				if err != nil {
					b.Fatal(err)
				}
				total += res.Validations
			}
			b.ReportMetric(float64(total)/float64(b.N), "validations/op")
		})
	}
}

// BenchmarkSchedulerAblation isolates the design choices DESIGN.md calls
// out: the Bayesian estimator with and without join-indicator statistics
// (approximated by the path-length estimator), and with a shallower
// candidate space.
func BenchmarkSchedulerAblation(b *testing.B) {
	eng, gen := benchWorkload(b)
	cases, err := gen.Generate(workload.LevelPaper, 1, workload.Config{})
	if err != nil {
		b.Fatal(err)
	}
	spec := cases[0].Spec
	for _, maxTables := range []int{2, 3, 4} {
		maxTables := maxTables
		b.Run(fmt.Sprintf("bayes-maxtables-%d", maxTables), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				report, err := eng.Discover(context.Background(), spec, Options{MaxTables: maxTables})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(report.Validations), "validations/op")
			}
		})
	}
	b.Run("pathlength-maxtables-4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			report, err := eng.Discover(context.Background(), spec, Options{MaxTables: 4, Policy: PolicyPathLength})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(report.Validations), "validations/op")
		}
	})
}

// validationPhaseFixtures builds, per bundled dataset, a filter set whose
// specification maps several target columns onto the same source columns
// (two province-shaped columns on mondial, two person-shaped columns on
// imdb and nba), so distinct filters share a canonical plan.
func validationPhaseFixtures(tb testing.TB) []*schedulingFixture {
	tb.Helper()
	build := func(name string, opts []OpenOption, cols int, rows [][]string) *schedulingFixture {
		eng, err := Open(name, opts...)
		if err != nil {
			tb.Fatal(err)
		}
		spec, err := ParseConstraints(cols, rows, nil)
		if err != nil {
			tb.Fatal(err)
		}
		related, err := eng.RelatedColumns(spec)
		if err != nil {
			tb.Fatal(err)
		}
		cands, err := graphx.Enumerate(graphx.New(eng.Database().Schema()), related,
			graphx.EnumerateOptions{MaxTables: 4, RequireUsefulLeaves: true})
		if err != nil {
			tb.Fatal(err)
		}
		fx := &schedulingFixture{eng: eng, spec: spec, set: filter.Decompose(cands), model: eng.Model()}
		fx.name = name
		return fx
	}
	return []*schedulingFixture{
		// Mondial gets a larger feature population and a range-only
		// multi-sample grid: numeric interval cells decompose into
		// scan-shaped predicates (no keyword index to seed from).
		build("mondial", []OpenOption{WithMondialConfig(MondialConfig{
			Seed: 1, Countries: 5, ProvincesPerCountry: 3, CitiesPerProvince: 2,
			Lakes: 1500, Rivers: 1000, Mountains: 800,
		})}, 2,
			[][]string{
				{"[100, 2600]", "[40, 260]"},
				{"[400, 3000]", "[80, 320]"},
				{"[900, 3400]", "[20, 200]"},
				{"[200, 2800]", "[60, 300]"},
				{"[600, 3200]", "[30, 240]"},
				{"[300, 2900]", "[50, 280]"},
			}),
		build("imdb", nil, 2,
			[][]string{
				{"Leonardo DiCaprio", "Tim Robbins"},
				{"Tim Robbins", "Leonardo DiCaprio"},
			}),
		build("nba", nil, 2,
			[][]string{
				{"Los Angeles", "Boston"},
				{"Boston", "Los Angeles"},
			}),
	}
}

// runValidationPhase executes one scheduling run over a validation-phase
// fixture. The path-length policy keeps estimation out of the measurement:
// picking order is identical across backends and costs nothing, so the
// timing isolates probe execution.
func runValidationPhase(ex exec.Executor, fx *schedulingFixture) (sched.Result, error) {
	runner := &sched.Runner{
		DB: ex, Spec: fx.spec, Set: fx.set,
		Estimator: &sched.PathLengthEstimator{},
		Options:   sched.Options{TimeLimit: 60 * time.Second},
	}
	return runner.Run()
}

// BenchmarkExecutorValidationPhase isolates the validation phase — the hot
// path the columnar engine targets — on one shared filter set per dataset
// and backend:
//
//	go test -run xxx -bench BenchmarkExecutorValidationPhase .
func BenchmarkExecutorValidationPhase(b *testing.B) {
	for _, fx := range validationPhaseFixtures(b) {
		fx := fx
		db := fx.eng.Database()
		col, err := colexec.New(db)
		if err != nil {
			b.Fatal(err)
		}
		for _, backend := range []struct {
			name string
			ex   exec.Executor
		}{{"mem", db}, {"columnar", col}} {
			ex := backend.ex
			b.Run(fx.name+"/"+backend.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := runValidationPhase(ex, fx); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkExecutorBuild measures the one-time cost of building the
// columnar executor (column stores plus join and keyword indexes), which
// Open pays once per engine.
func BenchmarkExecutorBuild(b *testing.B) {
	db, err := dataset.Mondial(dataset.MondialConfig(benchMondialConfig()))
	if err != nil {
		b.Fatal(err)
	}
	db.Analyze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := colexec.New(db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBayesTraining measures the preprocessing cost of the Bayesian
// models ("trained a priori for the source database").
func BenchmarkBayesTraining(b *testing.B) {
	db, err := dataset.Mondial(dataset.MondialConfig(benchMondialConfig()))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bayes.Train(db)
	}
}

// BenchmarkDemoServerRound measures one full demo interaction (the §3
// walkthrough) through the discovery engine options the web server uses.
func BenchmarkDemoServerRound(b *testing.B) {
	eng := benchEngine(b)
	spec := benchPaperSpec(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := eng.Discover(context.Background(), spec, discovery.Options{IncludeResults: true, ResultLimit: 10})
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range report.Mappings[:min(3, len(report.Mappings))] {
			g := Explain(m, spec, AllConstraints())
			if g.SVG() == "" {
				b.Fatal("empty SVG")
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
