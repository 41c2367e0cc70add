// Command benchmark is the repository's benchmark: four named workloads,
// six end-to-end metrics on each, and per-layer numbers from a separate
// traced run. BENCHMARK.json at the repository root names the command, the
// workloads, the metrics and their regression bounds; README.md in this
// directory is the catalogue.
//
//	go run ./benchmark [-workload W] [-seed S] [-seconds N] [-trace 0|1|FILE] [-repeat N] [-update-golden]
//
// Every metric is printed as "workload metric value unit"; the last line
// of standard output is one JSON object with the run's verdict and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"slices"
	"strconv"
)

// defaultSeconds is BENCHMARK.json's run_seconds (a test keeps them equal).
const defaultSeconds = 20

// runConfig is what one run of one workload is given.
type runConfig struct {
	seed    int64
	seconds float64
	// toy shrinks the workload to test size (TestSmoke); no flag sets it.
	toy bool
	// goldenDir is where golden files live, relative to the working
	// directory of a run from the repository root.
	goldenDir string
	// traceFile, when set, receives the traced run's spans as NDJSON.
	traceFile string
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one run of one workload: the verdict plus its metrics in
// printing order, and free-form notes (sample counts, digests).
type result struct {
	workload          string
	attempted, failed int
	metrics           []metric
	notes             []metric

	// End-to-end inputs, turned into metrics by finish.
	tally      *tally
	rate       float64
	setupTimes []float64
	heapMB     float64
}

func newResult(workload string, t *tally) *result {
	return &result{workload: workload, attempted: t.attempted, failed: t.failed, tally: t}
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) info(name string, value float64, unit string) {
	r.notes = append(r.notes, metric{name, value, unit})
}

// endToEndMetrics lists the end-to-end metrics in BENCHMARK.json order.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"round_p50_ms", "ms"},
	{"round_p90_ms", "ms"},
	{"first_mapping_p50_ms", "ms"},
	{"rounds_per_s", "1/s"},
	{"live_heap_mb", "MB"},
}

// finish derives the end-to-end metrics of an untraced run: each latency
// metric is the median over the passes of the pass's percentile.
func (r *result) finish() error {
	t := r.tally
	totals := func(p *pass) []float64 { return p.totals }
	p50, err := t.overPasses(0.50, totals)
	if err != nil {
		return fmt.Errorf("%s: round latency: %w", r.workload, err)
	}
	p90, err := t.overPasses(0.90, totals)
	if err != nil {
		return fmt.Errorf("%s: round latency: %w", r.workload, err)
	}
	first, err := t.overPasses(0.50, func(p *pass) []float64 { return p.firsts })
	if err != nil {
		return fmt.Errorf("%s: first mapping: %w", r.workload, err)
	}
	values := map[string]float64{
		"setup_s":              median(r.setupTimes),
		"round_p50_ms":         p50,
		"round_p90_ms":         p90,
		"first_mapping_p50_ms": first,
		"rounds_per_s":         r.rate,
		"live_heap_mb":         r.heapMB,
	}
	for _, m := range endToEndMetrics {
		r.add(m.name, values[m.name], m.unit)
	}
	kinds := make(map[string]bool)
	for _, p := range t.passes {
		for kind := range p.byKind {
			kinds[kind] = true
		}
	}
	for _, kind := range slices.Sorted(maps.Keys(kinds)) {
		if v, err := t.overPasses(0.50, func(p *pass) []float64 { return p.byKind[kind] }); err == nil && len(kinds) > 1 {
			r.info(kind+"_p50_ms", v, "ms")
		}
	}
	r.info("rounds_attempted", float64(t.attempted), "count")
	r.info("rounds_failed", float64(t.failed), "count")
	r.info("latency_samples", float64(t.rounds()), "count")
	r.info("measured_passes", float64(len(t.passes)), "count")
	r.info("setups", float64(len(r.setupTimes)), "count")
	r.info("nproc", float64(runtime.NumCPU()), "count")
	r.info("gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")
	return nil
}

// print writes the metric lines and, last, the JSON verdict.
func (r *result) print(w io.Writer) error {
	for _, m := range r.notes {
		fmt.Fprintf(w, "# %s %s %s %s\n", r.workload, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	verdict := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(r.metrics)),
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%s %s %s %s\n", r.workload, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
		verdict.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(verdict)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runWorkload runs one workload, traced or not, and returns its result.
func runWorkload(ctx context.Context, def workloadDef, cfg runConfig, traced bool) (*result, error) {
	if cfg.toy {
		def = def.toy()
	}
	if traced {
		return runTraced(ctx, def, cfg)
	}
	var (
		res *result
		err error
	)
	if def.loop == loopServe {
		res, err = runServe(ctx, def, cfg)
	} else {
		res, err = runLibrary(ctx, def, cfg)
	}
	if err != nil {
		return nil, err
	}
	if t := res.tally; t.failed > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d of %d rounds failed, first: %v\n", def.name, t.failed, t.attempted, t.firstFailure)
	}
	return res, res.finish()
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload (default: all four)")
	seed := fs.Int64("seed", 1, "seed of the generated spec pool")
	seconds := fs.Float64("seconds", defaultSeconds, "measure whole passes for at least this long")
	trace := fs.String("trace", "0", "0: end-to-end run; 1: traced run printing per-layer metrics; FILE: traced run that also writes its spans to FILE as NDJSON")
	repeat := fs.Int("repeat", 0, "A/A mode: run the end-to-end set N times and fail if any metric moves by more than its bound")
	update := fs.Bool("update-golden", false, "rewrite the golden mapping-set digests for -seed from the reference executor")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	defs := workloads
	if *workload != "" {
		def, err := workloadByName(*workload)
		if err != nil {
			return err
		}
		defs = []workloadDef{def}
	}
	if *repeat > 0 {
		return runRepeat(defs, *repeat, *seed, *seconds, stdout)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, goldenDir: "benchmark/golden"}
	traced := *trace != "0"
	if traced && *trace != "1" {
		cfg.traceFile = *trace
		if err := os.WriteFile(cfg.traceFile, nil, 0o644); err != nil {
			return err
		}
	}
	ctx := context.Background()
	failed := 0
	for _, def := range defs {
		if *update {
			if err := updateGolden(ctx, def, cfg); err != nil {
				return err
			}
			continue
		}
		res, err := runWorkload(ctx, def, cfg, traced)
		if err != nil {
			return err
		}
		if err := res.print(stdout); err != nil {
			return err
		}
		failed += res.failed
	}
	if failed > 0 {
		return fmt.Errorf("%d rounds failed", failed)
	}
	return nil
}
