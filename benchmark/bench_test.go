package main

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"prism/internal/exec"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if err := supported(99, 0.90); err == nil {
		t.Error("p90 of 99 samples has nine samples beyond it and must be refused")
	}
	if err := supported(100, 0.90); err != nil {
		t.Errorf("p90 of 100 samples has ten samples beyond it: %v", err)
	}
	if err := supported(19, 0.50); err == nil {
		t.Error("p50 of 19 samples has nine samples beyond it and must be refused")
	}
	if err := supported(21, 0.50); err != nil {
		t.Errorf("p50 of 21 samples has ten samples on either side: %v", err)
	}
	if err := supported(100, 0.99); err == nil {
		t.Error("p99 of 100 samples has one sample beyond it and must be refused")
	}
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i)
	}
	if got := nearestRank(samples, 0.90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := nearestRank(samples[:21], 0.50); got != 90 {
		t.Errorf("p50 of 80..100 = %v, want 90", got)
	}

	// A run's tally applies the rule to the run as a whole.
	tl := newTally()
	for i := 0; i < 99; i++ {
		tl.add(kindOneshot, time.Duration(i+1)*time.Millisecond, time.Millisecond, nil)
	}
	totals := func(p *pass) []float64 { return p.totals }
	if _, err := tl.overPasses(0.90, totals); err == nil {
		t.Error("a run of 99 rounds must not report a p90")
	}
	tl.add(kindOneshot, 100*time.Millisecond, time.Millisecond, nil)
	if got, err := tl.overPasses(0.90, totals); err != nil || got != 90 {
		t.Errorf("p90 of a 100-round run = %v, %v; want 90", got, err)
	}
}

func TestRunPassesRunsWholePasses(t *testing.T) {
	calls := 0
	passes, _ := runPasses(0, 250, func() int { calls++; return 100 })
	if passes != 3 || calls != 3 {
		t.Errorf("250 samples at 100 a pass: %d passes, %d calls; want 3", passes, calls)
	}
	// The time limit is only looked at between passes, and one pass always runs.
	passes, wall := runPasses(0, 0, func() int { time.Sleep(5 * time.Millisecond); return 1 })
	if passes != 1 || wall < 5*time.Millisecond {
		t.Errorf("zero seconds: %d passes in %s; want one whole pass", passes, wall)
	}
	passes, _ = runPasses(0.02, 0, func() int { time.Sleep(15 * time.Millisecond); return 1 })
	if passes != 2 {
		t.Errorf("20 ms of 15 ms passes: %d passes; want 2 (the second one finished)", passes)
	}
}

func toyLibEnv(t *testing.T, name string, seed int64) *libEnv {
	t.Helper()
	def, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	env, _, err := newLibEnv(def.toy(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestPoolIsAFunctionOfTheSeed(t *testing.T) {
	a := poolDigest(toyLibEnv(t, "session_refine", 7).pool)
	b := poolDigest(toyLibEnv(t, "session_refine", 7).pool)
	c := poolDigest(toyLibEnv(t, "session_refine", 8).pool)
	if a != b {
		t.Errorf("seed 7 gave pools %s and %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 gave the same pool %s", a)
	}
}

func TestSessionPoolHasTrajectoryDeltas(t *testing.T) {
	for _, ps := range toyLibEnv(t, "session_refine", 1).pool {
		if ps.refine.IsZero() || ps.revert.IsZero() {
			t.Errorf("%s: no cell to clear and restore", ps.name)
			continue
		}
		refined, err := ps.refine.Apply(ps.spec)
		if err != nil {
			t.Fatalf("%s: %v", ps.name, err)
		}
		reverted, err := ps.revert.Apply(refined)
		if err != nil {
			t.Fatalf("%s: %v", ps.name, err)
		}
		if reverted.String() != ps.spec.String() {
			t.Errorf("%s: revert gives\n%s\nwant\n%s", ps.name, reverted, ps.spec)
		}
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{id: 1, name: "round", start: 0, end: 100},
		{id: 2, parent: 1, name: "a", start: 10, end: 40},
		{id: 3, parent: 1, name: "b", start: 50, end: 70},
		{id: 4, parent: 2, name: "a.x", start: 15, end: 25},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50, 2: 20, 3: 20, 4: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

// The timing decorators wrap the executor and the estimator of a staged
// round; mapping sets, schedule counters and executor statistics must not
// notice.
func TestDecoratorsChangeNothing(t *testing.T) {
	env := toyLibEnv(t, "oneshot_lowres", 1)
	ex, err := exec.New(exec.DefaultName, env.db)
	if err != nil {
		t.Fatal(err)
	}
	st := newStager(env.eng, ex, true)
	ctx := context.Background()
	for _, ps := range env.pool {
		rec := newRecorder()
		traced, err := st.round(ctx, rec, 1, ps.spec, nil, false)
		if err != nil {
			t.Fatalf("%s traced: %v", ps.name, err)
		}
		bare, err := st.round(ctx, nil, 1, ps.spec, nil, false)
		if err != nil {
			t.Fatalf("%s bare: %v", ps.name, err)
		}
		if !reflect.DeepEqual(traced.sqls, bare.sqls) {
			t.Errorf("%s: decorators changed the mapping set", ps.name)
		}
		a, b := traced.sched, bare.sched
		// ScratchBytes is the capacity of whichever pooled buffer the
		// execution happened to draw: not a count of work.
		a.Cost.ScratchBytes, b.Cost.ScratchBytes = 0, 0
		if a.Validations != b.Validations || a.Implied != b.Implied || a.Cost != b.Cost ||
			!reflect.DeepEqual(a.Confirmed, b.Confirmed) || !reflect.DeepEqual(a.Pruned, b.Pruned) {
			t.Errorf("%s: decorators changed the schedule: %d/%d validations, %d/%d implied, cost %+v / %+v",
				ps.name, a.Validations, b.Validations, a.Implied, b.Implied, a.Cost, b.Cost)
		}
		report, err := env.eng.Discover(ctx, ps.spec, defaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if mappingDigest(reportSQLs(report)) != mappingDigest(traced.sqls) {
			t.Errorf("%s: the staged replay and Engine.Discover disagree", ps.name)
		}
		if len(rec.spans) == 0 {
			t.Errorf("%s: no spans recorded", ps.name)
		}
	}
}

func smokeConfig() runConfig { return runConfig{seed: 3, seconds: 0, toy: true, goldenDir: "golden"} }

// TestSmoke runs every workload at toy scale, end to end and traced, so
// that `go test ./...` exercises the whole benchmark on every change.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			res, err := runWorkload(ctx, def, smokeConfig(), false)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted < minSamples {
				t.Errorf("%d of %d rounds failed", res.failed, res.attempted)
			}
			if len(res.metrics) != len(endToEndMetrics) {
				t.Fatalf("%d metrics, want %d", len(res.metrics), len(endToEndMetrics))
			}
			for i, m := range res.metrics {
				if m.name != endToEndMetrics[i].name || m.value <= 0 {
					t.Errorf("metric %d is %s = %v", i, m.name, m.value)
				}
			}
			var out bytes.Buffer
			if err := res.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var v verdictLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
				t.Fatalf("last line is not a verdict: %v", err)
			}
			if !v.Correct || v.Attempted != res.attempted || len(v.Metrics) != len(endToEndMetrics) {
				t.Errorf("verdict %+v", v)
			}
		})
		t.Run(def.name+"/traced", func(t *testing.T) {
			cfg := smokeConfig()
			cfg.traceFile = filepath.Join(t.TempDir(), "spans.ndjson")
			res, err := runWorkload(ctx, def, cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 {
				t.Errorf("%d of %d traced rounds failed", res.failed, res.attempted)
			}
			values := make(map[string]float64)
			for _, m := range res.metrics {
				values[m.name] = m.value
			}
			if len(values) != len(layerMetrics) {
				t.Fatalf("%d layer metrics, want %d", len(values), len(layerMetrics))
			}
			if values["discovery.unattributed_us"] < 0 {
				t.Errorf("discovery.unattributed_us = %v", values["discovery.unattributed_us"])
			}
			for _, name := range []string{"graphx.candidates", "filter.filters", "sched.validations", "discovery.round_us", "sched.run_us"} {
				if values[name] <= 0 {
					t.Errorf("%s = %v on a workload that runs rounds", name, values[name])
				}
			}
			if def.loop == loopSession && values["filter.cache_hits"] <= 0 {
				t.Error("a session trajectory without cache hits")
			}
			if def.loop == loopServe {
				for _, name := range []string{"client.unary_us", "client.stream_us", "client.refine_us", "server.handler_us", "serve.admitted"} {
					if values[name] <= 0 {
						t.Errorf("%s = %v on the serving workload", name, values[name])
					}
				}
			}
		})
	}
}

// A traced run at parallelism 1 must count the same work every time.
func TestTracedCountsRepeat(t *testing.T) {
	def, _ := workloadByName("session_refine")
	counts := func() map[string]float64 {
		res, err := runWorkload(context.Background(), def, smokeConfig(), true)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]float64)
		for _, m := range res.metrics {
			if m.unit == "count" {
				out[m.name] = m.value
			}
		}
		return out
	}
	if a, b := counts(), counts(); !reflect.DeepEqual(a, b) {
		t.Errorf("counts differ between two traced runs:\n%v\n%v", a, b)
	}
}

// BENCHMARK.json is the contract; the program must print what it lists.
func TestManifestMatchesProgram(t *testing.T) {
	m, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, workloads[i].name)
		}
	}
	if len(m.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics listed, %d printed", len(m.EndToEnd), len(endToEndMetrics))
	}
	for i, e := range m.EndToEnd {
		if e.Name != endToEndMetrics[i].name || e.Unit != endToEndMetrics[i].unit {
			t.Errorf("end-to-end metric %d is %s (%s), program prints %s (%s)", i, e.Name, e.Unit, endToEndMetrics[i].name, endToEndMetrics[i].unit)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v", e.Name, e.Bound)
		}
	}
	if len(m.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics listed, %d printed", len(m.PerLayer), len(layerMetrics))
	}
	for i, l := range m.PerLayer {
		if l.Name != layerMetrics[i].name || l.Unit != layerMetrics[i].unit {
			t.Errorf("per-layer metric %d is %s (%s), program prints %s (%s)", i, l.Name, l.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}

// A golden file that no longer matches its pool makes every run fail; find
// out here instead.
func TestGoldenFilesAreCurrent(t *testing.T) {
	for _, def := range workloads {
		if def.loop == loopStream && testing.Short() {
			continue // building the 230k-row database takes seconds
		}
		t.Run(def.name, func(t *testing.T) {
			db, _, err := buildEngine(def.mondial)
			if err != nil {
				t.Fatal(err)
			}
			pool, err := buildPool(db, def, 1)
			if err != nil {
				t.Fatal(err)
			}
			orc := newOracle(db, pool)
			cfg := runConfig{seed: 1, goldenDir: "golden"}
			if err := cfg.golden(def, pool, orc); err != nil {
				t.Fatal(err)
			}
			for i, digest := range orc.base {
				if digest == "" {
					t.Errorf("%s has no golden digest", pool[i].name)
				}
			}
		})
	}
}
