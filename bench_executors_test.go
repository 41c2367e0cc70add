package prism

// Executor benchmark trajectory artefact. BenchmarkExecutors (bench_test.go)
// measures full discovery rounds per dataset × backend × parallelism; after
// the timed runs it emits BENCH_executors.json — a machine-readable record
// of cold (first round on a fresh engine, including the one-time executor
// build) vs warm (steady-state) round timings plus the deterministic
// validation counts and mapping counts — mirroring the BENCH_sessions.json
// trajectory the session subsystem maintains. TestExecutorTrajectoryGuard
// keeps the checked-in file honest: the grid must match the bundled
// datasets and registered backends, and the deterministic counters must
// match what the current code produces, so a stale artefact fails tests
// even when no benchmark runs. The CI bench-smoke leg additionally
// regenerates the file and fails on a >20% regression of the columnar
// engine's speedup over the reference engine.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"prism/internal/dataset"
	"prism/internal/mem"
)

// executorRound is one record of BENCH_executors.json.
type executorRound struct {
	Dataset     string `json:"dataset"`
	Executor    string `json:"executor"`
	Parallelism int    `json:"parallelism"`
	Phase       string `json:"phase"` // cold | warm
	ElapsedUS   int64  `json:"elapsedUs"`
	Validations int    `json:"validations"`
	Mappings    int    `json:"mappings"`
}

// coldStartRound is one record of the cold-start section of
// BENCH_executors.json: per dataset, either rebuilding the analyzed
// database from its generator ("rebuild") or decoding an Engine.Snapshot
// stream of the same database ("snapshot"). Engine construction on top —
// Bayesian training, executor build — is identical on both paths, so the
// pair isolates exactly the phase the CLIs' -snapshot flags skip.
type coldStartRound struct {
	Dataset   string `json:"dataset"`
	Phase     string `json:"phase"` // rebuild | snapshot
	ElapsedUS int64  `json:"elapsedUs"`
	Rows      int    `json:"rows"`
	Bytes     int    `json:"bytes,omitempty"` // snapshot size; "snapshot" phase only
}

// executorTrajectory is the BENCH_executors.json document.
type executorTrajectory struct {
	Benchmark string          `json:"benchmark"`
	Rounds    []executorRound `json:"rounds"`
	// Speedups is, per dataset, the warm sequential (p1) round time of the
	// reference engine divided by the columnar engine's — the artefact's
	// headline, and the machine-portable ratio the CI regression check
	// compares against the checked-in baseline.
	Speedups map[string]float64 `json:"speedups"`
	// ColdStarts records the database cold-start comparison
	// (BenchmarkExecutors emits it alongside the round grid).
	ColdStarts []coldStartRound `json:"coldStarts"`
	// ColdStartSpeedups is, per dataset, rebuild time over snapshot-load
	// time. The storage docs promise at least wantColdStartSpeedup here,
	// and the trajectory guard holds the recorded artefact to it.
	ColdStartSpeedups map[string]float64 `json:"coldStartSpeedups"`
}

// wantColdStartSpeedup is the floor the recorded cold-start entries must
// clear: loading an engine snapshot has to beat regenerating and
// re-analyzing the same dataset by at least this factor, or snapshots are
// not pulling their architectural weight. Regenerate BENCH_executors.json
// on an unloaded machine if the guard trips on a noisy measurement.
//
// The floor was 5 while the analysis was one sequential pass that also built
// a global postings index. With that index gone and the columns analyzed in
// parallel the rebuild of the demo Mondial fell from 3.7 to 1.2–1.3 ms and
// its snapshot load from 0.55 to 0.26 ms on the same two cores: both paths
// are faster, the rebuild by more, and the ratio reads 4.7–5.0 (imdb 5.2–7.6,
// nba 5.4–6.1). A faster rebuild is not a snapshot regression, so the floor
// is restated instead of the rebuild slowed; docs/storage.md has the times
// side by side.
const wantColdStartSpeedup = 4.0

// coldStartBuilders pairs each bundled dataset with its default-sized
// database builder; the cold-start section measures these.
var coldStartBuilders = []struct {
	name  string
	build func() (*mem.Database, error)
}{
	{"mondial", func() (*mem.Database, error) { return dataset.Mondial(dataset.DefaultMondialConfig()) }},
	{"imdb", func() (*mem.Database, error) { return dataset.IMDB(dataset.DefaultIMDBConfig()) }},
	{"nba", func() (*mem.Database, error) { return dataset.NBA(dataset.DefaultNBAConfig()) }},
}

var trajectoryExecutors = []string{"mem", "columnar"}
var trajectoryParallelism = []int{1, 4}

// buildExecutorTrajectory measures every dataset × backend × parallelism
// combination: the cold round runs on a freshly preprocessed engine (so it
// pays the executor build), the warm figure is the best of three
// steady-state rounds (best-of damps scheduler-goroutine jitter; the
// artefact tracks capability, not noise).
func buildExecutorTrajectory(tb testing.TB) *executorTrajectory {
	tb.Helper()
	traj := &executorTrajectory{Benchmark: "BenchmarkExecutors", Speedups: map[string]float64{}}
	warmP1 := map[string]map[string]int64{} // dataset -> executor -> warm µs
	ctx := context.Background()
	for _, tc := range benchExecutorCases(tb) {
		warmP1[tc.name] = map[string]int64{}
		for _, executor := range trajectoryExecutors {
			for _, p := range trajectoryParallelism {
				opts := Options{Executor: executor, Parallelism: p}
				eng := NewEngine(tc.eng.Database()) // fresh engine: empty executor cache
				start := time.Now()
				cold, err := eng.Discover(ctx, tc.spec, opts)
				coldUS := time.Since(start).Microseconds()
				if err != nil {
					tb.Fatalf("%s/%s/p%d cold: %v", tc.name, executor, p, err)
				}
				warmUS := int64(0)
				var warm *Report
				for i := 0; i < 3; i++ {
					start = time.Now()
					w, err := eng.Discover(ctx, tc.spec, opts)
					us := time.Since(start).Microseconds()
					if err != nil {
						tb.Fatalf("%s/%s/p%d warm: %v", tc.name, executor, p, err)
					}
					if warm == nil || us < warmUS {
						warm, warmUS = w, us
					}
				}
				traj.Rounds = append(traj.Rounds,
					executorRound{tc.name, executor, p, "cold", coldUS, cold.Validations, len(cold.Mappings)},
					executorRound{tc.name, executor, p, "warm", warmUS, warm.Validations, len(warm.Mappings)},
				)
				if p == 1 {
					warmP1[tc.name][executor] = warmUS
				}
			}
		}
		if c := warmP1[tc.name]["columnar"]; c > 0 {
			traj.Speedups[tc.name] = float64(warmP1[tc.name]["mem"]) / float64(c)
		}
	}

	// Cold-start section: per dataset, generate-and-analyze vs decoding a
	// snapshot of the same database (best of five; generation and decode
	// are both deterministic, so best-of damps only scheduler noise).
	traj.ColdStartSpeedups = map[string]float64{}
	for _, b := range coldStartBuilders {
		db, err := b.build()
		if err != nil {
			tb.Fatalf("%s: building dataset: %v", b.name, err)
		}
		var buf bytes.Buffer
		if err := db.WriteSnapshot(&buf); err != nil {
			tb.Fatalf("%s: writing snapshot: %v", b.name, err)
		}
		var rebuildUS, loadUS int64
		for i := 0; i < 5; i++ {
			start := time.Now()
			if _, err := b.build(); err != nil {
				tb.Fatalf("%s: rebuilding dataset: %v", b.name, err)
			}
			if us := time.Since(start).Microseconds(); rebuildUS == 0 || us < rebuildUS {
				rebuildUS = us
			}
			start = time.Now()
			loaded, err := mem.ReadSnapshot(bytes.NewReader(buf.Bytes()))
			if err != nil {
				tb.Fatalf("%s: loading snapshot: %v", b.name, err)
			}
			if us := time.Since(start).Microseconds(); loadUS == 0 || us < loadUS {
				loadUS = us
			}
			if loaded.TotalRows() != db.TotalRows() {
				tb.Fatalf("%s: snapshot round trip lost rows: %d != %d", b.name, loaded.TotalRows(), db.TotalRows())
			}
		}
		traj.ColdStarts = append(traj.ColdStarts,
			coldStartRound{Dataset: b.name, Phase: "rebuild", ElapsedUS: rebuildUS, Rows: db.TotalRows()},
			coldStartRound{Dataset: b.name, Phase: "snapshot", ElapsedUS: loadUS, Rows: db.TotalRows(), Bytes: buf.Len()},
		)
		traj.ColdStartSpeedups[b.name] = float64(rebuildUS) / float64(loadUS)
	}
	return traj
}

// writeExecutorTrajectory is called by BenchmarkExecutors after its timed
// runs:
//
//	go test -run xxx -bench 'BenchmarkExecutors/' .
func writeExecutorTrajectory(b *testing.B) {
	traj := buildExecutorTrajectory(b)
	payload, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_executors.json", append(payload, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// TestExecutorTrajectoryGuard pins the checked-in BENCH_executors.json to
// the current code: the grid must cover exactly the bundled datasets ×
// registered comparison backends × parallelism levels × {cold, warm}, and
// the deterministic counters (sequential validation counts, mapping
// counts) must equal what a live round produces. Timings are asserted only
// for sanity (positive); machines differ, so regressions on the timing
// ratio are the CI bench-smoke leg's job.
func TestExecutorTrajectoryGuard(t *testing.T) {
	raw, err := os.ReadFile("BENCH_executors.json")
	if err != nil {
		t.Fatalf("BENCH_executors.json missing (regenerate with: go test -run xxx -bench 'BenchmarkExecutors/' .): %v", err)
	}
	var traj executorTrajectory
	if err := json.Unmarshal(raw, &traj); err != nil {
		t.Fatalf("BENCH_executors.json does not parse: %v", err)
	}
	if traj.Benchmark != "BenchmarkExecutors" {
		t.Errorf("benchmark = %q", traj.Benchmark)
	}

	index := map[string]executorRound{}
	for _, r := range traj.Rounds {
		key := fmt.Sprintf("%s/%s/p%d/%s", r.Dataset, r.Executor, r.Parallelism, r.Phase)
		if _, dup := index[key]; dup {
			t.Errorf("duplicate round %s", key)
		}
		index[key] = r
		if r.ElapsedUS <= 0 {
			t.Errorf("%s: non-positive elapsed time", key)
		}
		if r.Mappings == 0 || r.Validations == 0 {
			t.Errorf("%s: empty round (%d mappings, %d validations)", key, r.Mappings, r.Validations)
		}
	}

	cases := benchExecutorCases(t)
	wantRounds := 0
	ctx := context.Background()
	for _, tc := range cases {
		// One live sequential round per dataset pins the deterministic
		// counters the artefact recorded.
		live, err := tc.eng.Discover(ctx, tc.spec, Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s live round: %v", tc.name, err)
		}
		for _, executor := range trajectoryExecutors {
			for _, p := range trajectoryParallelism {
				for _, phase := range []string{"cold", "warm"} {
					wantRounds++
					key := fmt.Sprintf("%s/%s/p%d/%s", tc.name, executor, p, phase)
					r, ok := index[key]
					if !ok {
						t.Errorf("round %s missing — regenerate BENCH_executors.json", key)
						continue
					}
					if r.Mappings != len(live.Mappings) {
						t.Errorf("%s: %d mappings recorded, current code discovers %d — artefact out of sync",
							key, r.Mappings, len(live.Mappings))
					}
					// Sequential scheduling is deterministic, and the mapping
					// set (hence the validation count) is backend- and
					// cache-independent by construction.
					if p == 1 && r.Validations != live.Validations {
						t.Errorf("%s: %d validations recorded, current code executes %d — artefact out of sync",
							key, r.Validations, live.Validations)
					}
				}
			}
		}
		sp, ok := traj.Speedups[tc.name]
		if !ok || sp <= 0 {
			t.Errorf("speedup for %s missing or non-positive: %v", tc.name, sp)
		}
	}
	if len(index) != wantRounds {
		t.Errorf("artefact has %d rounds, want %d — stale grid", len(index), wantRounds)
	}

	// Cold-start section: both phases recorded per bundled dataset, the
	// deterministic row counts pinned against a live build, and the
	// recorded speedup at or above the documented floor. Unlike the main
	// grid's timings this ratio IS asserted: it compares two measurements
	// from the same machine, and falling under the floor means snapshots
	// stopped paying for themselves.
	csIndex := map[string]coldStartRound{}
	for _, r := range traj.ColdStarts {
		key := r.Dataset + "/" + r.Phase
		if _, dup := csIndex[key]; dup {
			t.Errorf("duplicate cold-start round %s", key)
		}
		csIndex[key] = r
		if r.ElapsedUS <= 0 || r.Rows <= 0 {
			t.Errorf("cold-start round %s: empty or non-positive (%dµs, %d rows)", key, r.ElapsedUS, r.Rows)
		}
	}
	for _, b := range coldStartBuilders {
		db, err := b.build()
		if err != nil {
			t.Fatalf("%s: building dataset: %v", b.name, err)
		}
		for _, phase := range []string{"rebuild", "snapshot"} {
			key := b.name + "/" + phase
			r, ok := csIndex[key]
			if !ok {
				t.Errorf("cold-start round %s missing — regenerate BENCH_executors.json", key)
				continue
			}
			if r.Rows != db.TotalRows() {
				t.Errorf("%s: %d rows recorded, current generator produces %d — artefact out of sync",
					key, r.Rows, db.TotalRows())
			}
			if wantBytes := phase == "snapshot"; (r.Bytes > 0) != wantBytes {
				t.Errorf("%s: snapshot bytes = %d (want recorded exactly on the snapshot phase)", key, r.Bytes)
			}
		}
		sp := traj.ColdStartSpeedups[b.name]
		if sp < wantColdStartSpeedup {
			t.Errorf("cold-start speedup for %s is %.2fx, below the documented %.0fx floor — regenerate on an unloaded machine or fix the decode path",
				b.name, sp, wantColdStartSpeedup)
		}
	}
	if len(csIndex) != 2*len(coldStartBuilders) {
		t.Errorf("artefact has %d cold-start rounds, want %d — stale grid", len(csIndex), 2*len(coldStartBuilders))
	}
}
