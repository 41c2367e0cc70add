package loadtest

// The BENCH_load.json trajectory document. cmd/prism-loadtest
// writes it, TestLoadTrajectoryGuard (trajectory_test.go) keeps the
// checked-in copy structurally honest, and the CI loadtest-smoke leg
// regenerates it and fails on a >20% p99/throughput regression.

import (
	"encoding/json"
	"fmt"
	"os"

	"prism/api"
)

// BenchmarkName identifies the trajectory document.
const BenchmarkName = "prism-loadtest"

// Trajectory is the BENCH_load.json document: one Profile per
// (concurrency, mix) grid cell, plus the server's own stats snapshot
// taken after the grid ran (cross-checking the client-side shed counts
// against the admission controller's).
type Trajectory struct {
	Benchmark string    `json:"benchmark"`
	Profiles  []Profile `json:"profiles"`
	// ServerStats is the GET /api/v1/stats snapshot after the run.
	ServerStats *api.StatsResponse `json:"serverStats,omitempty"`
}

// WriteFile writes the trajectory as indented JSON.
func (t *Trajectory) WriteFile(path string) error {
	payload, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(payload, '\n'), 0o644)
}

// ReadTrajectory loads and parses a trajectory file.
func ReadTrajectory(path string) (*Trajectory, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t Trajectory
	if err := json.Unmarshal(raw, &t); err != nil {
		return nil, fmt.Errorf("loadtest: %s does not parse: %w", path, err)
	}
	return &t, nil
}

// Validate checks the structural invariants every honest trajectory
// satisfies regardless of machine speed: a full grid of at least two
// concurrency levels × two mixes, consistent round accounting in every
// cell, and sane latency quantiles. Timing magnitudes are the CI
// regression leg's job.
func (t *Trajectory) Validate() error {
	if t.Benchmark != BenchmarkName {
		return fmt.Errorf("benchmark = %q, want %q", t.Benchmark, BenchmarkName)
	}
	concurrencies := map[int]bool{}
	mixes := map[string]bool{}
	seen := map[string]bool{}
	for _, p := range t.Profiles {
		cell := fmt.Sprintf("%s/c%d", p.Mix, p.Concurrency)
		if seen[cell] {
			return fmt.Errorf("duplicate grid cell %s", cell)
		}
		seen[cell] = true
		concurrencies[p.Concurrency] = true
		mixes[p.Mix] = true
		if p.Rounds <= 0 {
			return fmt.Errorf("%s: no rounds", cell)
		}
		if p.Completed+p.Shed+p.Failed != p.Rounds {
			return fmt.Errorf("%s: completed %d + shed %d + failed %d != rounds %d",
				cell, p.Completed, p.Shed, p.Failed, p.Rounds)
		}
		if p.Completed <= 0 {
			return fmt.Errorf("%s: nothing completed", cell)
		}
		if p.Failed > 0 {
			return fmt.Errorf("%s: %d failed rounds (only shedding is expected under load)", cell, p.Failed)
		}
		if p.ShedRate < 0 || p.ShedRate > 1 {
			return fmt.Errorf("%s: shed rate %v out of range", cell, p.ShedRate)
		}
		if p.ThroughputRPS <= 0 {
			return fmt.Errorf("%s: non-positive throughput", cell)
		}
		total := 0
		for _, l := range p.Latency {
			if l.Count <= 0 {
				return fmt.Errorf("%s/%s: empty latency entry", cell, l.Priority)
			}
			if l.P50Ms <= 0 || l.P99Ms < l.P50Ms {
				return fmt.Errorf("%s/%s: implausible quantiles p50=%v p99=%v",
					cell, l.Priority, l.P50Ms, l.P99Ms)
			}
			total += l.Count
		}
		if total != p.Completed {
			return fmt.Errorf("%s: latency samples %d != completed %d", cell, total, p.Completed)
		}
	}
	if len(concurrencies) < 2 {
		return fmt.Errorf("grid has %d concurrency levels, want >= 2", len(concurrencies))
	}
	if len(mixes) < 2 {
		return fmt.Errorf("grid has %d mixes, want >= 2", len(mixes))
	}
	return nil
}
