package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"prism"
)

// goldenFile is benchmark/golden/<workload>-seed<N>.json: per pool spec,
// the digest of the mapping set a reference executor found at parallelism
// 1. Measured rounds run the default executor at default parallelism, so a
// run with a golden file checks the program against an answer it did not
// produce itself.
type goldenFile struct {
	Workload   string       `json:"workload"`
	Seed       int64        `json:"seed"`
	PoolDigest string       `json:"poolDigest"`
	Reference  string       `json:"reference"`
	Specs      []goldenSpec `json:"specs"`
}

type goldenSpec struct {
	Name     string `json:"name"`
	Digest   string `json:"digest,omitempty"`
	Mappings int    `json:"mappings"`
	// RefinedDigest is the mapping set with the trajectory's cell cleared
	// (session and serve workloads).
	RefinedDigest string `json:"refinedDigest,omitempty"`
	// Timeout marks a spec the reference did not finish within its budget.
	Timeout bool `json:"timeout,omitempty"`
}

func (c runConfig) goldenPath(def workloadDef) string {
	return filepath.Join(c.goldenDir, fmt.Sprintf("%s-seed%d.json", def.name, c.seed))
}

// golden fills the oracle from the golden file of (workload, seed) when
// there is one. Without a file the oracle learns each spec's digest from
// its first round, after the ground-truth containment check.
func (c runConfig) golden(def workloadDef, pool []poolSpec, orc *oracle) error {
	if c.toy {
		return nil
	}
	raw, err := os.ReadFile(c.goldenPath(def))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var g goldenFile
	if err := json.Unmarshal(raw, &g); err != nil {
		return fmt.Errorf("%s: %w", c.goldenPath(def), err)
	}
	if g.PoolDigest != poolDigest(pool) || len(g.Specs) != len(pool) {
		return fmt.Errorf("%s was recorded for another pool (digest %s, now %s): the generator or the recipe changed, rerun with -update-golden",
			c.goldenPath(def), g.PoolDigest, poolDigest(pool))
	}
	for i, s := range g.Specs {
		if s.Timeout {
			continue
		}
		orc.base[i] = s.Digest
		orc.refined[i] = s.RefinedDigest
	}
	return nil
}

// referenceOptions are the rounds golden digests come from: the
// row-at-a-time mem executor, sequential, under the paper's 60 s budget.
// Over the 230k-row database mem needs minutes per spec, so oneshot_scale
// takes the columnar executor at parallelism 1 as its reference.
func referenceOptions(def workloadDef) prism.Options {
	opts := prism.Options{Executor: "mem", Parallelism: 1, TimeLimit: 60 * time.Second}
	if def.loop == loopStream {
		opts.Executor = "columnar"
	}
	return opts
}

// updateGolden builds the workload's database and pool once and records
// the reference digests.
func updateGolden(ctx context.Context, def workloadDef, c runConfig) error {
	db, eng, err := buildEngine(def.mondial)
	if err != nil {
		return err
	}
	pool, err := buildPool(db, def, c.seed)
	if err != nil {
		return err
	}
	opts := referenceOptions(def)
	g := goldenFile{
		Workload:   def.name,
		Seed:       c.seed,
		PoolDigest: poolDigest(pool),
		Reference:  fmt.Sprintf("%s executor, parallelism 1, %s budget", opts.Executor, opts.TimeLimit),
	}
	withRefined := def.loop == loopSession || def.loop == loopServe
	for _, ps := range pool {
		gs := goldenSpec{Name: ps.name}
		report, err := eng.Discover(ctx, ps.spec, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", ps.name, err)
		}
		if report.TimedOut {
			gs.Timeout = true
			g.Specs = append(g.Specs, gs)
			continue
		}
		gs.Digest, gs.Mappings = mappingDigest(reportSQLs(report)), len(report.Mappings)
		if withRefined {
			refinedSpec, err := ps.refine.Apply(ps.spec)
			if err != nil {
				return fmt.Errorf("%s: %w", ps.name, err)
			}
			refined, err := eng.Discover(ctx, refinedSpec, opts)
			if err != nil {
				return fmt.Errorf("%s refined: %w", ps.name, err)
			}
			if refined.TimedOut {
				gs.Timeout = true
			}
			gs.RefinedDigest = mappingDigest(reportSQLs(refined))
		}
		g.Specs = append(g.Specs, gs)
	}
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(c.goldenDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(c.goldenPath(def), append(raw, '\n'), 0o644)
}
