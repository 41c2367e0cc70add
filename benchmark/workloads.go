package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strings"

	"prism/internal/constraint"
	"prism/internal/dataset"
	"prism/internal/lang"
	"prism/internal/mem"
	"prism/internal/sqlgen"
	"prism/internal/workload"
)

// loopKind names the API a workload's rounds go through.
type loopKind string

const (
	loopSession loopKind = "session" // prism.Session: cold, refine, revert, replay per spec
	loopStream  loopKind = "stream"  // Engine.DiscoverStream, one round per spec
	loopUnary   loopKind = "unary"   // Engine.Discover, one round per spec
	loopServe   loopKind = "serve"   // client -> loopback HTTP -> internal/server
)

// recipe is one slice of a spec pool: count specs from the workload
// generator at one resolution level, every loosenable cell loosened, then
// the listed target columns cleared in every sample row.
//
// Every recipe has a fixed cell structure: the seed chooses which rows of
// the ground-truth result are sampled and which alternative values enter a
// disjunction, never which cells are loosened. The generator's default
// LoosenFraction of 0.5 makes the cost of a pool a coin flip per cell (a
// metadata-level spec over 230k rows ran for 8 ms or 800 ms depending on
// it), which would make every metric a property of the seed.
type recipe struct {
	level   workload.Level
	count   int
	samples int
	clear   []int
}

// workloadDef is one named workload: a database, a spec pool and a loop.
type workloadDef struct {
	name    string
	mondial dataset.MondialConfig
	pool    []recipe
	loop    loopKind
	// setups is how many times a run builds the system; setup_s is the
	// median of the build times.
	setups int
}

// mixedPool is the pool of the two workloads that differ only in data
// size: high resolution (exact), medium (disjunctions, ranges) and the
// paper's mixed walkthrough shape (disjunctions plus a metadata-only
// numeric column), ten of each over the five ground-truth mappings.
var mixedPool = []recipe{
	{level: workload.LevelExact, count: 10, samples: 2},
	{level: workload.LevelDisjunction, count: 10, samples: 2},
	{level: workload.LevelRange, count: 10, samples: 2},
	{level: workload.LevelPaper, count: 10, samples: 2},
}

// workloads lists the four workloads in the order a full run executes
// them; each entry's comment is why the workload exists (BENCHMARK.json
// carries the same reasons).
var workloads = []workloadDef{
	{
		name: "session_refine",
		// Demo-size data: enumerate, decompose, estimate and assemble are the
		// round; cold rounds fill the outcome cache, replays only read it.
		mondial: dataset.DefaultMondialConfig(),
		pool:    mixedPool,
		loop:    loopSession,
		setups:  25,
	},
	{
		name: "oneshot_scale",
		// The same specs over 200x the rows, through the stream API: whatever
		// grows with data shows, and set-up and heap are seconds and hundreds
		// of MB.
		mondial: dataset.MondialConfig{Seed: 1, Countries: 60, ProvincesPerCountry: 20, CitiesPerProvince: 40,
			Lakes: 30000, Rivers: 20000, Mountains: 15000},
		pool:   mixedPool,
		loop:   loopStream,
		setups: 3,
	},
	{
		name: "oneshot_lowres",
		// Low-resolution specs over 10k rows: hundreds to thousands of
		// candidates, filters and validations per round, so executor,
		// decomposition and scheduler do the work.
		mondial: dataset.MondialConfig{Seed: 1, Countries: 20, ProvincesPerCountry: 8, CitiesPerProvince: 8,
			Lakes: 1500, Rivers: 1000, Mountains: 800},
		pool: []recipe{
			// Metadata on every column and no sample value at all.
			{level: workload.LevelMetadata, count: 10, samples: 1},
			// One approximate value plus a metadata-only numeric column;
			// the other text column is unknown.
			{level: workload.LevelPaper, count: 20, samples: 1, clear: []int{1}},
			// One approximate value and nothing else.
			{level: workload.LevelPaper, count: 20, samples: 1, clear: []int{1, 2}},
		},
		loop:   loopUnary,
		setups: 9,
	},
	{
		name: "serve_mixed",
		// The only workload that crosses api/client/server/serve: rounds are
		// a few ms, so codec, HTTP and admission are a visible share; unary,
		// stream and session traffic share one admission controller. The
		// server builds its own databases at their default sizes; mondial
		// here is the same one, for the golden reference.
		mondial: dataset.DefaultMondialConfig(),
		pool:    mixedPool,
		loop:    loopServe,
		setups:  15,
	},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// toy shrinks a workload to test size: a small database and two specs per
// recipe, same loop and same pool structure.
func (w workloadDef) toy() workloadDef {
	w.mondial = dataset.MondialConfig{Seed: 1, Countries: 5, ProvincesPerCountry: 3, CitiesPerProvince: 2,
		Lakes: 30, Rivers: 20, Mountains: 15}
	pool := make([]recipe, len(w.pool))
	for i, r := range w.pool {
		r.count = 2
		pool[i] = r
	}
	w.pool = pool
	w.setups = 1
	return w
}

// poolSpec is one generated spec with what the correctness checks need.
type poolSpec struct {
	name string
	spec *constraint.Spec
	// truthSQL is the normalised SQL of the mapping the spec was derived
	// from; every correct mapping set contains it.
	truthSQL string
	// refine clears one constrained cell and revert restores it: the
	// session trajectory's two deltas.
	refine, revert constraint.Delta
}

// buildPool generates the workload's spec pool from the seed.
func buildPool(db *mem.Database, def workloadDef, seed int64) ([]poolSpec, error) {
	gen, err := workload.NewGenerator(db, seed, workload.MondialGroundTruths())
	if err != nil {
		return nil, err
	}
	var pool []poolSpec
	for _, r := range def.pool {
		cases, err := gen.Generate(r.level, r.count, workload.Config{SamplesPerCase: r.samples, LoosenFraction: 1})
		if err != nil {
			return nil, err
		}
		for _, tc := range cases {
			spec, err := clearColumns(tc.Spec, r.clear)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", tc.Name, err)
			}
			truth := tc.GroundTruth
			truth.Distinct = true
			truthSQL, err := sqlgen.Normalize(sqlgen.Generate(truth), db.Schema())
			if err != nil {
				return nil, fmt.Errorf("%s: ground truth: %w", tc.Name, err)
			}
			ps := poolSpec{name: tc.Name, spec: spec, truthSQL: truthSQL}
			ps.refine, ps.revert = trajectoryDeltas(spec)
			pool = append(pool, ps)
		}
	}
	return pool, nil
}

// clearColumns returns the spec with the given target columns emptied in
// every sample row (metadata constraints stay).
func clearColumns(sp *constraint.Spec, cols []int) (*constraint.Spec, error) {
	if len(cols) == 0 {
		return sp, nil
	}
	samples := make([]constraint.SampleConstraint, len(sp.Samples))
	for i, s := range sp.Samples {
		cells := slices.Clone(s.Cells)
		for _, c := range cols {
			cells[c] = nil
		}
		samples[i] = constraint.SampleConstraint{Cells: cells}
	}
	return constraint.NewSpec(sp.NumColumns, samples, sp.Metadata)
}

// trajectoryDeltas picks the last cell of the first sample row whose
// canonical text parses back to itself, and returns the delta that clears
// it and the one that writes it back from that text. (Not every cell
// qualifies: a range prints large bounds as 1.58e+06, which the cell
// parser rejects.) A spec without such a cell gets zero deltas; only
// session rounds use them, and their pools always have one.
func trajectoryDeltas(sp *constraint.Spec) (refine, revert constraint.Delta) {
	if len(sp.Samples) == 0 {
		return
	}
	cells := sp.Samples[0].Cells
	for col := len(cells) - 1; col >= 0; col-- {
		if cells[col] == nil {
			continue
		}
		text := cells[col].String()
		if parsed, err := lang.ParseValueConstraint(text); err != nil || parsed.String() != text {
			continue
		}
		refine.UpdateCells = []constraint.CellUpdate{{Row: 0, Col: col, Cell: ""}}
		revert.UpdateCells = []constraint.CellUpdate{{Row: 0, Col: col, Cell: text}}
		return
	}
	return
}

// poolDigest fingerprints a pool: same seed, same digest.
func poolDigest(pool []poolSpec) string {
	h := sha256.New()
	for _, ps := range pool {
		fmt.Fprintf(h, "%s\n%s\n", ps.name, ps.spec)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// mappingDigest fingerprints a mapping set as the hash of its sorted SQL
// texts; mapping order (confirmation order, simplest-first) is not part of
// the set.
func mappingDigest(sqls []string) string {
	sorted := slices.Clone(sqls)
	sort.Strings(sorted)
	h := sha256.New()
	for _, s := range sorted {
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
