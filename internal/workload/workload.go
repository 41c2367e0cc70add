// Package workload synthesises multiresolution schema-mapping test cases
// from a source database, the way the paper's evaluation (§2.4) builds its
// test cases from Mondial: start from a ground-truth Project-Join mapping,
// sample tuples from its result, and then degrade the sampled cells to the
// requested resolution level (exact values, disjunctions, ranges,
// metadata-only columns, or missing cells).
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"prism/internal/constraint"
	"prism/internal/exec"
	"prism/internal/lang"
	"prism/internal/mem"
	"prism/internal/schema"
	"prism/internal/value"
)

// Level is the resolution level of a generated test case; the E1/E2 sweeps
// iterate over these from tightest to loosest.
type Level string

const (
	// LevelExact uses complete sample tuples with exact values — the
	// high-resolution input classic sample-driven systems require.
	LevelExact Level = "exact"
	// LevelDisjunction replaces some cells with a disjunction of two
	// possible values ("California || Nevada").
	LevelDisjunction Level = "disjunction"
	// LevelRange replaces numeric cells with value ranges.
	LevelRange Level = "range"
	// LevelMetadata drops some cells entirely and describes their column
	// with a metadata constraint instead (data type and value range).
	LevelMetadata Level = "metadata"
	// LevelMissing drops some cells without replacement.
	LevelMissing Level = "missing"
	// LevelPaper mimics the paper's §3 walkthrough: text cells become
	// disjunctions of possible values, numeric cells are dropped and
	// replaced by a column-level metadata constraint (data type plus a
	// MinValue bound). It is the mixed-resolution regime the scheduling
	// evaluation (E3) uses; it is not part of Levels().
	LevelPaper Level = "paper"
)

// Levels lists every level from tightest to loosest.
func Levels() []Level {
	return []Level{LevelExact, LevelDisjunction, LevelRange, LevelMetadata, LevelMissing}
}

// TestCase is one synthesised schema mapping task plus its ground truth.
type TestCase struct {
	Name  string
	Level Level
	// Spec is the multiresolution constraint specification handed to Prism.
	Spec *constraint.Spec
	// GroundTruth is the Project-Join plan the constraints were derived
	// from; discovery is expected to rediscover it (possibly among others).
	GroundTruth exec.Plan
}

// GroundTruthMapping is a named PJ query used as the basis of test cases.
type GroundTruthMapping struct {
	Name string
	Plan exec.Plan
}

// MondialGroundTruths returns the library of ground-truth mappings over the
// synthetic Mondial schema that test cases are derived from.
func MondialGroundTruths() []GroundTruthMapping {
	ref := func(t, c string) schema.ColumnRef { return schema.ColumnRef{Table: t, Column: c} }
	return []GroundTruthMapping{
		{
			Name: "lake-province-area",
			Plan: exec.Plan{
				Tables: []string{"Lake", "geo_lake"},
				Joins:  []exec.JoinEdge{{Left: ref("geo_lake", "Lake"), Right: ref("Lake", "Name")}},
				Project: []schema.ColumnRef{
					ref("geo_lake", "Province"), ref("Lake", "Name"), ref("Lake", "Area"),
				},
			},
		},
		{
			Name: "river-province-length",
			Plan: exec.Plan{
				Tables: []string{"River", "geo_river"},
				Joins:  []exec.JoinEdge{{Left: ref("geo_river", "River"), Right: ref("River", "Name")}},
				Project: []schema.ColumnRef{
					ref("geo_river", "Province"), ref("River", "Name"), ref("River", "Length"),
				},
			},
		},
		{
			Name: "city-province-country",
			Plan: exec.Plan{
				Tables: []string{"City", "Province"},
				Joins:  []exec.JoinEdge{{Left: ref("City", "Province"), Right: ref("Province", "Name")}},
				Project: []schema.ColumnRef{
					ref("City", "Name"), ref("Province", "Name"), ref("Province", "Country"),
				},
			},
		},
		{
			Name: "mountain-province-height",
			Plan: exec.Plan{
				Tables: []string{"Mountain", "geo_mountain"},
				Joins:  []exec.JoinEdge{{Left: ref("geo_mountain", "Mountain"), Right: ref("Mountain", "Name")}},
				Project: []schema.ColumnRef{
					ref("geo_mountain", "Province"), ref("Mountain", "Name"), ref("Mountain", "Height"),
				},
			},
		},
		{
			Name: "province-country-population",
			Plan: exec.Plan{
				Tables: []string{"Province", "Country"},
				Joins:  []exec.JoinEdge{{Left: ref("Province", "Country"), Right: ref("Country", "Name")}},
				Project: []schema.ColumnRef{
					ref("Province", "Name"), ref("Country", "Code"), ref("Province", "Population"),
				},
			},
		},
	}
}

// Generator synthesises test cases over one database.
type Generator struct {
	db        *mem.Database
	rng       *rand.Rand
	mappings  []GroundTruthMapping
	resultSet map[string]*exec.Result // mapping name -> executed result
}

// NewGenerator builds a generator for the database using the ground-truth
// mapping library. Mappings whose plan does not validate against the
// database schema (e.g. when using a non-Mondial database) are skipped.
func NewGenerator(db *mem.Database, seed int64, mappings []GroundTruthMapping) (*Generator, error) {
	g := &Generator{
		db:        db,
		rng:       rand.New(rand.NewSource(seed)),
		resultSet: make(map[string]*exec.Result),
	}
	for _, m := range mappings {
		if err := m.Plan.Validate(db.Schema()); err != nil {
			continue
		}
		res, err := db.Execute(m.Plan)
		if err != nil {
			return nil, fmt.Errorf("workload: executing ground truth %s: %w", m.Name, err)
		}
		if res.NumRows() == 0 {
			continue
		}
		g.mappings = append(g.mappings, m)
		g.resultSet[m.Name] = res
	}
	if len(g.mappings) == 0 {
		return nil, fmt.Errorf("workload: no ground-truth mapping is executable on database %q", db.Name)
	}
	return g, nil
}

// Mappings returns the usable ground-truth mappings.
func (g *Generator) Mappings() []GroundTruthMapping { return g.mappings }

// Config tunes test-case generation.
type Config struct {
	// SamplesPerCase is the number of sample-constraint rows (default 1).
	SamplesPerCase int
	// LoosenFraction is the fraction of cells degraded at the chosen level
	// (default 0.5 — half the cells of each sample).
	LoosenFraction float64
	// RangeWidth is the relative half-width of generated ranges (default
	// 0.5, i.e. [0.5·v, 1.5·v]).
	RangeWidth float64
	// MissingFraction is the fraction of cells dropped at LevelMissing
	// (default 0.5).
	MissingFraction float64
}

func (c Config) withDefaults() Config {
	if c.SamplesPerCase <= 0 {
		c.SamplesPerCase = 1
	}
	if c.LoosenFraction <= 0 || c.LoosenFraction > 1 {
		c.LoosenFraction = 0.5
	}
	if c.RangeWidth <= 0 {
		c.RangeWidth = 0.5
	}
	if c.MissingFraction <= 0 || c.MissingFraction > 1 {
		c.MissingFraction = 0.5
	}
	return c
}

// Generate produces count test cases at the given resolution level,
// rotating over the ground-truth mappings.
func (g *Generator) Generate(level Level, count int, cfg Config) ([]TestCase, error) {
	cfg = cfg.withDefaults()
	var out []TestCase
	for i := 0; i < count; i++ {
		m := g.mappings[i%len(g.mappings)]
		tc, err := g.generateOne(m, level, cfg, i)
		if err != nil {
			return nil, err
		}
		out = append(out, tc)
	}
	return out, nil
}

func (g *Generator) generateOne(m GroundTruthMapping, level Level, cfg Config, idx int) (TestCase, error) {
	res := g.resultSet[m.Name]
	numCols := len(m.Plan.Project)

	samples := make([]constraint.SampleConstraint, 0, cfg.SamplesPerCase)
	metadata := make([]lang.MetaExpr, numCols)
	for s := 0; s < cfg.SamplesPerCase; s++ {
		row := res.Rows[g.rng.Intn(len(res.Rows))]
		cells := make([]lang.ValueExpr, numCols)
		for col := 0; col < numCols; col++ {
			v := row[col]
			if v.IsNull() {
				continue
			}
			loosen := g.rng.Float64() < cfg.LoosenFraction
			if level == LevelPaper {
				// Paper-style mixed resolution, independent of LoosenFraction:
				// approximate text values, metadata-only numeric columns.
				if v.Kind().Numeric() {
					cells[col] = nil
					if metadata[col] == nil {
						metadata[col] = g.metadataCell(m.Plan.Project[col])
					}
				} else {
					cells[col] = g.disjunctionCell(m.Plan.Project[col], v)
				}
				continue
			}
			switch {
			case level == LevelExact || !loosen:
				cells[col] = lang.Keyword{Word: v.String()}
			case level == LevelDisjunction:
				cells[col] = g.disjunctionCell(m.Plan.Project[col], v)
			case level == LevelRange:
				cells[col] = rangeCell(v, cfg.RangeWidth)
			case level == LevelMetadata:
				cells[col] = nil
				if metadata[col] == nil {
					metadata[col] = g.metadataCell(m.Plan.Project[col])
				}
			case level == LevelMissing:
				if g.rng.Float64() < cfg.MissingFraction {
					cells[col] = nil
				} else {
					cells[col] = lang.Keyword{Word: v.String()}
				}
			default:
				cells[col] = lang.Keyword{Word: v.String()}
			}
		}
		samples = append(samples, constraint.SampleConstraint{Cells: cells})
	}

	// Guard against fully empty specifications (possible at LevelMissing):
	// keep at least one constrained cell by pinning the first column of the
	// first sample.
	spec, err := constraint.NewSpec(numCols, samples, metadata)
	if err != nil {
		row := res.Rows[0]
		samples[0].Cells[0] = lang.Keyword{Word: row[0].String()}
		spec, err = constraint.NewSpec(numCols, samples, metadata)
		if err != nil {
			return TestCase{}, fmt.Errorf("workload: building spec for %s: %w", m.Name, err)
		}
	}
	return TestCase{
		Name:        fmt.Sprintf("%s/%s-%02d", m.Name, level, idx+1),
		Level:       level,
		Spec:        spec,
		GroundTruth: m.Plan,
	}, nil
}

// disjunctionCell builds "v || other" where other is a different value from
// the same source column, mimicking a user who only knows a set of
// possibilities.
func (g *Generator) disjunctionCell(src schema.ColumnRef, v value.Value) lang.ValueExpr {
	vals, err := g.db.ColumnValues(src)
	exprs := []lang.ValueExpr{lang.Keyword{Word: v.String()}}
	if err == nil && len(vals) > 1 {
		for attempts := 0; attempts < 8; attempts++ {
			other := vals[g.rng.Intn(len(vals))]
			if other.IsNull() || other.Equal(v) {
				continue
			}
			exprs = append(exprs, lang.Keyword{Word: other.String()})
			break
		}
	}
	if len(exprs) == 1 {
		return exprs[0]
	}
	return lang.Or{Terms: exprs}
}

// rangeCell turns a numeric value into a surrounding closed range; non
// numeric values keep their exact keyword.
func rangeCell(v value.Value, width float64) lang.ValueExpr {
	f, ok := v.Float()
	if !ok || v.Kind() == value.Text && !strings.ContainsAny(v.String(), "0123456789") {
		return lang.Keyword{Word: v.String()}
	}
	if v.Kind() == value.Text || v.Kind() == value.Date || v.Kind() == value.Time {
		return lang.Keyword{Word: v.String()}
	}
	delta := width * abs(f)
	if delta == 0 {
		delta = width
	}
	return lang.Range{Lo: value.NewDecimal(f - delta), Hi: value.NewDecimal(f + delta)}
}

// metadataCell derives a low-resolution metadata constraint for a source
// column from its statistics, the way a user with rough domain knowledge
// would: the data type plus value bounds for numeric columns ("areas are
// non-negative and below X"), or the data type plus a maximum text length
// for text columns.
func (g *Generator) metadataCell(src schema.ColumnRef) lang.MetaExpr {
	st, ok := g.db.Stats(src)
	if !ok {
		return lang.MetaPredicate{Field: lang.FieldDataType, Op: lang.OpEq, Const: "text"}
	}
	typePred := lang.MetaPredicate{Field: lang.FieldDataType, Op: lang.OpEq, Const: st.Type.String()}
	if !st.Type.Numeric() || st.Min.IsNull() {
		if st.MaxLength > 0 {
			return lang.MetaAnd{Terms: []lang.MetaExpr{
				typePred,
				lang.MetaPredicate{Field: lang.FieldMaxLength, Op: lang.OpLe, Const: fmt.Sprintf("%d", st.MaxLength)},
			}}
		}
		return typePred
	}
	minF, _ := st.Min.Float()
	maxF, _ := st.Max.Float()
	lo := "0"
	if minF < 0 {
		lo = fmt.Sprintf("%g", minF)
	}
	// Round the upper bound up generously (a user knows the order of
	// magnitude, not the exact maximum).
	hi := fmt.Sprintf("%g", roundUpLoose(maxF))
	return lang.MetaAnd{Terms: []lang.MetaExpr{
		typePred,
		lang.MetaPredicate{Field: lang.FieldMinValue, Op: lang.OpGe, Const: lo},
		lang.MetaPredicate{Field: lang.FieldMaxValue, Op: lang.OpLe, Const: hi},
	}}
}

// roundUpLoose rounds a positive bound up to twice its value, a deliberately
// loose "order of magnitude" bound.
func roundUpLoose(f float64) float64 {
	if f <= 0 {
		return 1
	}
	return 2 * f
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}
