// Package difftest builds the inputs shared by the differential tests of a
// round's front half (graphx, filter, sched): the bundled databases and,
// over each, a pool of workload-generator specifications with their related
// columns, the way a discovery round finds them. It is imported by tests
// only.
package difftest

import (
	"fmt"
	"testing"

	"prism/internal/constraint"
	"prism/internal/dataset"
	"prism/internal/mem"
	"prism/internal/schema"
	"prism/internal/workload"
)

// Round is one specification with the related source columns of its target
// columns: the input of candidate enumeration.
type Round struct {
	Name    string
	Spec    *constraint.Spec
	Related [][]schema.ColumnRef
}

// Databases returns the analysed demo-size Mondial, IMDB and NBA databases
// by name.
func Databases(t testing.TB) map[string]*mem.Database {
	t.Helper()
	out := make(map[string]*mem.Database)
	for _, name := range dataset.Names() {
		db, err := dataset.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		db.Analyze()
		out[name] = db
	}
	return out
}

// Rounds generates the pool over db: perLevel specifications at every
// resolution level and at the paper's mixed level, two sample rows each, and
// two of the low-resolution recipe — metadata on every column and no sample
// value — whose rounds run to a thousand candidates. Ground truths are
// Mondial's library when db has its tables, and are derived from the
// schema's foreign keys otherwise.
func Rounds(t testing.TB, db *mem.Database, perLevel int) []Round {
	t.Helper()
	mappings := DerivedMappings(db.Schema())
	if _, ok := db.Schema().Table("geo_lake"); ok {
		mappings = workload.MondialGroundTruths()
	}
	gen, err := workload.NewGenerator(db, 1, mappings)
	if err != nil {
		t.Fatal(err)
	}
	var out []Round
	add := func(level workload.Level, count int, cfg workload.Config) {
		cases, err := gen.Generate(level, count, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			if related, ok := Related(db, tc.Spec); ok {
				out = append(out, Round{Name: tc.Name, Spec: tc.Spec, Related: related})
			}
		}
	}
	for _, level := range append(workload.Levels(), workload.LevelPaper) {
		add(level, perLevel, workload.Config{SamplesPerCase: 2})
	}
	add(workload.LevelMetadata, 2, workload.Config{SamplesPerCase: 1, LoosenFraction: 1})
	if len(out) == 0 {
		t.Fatal("no rounds generated")
	}
	return out
}

// Related finds, per target column, the source columns a discovery round
// would relate to it (discovery.Engine.RelatedColumns, without an engine).
// ok is false when some target column has none.
func Related(db *mem.Database, spec *constraint.Spec) (related [][]schema.ColumnRef, ok bool) {
	related = make([][]schema.ColumnRef, spec.NumColumns)
	for col := range related {
		for _, st := range db.AllStats() {
			ref := st.Ref
			has := func(kw string) bool { return db.ColumnHasKeyword(ref, kw) }
			if spec.ColumnFeasible(col, st, has) {
				related[col] = append(related[col], ref)
			}
		}
		if len(related[col]) == 0 {
			return related, false
		}
	}
	return related, true
}

// DerivedMappings turns a schema's foreign keys into ground-truth mappings
// for the workload generator: one two-table join per key and one three-table
// chain per pair of keys that share a table, projecting the first two
// columns of every table.
func DerivedMappings(sch *schema.Schema) []workload.GroundTruthMapping {
	project := func(tables ...string) []schema.ColumnRef {
		var out []schema.ColumnRef
		for _, name := range tables {
			t, _ := sch.Table(name)
			for i, c := range t.Columns {
				if i < 2 {
					out = append(out, schema.ColumnRef{Table: t.Name, Column: c.Name})
				}
			}
		}
		return out
	}
	join := func(fk schema.ForeignKey) mem.JoinEdge { return mem.JoinEdge{Left: fk.From, Right: fk.To} }
	var out []workload.GroundTruthMapping
	fks := sch.ForeignKeys()
	for i, a := range fks {
		out = append(out, workload.GroundTruthMapping{
			Name: fmt.Sprintf("fk%d", i),
			Plan: mem.Plan{Tables: []string{a.From.Table, a.To.Table}, Joins: []mem.JoinEdge{join(a)}, Project: project(a.From.Table, a.To.Table)},
		})
		for j := i + 1; j < len(fks); j++ {
			b := fks[j]
			tables := map[string]struct{}{a.From.Table: {}, a.To.Table: {}, b.From.Table: {}, b.To.Table: {}}
			if len(tables) != 3 {
				continue
			}
			var names []string
			for _, t := range []string{a.From.Table, a.To.Table, b.From.Table, b.To.Table} {
				if _, fresh := tables[t]; fresh {
					names = append(names, t)
					delete(tables, t)
				}
			}
			out = append(out, workload.GroundTruthMapping{
				Name: fmt.Sprintf("fk%d-fk%d", i, j),
				Plan: mem.Plan{Tables: names, Joins: []mem.JoinEdge{join(a), join(b)}, Project: project(names...)},
			})
		}
	}
	return out
}
