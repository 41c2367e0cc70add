package discovery

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"prism/internal/constraint"
	"prism/internal/dataset"
	"prism/internal/difftest"
	"prism/internal/filter"
	"prism/internal/graphx"
	"prism/internal/schema"
	"prism/internal/sqlgen"
	"prism/internal/workload"
)

// lowResRound returns an engine over the 10.7k-row Mondial of the
// low-resolution recipe and the widest of five of its metadata-only
// specifications (metadata on every column, no sample value): a round of
// about a thousand candidates over a few dozen join trees.
func lowResRound(t testing.TB) (*Engine, *constraint.Spec) {
	t.Helper()
	db, err := dataset.Mondial(difftest.LowresMondialConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db)
	gen, err := workload.NewGenerator(db, 1, workload.MondialGroundTruths())
	if err != nil {
		t.Fatal(err)
	}
	cases, err := gen.Generate(workload.LevelMetadata, 5, workload.Config{SamplesPerCase: 1, LoosenFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	var (
		widest *constraint.Spec
		most   int
	)
	for _, tc := range cases {
		report, err := e.Discover(context.Background(), tc.Spec, Options{})
		if err == nil && report.CandidatesEnumerated > most {
			widest, most = tc.Spec, report.CandidatesEnumerated
		}
	}
	if most < 500 {
		t.Fatalf("widest low-resolution round has %d candidates", most)
	}
	return e, widest
}

// TestMappingsMatchReference runs the rounds of the difftest pools and a
// low-resolution round, and requires every mapping to be what rendering its
// candidate on its own gives — its Plan the candidate's plan with DISTINCT,
// its SQL sqlgen.Generate of that plan — although assembly renders a join
// tree's FROM and WHERE once per round, and the mappings to stay sorted
// simplest first, by tree size and then candidate signature.
func TestMappingsMatchReference(t *testing.T) {
	type pool struct {
		name  string
		e     *Engine
		specs []*constraint.Spec
	}
	var pools []pool
	for name, db := range difftest.Databases(t) {
		p := pool{name: name, e: NewEngine(db)}
		for _, round := range difftest.Rounds(t, db, 2) {
			p.specs = append(p.specs, round.Spec)
		}
		pools = append(pools, p)
	}
	e, spec := lowResRound(t)
	pools = append(pools, pool{name: "lowres", e: e, specs: []*constraint.Spec{spec}})

	mappings, shared := 0, 0
	for _, p := range pools {
		for si, spec := range p.specs {
			report, err := p.e.Discover(context.Background(), spec, Options{})
			if err != nil {
				t.Fatalf("%s round %d: %v", p.name, si, err)
			}
			for i, m := range report.Mappings {
				want := m.Candidate.Plan()
				want.Distinct = true
				if !reflect.DeepEqual(m.Plan, want) {
					t.Fatalf("%s round %d mapping %d: plan %v, candidate's %v", p.name, si, i, m.Plan, want)
				}
				if sql := sqlgen.Generate(want); m.SQL != sql {
					t.Fatalf("%s round %d mapping %d: SQL %q, candidate's %q", p.name, si, i, m.SQL, sql)
				}
				if i > 0 {
					prev := report.Mappings[i-1].Candidate
					if c := prev.Tree.Size() - m.Candidate.Tree.Size(); c > 0 || c == 0 && prev.Canonical() >= m.Candidate.Canonical() {
						t.Fatalf("%s round %d: mapping %d (%s) sorts after mapping %d (%s)", p.name, si, i-1, prev, i, m.Candidate)
					}
					if prevJoins := report.Mappings[i-1].Plan.Joins; len(m.Plan.Joins) > 0 && len(prevJoins) > 0 && &m.Plan.Joins[0] == &prevJoins[0] {
						shared++
					}
				}
			}
			mappings += len(report.Mappings)
		}
	}
	if mappings < 1000 || shared == 0 {
		t.Fatalf("%d mappings compared, %d sharing their predecessor's joins", mappings, shared)
	}
	t.Logf("%d mappings compared, %d sharing their predecessor's joins", mappings, shared)
}

// TestJoinTextFollowsTheCandidate assembles candidates that one tree id
// covers in two table orders: each mapping renders its own candidate's
// order, and the two that share a tree as enumerated share its joins.
func TestJoinTextFollowsTheCandidate(t *testing.T) {
	lakeName := schema.ColumnRef{Table: "Lake", Column: "Name"}
	geoLake := schema.ColumnRef{Table: "geo_lake", Column: "Lake"}
	province := schema.ColumnRef{Table: "geo_lake", Column: "Province"}
	edges := []schema.ForeignKey{{From: geoLake, To: lakeName}}
	tree := graphx.Tree{Tables: []string{"Lake", "geo_lake"}, Edges: edges}
	reversed := graphx.Tree{Tables: []string{"geo_lake", "Lake"}, Edges: edges}
	candidates := []graphx.Candidate{
		{Tree: tree, Projection: []schema.ColumnRef{lakeName, province}},
		{Tree: reversed, Projection: []schema.ColumnRef{lakeName, province}},
		{Tree: tree, Projection: []schema.ColumnRef{province, lakeName}},
	}
	set, err := filter.DecomposeFor(context.Background(), &constraint.Spec{NumColumns: 2}, candidates)
	if err != nil {
		t.Fatal(err)
	}
	if set.TreeID(0) != set.TreeID(1) || set.TreeID(0) != set.TreeID(2) {
		t.Fatalf("tree ids %d, %d, %d: one tree, three ids", set.TreeID(0), set.TreeID(1), set.TreeID(2))
	}
	r := &round{ctx: context.Background(), set: set, joins: make(map[int32]*joinText)}
	var got []Mapping
	for ci, cand := range candidates {
		m, _ := r.mapping(ci)
		want := cand.Plan()
		want.Distinct = true
		if sql := sqlgen.Generate(want); m.SQL != sql || !reflect.DeepEqual(m.Plan, want) {
			t.Errorf("candidate %d: %q over %v, want %q", ci, m.SQL, m.Plan, sql)
		}
		got = append(got, m)
	}
	if !strings.Contains(got[1].SQL, "FROM geo_lake, Lake") {
		t.Errorf("the reversed tree renders %q", got[1].SQL)
	}
	if &got[0].Plan.Joins[0] != &got[2].Plan.Joins[0] {
		t.Error("two candidates over one enumerated tree do not share its joins")
	}
}

// TestSortByTreeRank sorts planted candidates whose tree texts defeat a
// rank by the text alone: a tree whose text is another's followed by a byte
// below '#' (a column named y!), which sorts first although the text is
// longer, and trees whose text holds '#' (a table named a#0), where no rank
// agrees with the Canonical order. Each must sort as (size, Canonical).
func TestSortByTreeRank(t *testing.T) {
	col := func(table, column string) schema.ColumnRef { return schema.ColumnRef{Table: table, Column: column} }
	tree := func(edges ...schema.ForeignKey) graphx.Tree {
		tr := graphx.Tree{Edges: edges}
		for _, e := range edges {
			for _, name := range []string{e.From.Table, e.To.Table} {
				if !slices.Contains(tr.Tables, name) {
					tr.Tables = append(tr.Tables, name)
				}
			}
		}
		return tr
	}
	short := tree(schema.ForeignKey{From: col("a", "x"), To: col("b", "y")})
	bang := tree(schema.ForeignKey{From: col("a", "x"), To: col("b", "y!")})
	chain := tree(schema.ForeignKey{From: col("a", "x"), To: col("b", "y")}, schema.ForeignKey{From: col("b", "y"), To: col("c", "z")})
	lone := func(table string) graphx.Tree { return graphx.Tree{Tables: []string{table}} }
	for _, c := range []struct {
		name       string
		candidates []graphx.Candidate
		ranked     bool
	}{{
		name: "prefix", ranked: true,
		candidates: []graphx.Candidate{
			{Tree: short, Projection: []schema.ColumnRef{col("a", "x")}},
			{Tree: chain, Projection: []schema.ColumnRef{col("a", "x")}},
			{Tree: bang, Projection: []schema.ColumnRef{col("b", "y!")}},
			{Tree: short, Projection: []schema.ColumnRef{col("b", "y")}},
			{Tree: lone("b"), Projection: []schema.ColumnRef{col("b", "y")}},
			{Tree: bang, Projection: []schema.ColumnRef{col("a", "x")}},
		},
	}, {
		name: "hash in a table name",
		candidates: []graphx.Candidate{
			{Tree: lone("a"), Projection: []schema.ColumnRef{col("a", "z")}},
			{Tree: lone("a#0"), Projection: []schema.ColumnRef{col("a#0", "w")}},
			{Tree: lone("a"), Projection: []schema.ColumnRef{col("a", "b")}},
			{Tree: short, Projection: []schema.ColumnRef{col("a", "x")}},
		},
	}} {
		set, err := filter.DecomposeFor(context.Background(), &constraint.Spec{NumColumns: 1}, c.candidates)
		if err != nil {
			t.Fatal(err)
		}
		all := make([]int, len(c.candidates))
		for i := range all {
			all[i] = len(all) - 1 - i
		}
		if ranked := treeRanks(set, all) != nil; ranked != c.ranked {
			t.Errorf("%s: ranked = %v, want %v", c.name, ranked, c.ranked)
		}
		want := slices.Clone(all)
		slices.SortFunc(want, func(i, j int) int {
			a, b := c.candidates[i], c.candidates[j]
			if d := a.Tree.Size() - b.Tree.Size(); d != 0 {
				return d
			}
			return strings.Compare(a.Canonical(), b.Canonical())
		})
		sortSimplestFirst(set, all)
		if !slices.Equal(all, want) {
			t.Errorf("%s: sorted %v, want %v", c.name, all, want)
		}
	}
}

// BenchmarkRoundLowRes runs the widest low-resolution round through
// Engine.Discover: enumeration, decomposition, the schedule and assembly of
// every mapping's SQL.
func BenchmarkRoundLowRes(b *testing.B) {
	e, spec := lowResRound(b)
	ctx := context.Background()
	b.ReportAllocs()
	var report *Report
	for b.Loop() {
		var err error
		if report, err = e.Discover(ctx, spec, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(report.CandidatesEnumerated), "candidates")
	b.ReportMetric(float64(len(report.Mappings)), "mappings")
}
