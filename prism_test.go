package prism

import (
	"context"
	"strings"
	"testing"
	"time"
)

func mondialEngine(t testing.TB) *Engine {
	t.Helper()
	eng, err := Open("mondial", WithMondialConfig(MondialConfig{
		Seed: 4, Countries: 3, ProvincesPerCountry: 2, CitiesPerProvince: 2,
		Lakes: 20, Rivers: 10, Mountains: 8,
	}))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// totalRows returns the number of rows across db's tables.
func totalRows(db *Database) int {
	n := 0
	for _, t := range db.Schema().Tables() {
		n += db.NumRows(t.Name)
	}
	return n
}

func paperSpec(t testing.TB) *Spec {
	t.Helper()
	spec, err := ParseConstraints(3,
		[][]string{{"California || Nevada", "Lake Tahoe", ""}},
		[]string{"", "", "DataType=='decimal' AND MinValue>='0'"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestOpenBundledDatasets opens every bundled data set at its default
// size and runs its walkthrough constraints. The validation and mapping
// counts are literals: scheduling is deterministic and the mapping set
// does not depend on the backend, so a change to a
// generator, the enumeration or the scheduler shows up here as a number
// to restate. (Mondial is counted at the benchmarks' reduced size.)
func TestOpenBundledDatasets(t *testing.T) {
	walkthroughs := map[string]struct {
		sized                 []OpenOption
		row, metadata         []string
		validations, mappings int
	}{
		"mondial": {[]OpenOption{WithMondialConfig(benchMondialConfig())},
			[]string{"California || Nevada", "Lake Tahoe", ""},
			[]string{"", "", "DataType=='decimal' AND MinValue>='0'"}, 35, 76},
		"imdb": {nil,
			[]string{"Inception", "Leonardo DiCaprio || Tim Robbins", "[8, 10]"},
			[]string{"", "", "DataType=='decimal' AND MinValue>='0' AND MaxValue<='10'"}, 26, 13},
		"nba": {nil,
			[]string{"Los Angeles", "Lakers", "[80, 140]"},
			[]string{"", "", "DataType=='int' AND MinValue>='0'"}, 16, 12},
	}
	for _, name := range DatasetNames() {
		eng, err := Open(name)
		if err != nil {
			t.Errorf("Open(%q): %v", name, err)
			continue
		}
		if totalRows(eng.Database()) == 0 {
			t.Errorf("%s: empty database", name)
		}
		w, ok := walkthroughs[name]
		if !ok {
			t.Errorf("%s: bundled data set without a walkthrough", name)
			continue
		}
		if w.sized != nil {
			if eng, err = Open(name, w.sized...); err != nil {
				t.Fatal(err)
			}
		}
		spec, err := ParseConstraints(3, [][]string{w.row}, w.metadata)
		if err != nil {
			t.Fatal(err)
		}
		report, err := eng.Discover(context.Background(), spec, Options{})
		if err != nil {
			t.Fatalf("%s walkthrough: %v", name, err)
		}
		if report.Validations != w.validations || len(report.Mappings) != w.mappings {
			t.Errorf("%s walkthrough: %d validations, %d mappings, want %d and %d",
				name, report.Validations, len(report.Mappings), w.validations, w.mappings)
		}
	}
	if _, err := Open("nope"); err == nil {
		t.Error("unknown dataset should fail")
	}
}

func TestOpenSizedIMDBAndNBA(t *testing.T) {
	if eng, err := Open("imdb", WithIMDBConfig(IMDBConfig{Movies: 10, People: 10, CastPerMovie: 2, GenresPerMovie: 1})); err != nil || eng.Database().NumRows("Movie") != 10 {
		t.Errorf("Open(imdb): %v", err)
	}
	if eng, err := Open("nba", WithNBAConfig(NBAConfig{Teams: 6, PlayersPerTeam: 3, Games: 10})); err != nil || eng.Database().NumRows("Team") != 6 {
		t.Errorf("Open(nba): %v", err)
	}
}

func TestEndToEndPaperWalkthrough(t *testing.T) {
	eng := mondialEngine(t)
	spec := paperSpec(t)

	related, err := eng.RelatedColumns(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(related) != 3 {
		t.Fatalf("related = %v", related)
	}

	report, err := eng.Discover(context.Background(), spec, Options{IncludeResults: true, ResultLimit: 10, TimeLimit: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Mappings) == 0 {
		t.Fatal("no mappings discovered")
	}
	var lakeMapping *Mapping
	for i := range report.Mappings {
		if strings.Contains(report.Mappings[i].SQL, "geo_lake.Province, Lake.Name, Lake.Area") {
			lakeMapping = &report.Mappings[i]
			break
		}
	}
	if lakeMapping == nil {
		t.Fatalf("paper query not discovered; got %v", sqls(report))
	}
	if lakeMapping.Result == nil || lakeMapping.Result.NumRows() == 0 {
		t.Error("results should be attached")
	}

	// Explanation graph for the selected mapping, with all constraints.
	g := Explain(*lakeMapping, spec, AllConstraints())
	if len(g.NodesOfKind("relation")) != 2 || len(g.NodesOfKind("constraint")) != 3 {
		t.Errorf("explanation graph: %d relations, %d constraints",
			len(g.NodesOfKind("relation")), len(g.NodesOfKind("constraint")))
	}
	if !strings.Contains(g.DOT(), "Lake") || !strings.Contains(g.SVG(), "<svg") {
		t.Error("graph renderings look wrong")
	}

	// SQL round trip through the public API.
	plan, err := ParseSQL(lakeMapping.SQL, eng.Database().Schema())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(eng.Database(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !spec.MatchesResult(res.Rows) {
		t.Error("re-parsed SQL no longer satisfies the constraints")
	}
}

func sqls(r *Report) []string {
	var out []string
	for _, m := range r.Mappings {
		out = append(out, m.SQL)
	}
	return out
}

func TestParseConstraintHelpers(t *testing.T) {
	v, err := ParseValueConstraint(">= 100 && <= 600")
	if err != nil || v == nil {
		t.Fatalf("ParseValueConstraint: %v", err)
	}
	m, err := ParseMetadataConstraint("DataType == 'decimal'")
	if err != nil || m == nil {
		t.Fatalf("ParseMetadataConstraint: %v", err)
	}
	if _, err := ParseValueConstraint(">="); err == nil {
		t.Error("bad value constraint should error")
	}
	if _, err := ParseMetadataConstraint("Bogus == 1"); err == nil {
		t.Error("bad metadata constraint should error")
	}
}

func TestBuildCustomDatabase(t *testing.T) {
	sch := NewSchema()
	lake, err := NewTable("Lake", "Name:text", "Area:decimal")
	if err != nil {
		t.Fatal(err)
	}
	geo, err := NewTable("geo_lake", "Lake:text", "Province:text")
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.AddTable(lake); err != nil {
		t.Fatal(err)
	}
	if err := sch.AddTable(geo); err != nil {
		t.Fatal(err)
	}
	if err := AddForeignKey(sch, "geo_lake.Lake", "Lake.Name"); err != nil {
		t.Fatal(err)
	}
	if err := AddForeignKey(sch, "bad", "Lake.Name"); err == nil {
		t.Error("malformed reference should fail")
	}
	if err := AddForeignKey(sch, "geo_lake.Lake", "alsobad"); err == nil {
		t.Error("malformed reference should fail")
	}

	db := NewDatabase("custom", sch)
	rows := [][]string{{"Lake Tahoe", "497"}, {"Crater Lake", "53.2"}}
	for _, r := range rows {
		if err := db.InsertStrings("Lake", r...); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.InsertStrings("geo_lake", "Lake Tahoe", "California"); err != nil {
		t.Fatal(err)
	}
	db.Analyze()

	eng := NewEngine(db)
	spec, err := ParseConstraints(2, [][]string{{"California", "Lake Tahoe"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	report, err := eng.Discover(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Mappings) == 0 {
		t.Fatal("custom database discovery found nothing")
	}
	if !strings.Contains(report.Mappings[0].SQL, "SELECT") {
		t.Error("mapping should render SQL")
	}
	if SQL(report.Mappings[0].Plan) == "" {
		t.Error("SQL helper should render the plan")
	}
}

func TestNewTableBadDefinitions(t *testing.T) {
	if _, err := NewTable("T", "X:blob"); err == nil {
		t.Error("unknown column type should fail")
	}
	if _, err := NewTable("T", "Xint"); err == nil {
		t.Error("missing colon should fail")
	}
	if _, err := NewTable("T", ":int"); err == nil {
		t.Error("empty column name should fail")
	}
	if _, err := NewTable("T", "X:"); err == nil {
		t.Error("empty type should fail")
	}
}

func TestModelAccessor(t *testing.T) {
	eng := mondialEngine(t)
	if eng.Model() == nil {
		t.Fatal("model should be available")
	}
	if eng.Model().ColumnIndex(ColumnRef{Table: "Lake", Column: "Name"}) == nil {
		t.Error("trained model should hold Lake.Name's dictionary")
	}
}

func BenchmarkPublicDiscover(b *testing.B) {
	eng := mondialEngine(b)
	spec := paperSpec(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Discover(context.Background(), spec, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
