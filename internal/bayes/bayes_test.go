package bayes

import (
	"math"
	"testing"

	"prism/internal/difftest"
	"prism/internal/lang"
	"prism/internal/mem"
	"prism/internal/schema"
	"prism/internal/value"
)

// trainedModel builds a small Mondial-like database with skewed provinces
// and trains a model on it.
func trainedModel(t testing.TB) (*Model, *mem.Database) {
	t.Helper()
	s := schema.New()
	add := func(tab *schema.Table) {
		if err := s.AddTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	add(schema.MustTable("Lake",
		schema.Column{Name: "Name", Type: value.Text},
		schema.Column{Name: "Area", Type: value.Decimal},
	))
	add(schema.MustTable("geo_lake",
		schema.Column{Name: "Lake", Type: value.Text},
		schema.Column{Name: "Province", Type: value.Text},
	))
	if err := s.AddForeignKey(schema.ForeignKey{
		From: schema.ColumnRef{Table: "geo_lake", Column: "Lake"},
		To:   schema.ColumnRef{Table: "Lake", Column: "Name"},
	}); err != nil {
		t.Fatal(err)
	}
	db := mem.NewDatabase("bayes-test", s)
	lakes := []struct {
		name string
		area float64
	}{
		{"Lake Tahoe", 497}, {"Crater Lake", 53.2}, {"Fort Peck Lake", 981},
		{"Lake Michigan", 58000}, {"Lake A", 10}, {"Lake B", 20}, {"Lake C", 30},
		{"Lake D", 40}, {"Lake E", 50}, {"Lake F", 60},
	}
	for _, l := range lakes {
		if err := db.Insert("Lake", value.Tuple{value.NewText(l.name), value.NewDecimal(l.area)}); err != nil {
			t.Fatal(err)
		}
	}
	// geo_lake: every lake in "California" plus a few elsewhere — skew.
	for _, l := range lakes {
		if err := db.Insert("geo_lake", value.Tuple{value.NewText(l.name), value.NewText("California")}); err != nil {
			t.Fatal(err)
		}
	}
	extra := []string{"Nevada", "Oregon"}
	for i, p := range extra {
		if err := db.Insert("geo_lake", value.Tuple{value.NewText(lakes[i].name), value.NewText(p)}); err != nil {
			t.Fatal(err)
		}
	}
	db.Analyze()
	return Train(db), db
}

func ref(t, c string) schema.ColumnRef { return schema.ColumnRef{Table: t, Column: c} }

func mustParseValue(t testing.TB, input string) lang.ValueExpr {
	t.Helper()
	e, err := lang.ParseValueConstraint(input)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRelationSize(t *testing.T) {
	m, _ := trainedModel(t)
	if rm := m.relation("Lake"); rm == nil || rm.rows != 10 {
		t.Errorf("relation(Lake) = %+v", rm)
	}
	if rm := m.relation("geo_lake"); rm == nil || rm.rows != 12 {
		t.Errorf("relation(geo_lake) = %+v", rm)
	}
	if m.relation("missing") != nil {
		t.Error("unknown relation should have no model")
	}
}

// matching counts the rows of ref's relation the model says satisfy the
// constraint; the estimator reads selectivities off these exact sets.
func matching(t *testing.T, m *Model, ref schema.ColumnRef, expr lang.ValueExpr) int {
	t.Helper()
	n, ok := m.ExactMatchingRows(ref.Table, []ColumnConstraint{{Ref: ref, Expr: expr}})
	if !ok {
		t.Fatalf("the model does not know %s", ref)
	}
	return n
}

func TestEqualitySelectivity(t *testing.T) {
	m, _ := trainedModel(t)
	prov := ref("geo_lake", "Province")
	for word, want := range map[string]int{"California": 10, "Nevada": 1, "Atlantis": 0} {
		if got := matching(t, m, prov, lang.Keyword{Word: word}); got != want {
			t.Errorf("%s matches %d of 12 geo_lake rows, want %d", word, got, want)
		}
	}
	if got := matching(t, m, prov, nil); got != 12 {
		t.Errorf("a nil constraint matches %d rows, want all 12", got)
	}
	if _, ok := m.ExactMatchingRows("nope", []ColumnConstraint{{Ref: ref("nope", "x"), Expr: lang.Keyword{Word: "y"}}}); ok {
		t.Error("an unknown column should not be answered")
	}
}

func TestRangeAndComparisonSelectivity(t *testing.T) {
	m, _ := trainedModel(t)
	area := ref("Lake", "Area")
	for expr, want := range map[string]int{
		">= 0": 10, ">= 1000000": 0, "[0, 100]": 7, "[0, 100000]": 10, "< 100": 7, "> 100": 3,
	} {
		if got := matching(t, m, area, mustParseValue(t, expr)); got != want {
			t.Errorf("Area %s matches %d of 10 lakes, want %d", expr, got, want)
		}
	}
	// Text orders without case: no lake name sorts at or after "M".
	if got := matching(t, m, ref("Lake", "Name"), lang.Compare{Op: lang.OpGe, Const: value.NewText("M")}); got != 0 {
		t.Errorf("Name >= M matches %d lakes, want 0", got)
	}
}

func TestBooleanSelectivity(t *testing.T) {
	m, _ := trainedModel(t)
	prov := ref("geo_lake", "Province")
	for expr, want := range map[string]int{
		"California || Nevada": 11, "California && Nevada": 0, "NOT California": 2, "!= California": 2,
	} {
		if got := matching(t, m, prov, mustParseValue(t, expr)); got != want {
			t.Errorf("Province %s matches %d of 12 rows, want %d", expr, got, want)
		}
	}
}

func TestJoinProbability(t *testing.T) {
	m, db := trainedModel(t)
	fk := db.Schema().ForeignKeys()[0]
	js := m.joinFor(fk)
	// Every geo_lake row matches exactly one lake: matches = 12, pairs = 10*12.
	want := 12.0 / (10.0 * 12.0)
	if js == nil || math.Abs(js.prob-want) > 1e-9 {
		t.Errorf("joinFor(%s) = %+v, want probability %v", fk, js, want)
	}
	if m.joinFor(schema.ForeignKey{From: ref("a", "b"), To: ref("c", "d")}) != nil {
		t.Error("an unknown foreign key should have no join statistics")
	}
}

// TestTrainSamplesJoinDeterministically pins that the join-indicator sample
// of a key with more joined pairs than the sampling budget is a function of
// the data: two models trained on the same database estimate alike.
func TestTrainSamplesJoinDeterministically(t *testing.T) {
	db := difftest.BigJoin(t)
	db.Analyze()
	fk := db.Schema().ForeignKeys()[0]
	tables := []string{"Many", "One"}
	edges := []schema.ForeignKey{fk}
	constraintSets := [][]ColumnConstraint{
		{
			{Ref: ref("Many", "Shade"), Expr: mustParseValue(t, "0")},
			{Ref: ref("One", "Size"), Expr: mustParseValue(t, "0 || 2")},
		},
		{
			{Ref: ref("Many", "Shade"), Expr: mustParseValue(t, "<= 1")},
			{Ref: ref("One", "Size"), Expr: mustParseValue(t, "[1, 2]")},
		},
		{
			{Ref: ref("Many", "Key"), Expr: mustParseValue(t, "south")},
			{Ref: ref("Many", "Shade"), Expr: mustParseValue(t, "!= 3")},
			{Ref: ref("One", "Size"), Expr: mustParseValue(t, "3")},
		},
	}
	first := Train(db)
	if js := first.joinFor(fk); js.totalPairs <= maxJoinPairSample || js.sampled > maxJoinPairSample {
		t.Fatalf("fixture joins %d pairs and samples %d; want more than %d joined, at most that many sampled",
			js.totalPairs, js.sampled, maxJoinPairSample)
	}
	for round := 0; round < 5; round++ {
		again := Train(db)
		for i, cons := range constraintSets {
			if a, b := first.FailureProbability(tables, edges, cons), again.FailureProbability(tables, edges, cons); a != b {
				t.Errorf("constraint set %d: retrained model's failure probability %v, first model's %v", i, b, a)
			}
			// The joins here are large enough that every failure
			// probability underflows to 0; the expected match count is
			// what still carries the sampled pair fraction.
			a, b := first.ExpectedMatches(tables, edges, cons), again.ExpectedMatches(tables, edges, cons)
			if a != b {
				t.Errorf("constraint set %d: retrained model expects %v matches, first model %v", i, b, a)
			}
			if a <= 0 {
				t.Errorf("constraint set %d: expected matches %v do not depend on the sample", i, a)
			}
		}
	}
}

func TestExpectedMatchesAndFailure(t *testing.T) {
	m, db := trainedModel(t)
	fk := db.Schema().ForeignKeys()[0]
	tables := []string{"Lake", "geo_lake"}
	edges := []schema.ForeignKey{fk}

	// Unconstrained join: expected matches = 12 (every geo_lake row joins).
	e := m.ExpectedMatches(tables, edges, nil)
	if math.Abs(e-12) > 1e-9 {
		t.Errorf("ExpectedMatches = %v, want 12", e)
	}
	// Constraint on a frequent value should leave a high expected count and
	// hence a low failure probability; a never-present value the reverse.
	commonCons := []ColumnConstraint{{Ref: ref("geo_lake", "Province"), Expr: lang.Keyword{Word: "California"}}}
	rareCons := []ColumnConstraint{{Ref: ref("geo_lake", "Province"), Expr: lang.Keyword{Word: "Atlantis"}}}
	fCommon := m.FailureProbability(tables, edges, commonCons)
	fRare := m.FailureProbability(tables, edges, rareCons)
	if fCommon >= fRare {
		t.Errorf("common constraint should fail less often: %v vs %v", fCommon, fRare)
	}
	if fCommon < 0 || fCommon > 1 || fRare < 0 || fRare > 1 {
		t.Error("failure probabilities must be in [0,1]")
	}
	// Unknown table: expected matches 0, failure probability 1.
	if m.ExpectedMatches([]string{"nope"}, nil, nil) != 0 {
		t.Error("unknown table should have 0 expected matches")
	}
	if m.FailureProbability([]string{"nope"}, nil, nil) != 1 {
		t.Error("unknown table should surely fail")
	}
}

func TestLongerJoinPathFailsMore(t *testing.T) {
	// With an extra hop whose join probability < 1/|new table| · something,
	// adding a join edge with selective constraints increases failure
	// probability. Construct: same DB, compare one-table vs two-table filter
	// for a rare constraint.
	m, db := trainedModel(t)
	fk := db.Schema().ForeignKeys()[0]
	rare := []ColumnConstraint{{Ref: ref("geo_lake", "Province"), Expr: lang.Keyword{Word: "Oregon"}}}
	oneTable := m.FailureProbability([]string{"geo_lake"}, nil, rare)
	twoTables := m.FailureProbability([]string{"Lake", "geo_lake"}, []schema.ForeignKey{fk}, rare)
	// The join preserves the single Oregon row (join prob 1/10 * 10 lakes),
	// so both are comparable; at minimum both must be valid probabilities
	// and the two-table estimate must not be wildly smaller.
	if oneTable < 0 || oneTable > 1 || twoTables < 0 || twoTables > 1 {
		t.Fatal("invalid probabilities")
	}
	if twoTables < oneTable-1e-9 {
		t.Errorf("joining should not make failure less likely here: %v vs %v", twoTables, oneTable)
	}
}

func TestEmptyRelationModel(t *testing.T) {
	s := schema.New()
	if err := s.AddTable(schema.MustTable("Empty", schema.Column{Name: "X", Type: value.Int})); err != nil {
		t.Fatal(err)
	}
	db := mem.NewDatabase("empty", s)
	db.Analyze()
	m := Train(db)
	if rm := m.relation("Empty"); rm == nil || rm.rows != 0 {
		t.Errorf("relation(Empty) = %+v", rm)
	}
	if m.ExpectedMatches([]string{"Empty"}, nil, nil) != 0 {
		t.Error("expected matches over empty relation should be 0")
	}
}

func TestFailureProbabilityMonotoneInConstraints(t *testing.T) {
	// Adding a constraint can only increase (or keep) the failure
	// probability, because selectivities are <= 1.
	m, db := trainedModel(t)
	fk := db.Schema().ForeignKeys()[0]
	tables := []string{"Lake", "geo_lake"}
	edges := []schema.ForeignKey{fk}
	base := m.FailureProbability(tables, edges, nil)
	withOne := m.FailureProbability(tables, edges, []ColumnConstraint{
		{Ref: ref("geo_lake", "Province"), Expr: lang.Keyword{Word: "Nevada"}},
	})
	withTwo := m.FailureProbability(tables, edges, []ColumnConstraint{
		{Ref: ref("geo_lake", "Province"), Expr: lang.Keyword{Word: "Nevada"}},
		{Ref: ref("Lake", "Area"), Expr: mustParseValue(t, "[400, 600]")},
	})
	if withOne < base-1e-12 || withTwo < withOne-1e-12 {
		t.Errorf("failure probability should be monotone: %v %v %v", base, withOne, withTwo)
	}
}

func BenchmarkTrain(b *testing.B) {
	_, db := trainedModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Train(db)
	}
}

func BenchmarkFailureProbability(b *testing.B) {
	m, db := trainedModel(b)
	fk := db.Schema().ForeignKeys()[0]
	cons := []ColumnConstraint{
		{Ref: ref("geo_lake", "Province"), Expr: mustParseValue(b, "California || Nevada")},
		{Ref: ref("Lake", "Area"), Expr: mustParseValue(b, ">= 100 && <= 600")},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.FailureProbability([]string{"Lake", "geo_lake"}, []schema.ForeignKey{fk}, cons)
	}
}
