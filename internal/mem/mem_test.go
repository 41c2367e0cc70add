package mem

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"prism/internal/exec"
	"prism/internal/schema"
	"prism/internal/value"
)

// testSchema builds a small Mondial-like schema:
//
//	Lake(Name, Area)
//	geo_lake(Lake, Province)
//	Province(Name, Country, Population)
//	Country(Name, Code)
func testSchema(t testing.TB) *schema.Schema {
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
	add(schema.MustTable("Province",
		schema.Column{Name: "Name", Type: value.Text},
		schema.Column{Name: "Country", Type: value.Text},
		schema.Column{Name: "Population", Type: value.Int},
	))
	add(schema.MustTable("Country",
		schema.Column{Name: "Name", Type: value.Text},
		schema.Column{Name: "Code", Type: value.Text},
	))
	fks := []schema.ForeignKey{
		{From: schema.ColumnRef{Table: "geo_lake", Column: "Lake"}, To: schema.ColumnRef{Table: "Lake", Column: "Name"}},
		{From: schema.ColumnRef{Table: "geo_lake", Column: "Province"}, To: schema.ColumnRef{Table: "Province", Column: "Name"}},
		{From: schema.ColumnRef{Table: "Province", Column: "Country"}, To: schema.ColumnRef{Table: "Country", Column: "Name"}},
	}
	for _, fk := range fks {
		if err := s.AddForeignKey(fk); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// testDB populates the schema with the paper's Table 1 data and analyses
// it.
func testDB(t testing.TB) *Database {
	t.Helper()
	db := loadTestDB(t)
	db.Analyze()
	return db
}

// loadTestDB is testDB before the freeze.
func loadTestDB(t testing.TB) *Database {
	t.Helper()
	db := NewDatabase("mondial-mini", testSchema(t))
	rows := []struct {
		table string
		cells []string
	}{
		{"Lake", []string{"Lake Tahoe", "497"}},
		{"Lake", []string{"Crater Lake", "53.2"}},
		{"Lake", []string{"Fort Peck Lake", "981"}},
		{"Lake", []string{"Lake Michigan", "58000"}},
		{"geo_lake", []string{"Lake Tahoe", "California"}},
		{"geo_lake", []string{"Lake Tahoe", "Nevada"}},
		{"geo_lake", []string{"Crater Lake", "Oregon"}},
		{"geo_lake", []string{"Fort Peck Lake", "Florida"}},
		{"geo_lake", []string{"Lake Michigan", "Michigan"}},
		{"Province", []string{"California", "United States", "39500000"}},
		{"Province", []string{"Nevada", "United States", "3100000"}},
		{"Province", []string{"Oregon", "United States", "4200000"}},
		{"Province", []string{"Florida", "United States", "21500000"}},
		{"Province", []string{"Michigan", "United States", "10000000"}},
		{"Country", []string{"United States", "USA"}},
	}
	for _, r := range rows {
		if err := db.InsertStrings(r.table, r.cells...); err != nil {
			t.Fatalf("insert %v: %v", r, err)
		}
	}
	return db
}

func ref(table, col string) schema.ColumnRef { return schema.ColumnRef{Table: table, Column: col} }

func TestInsertValidation(t *testing.T) {
	db := NewDatabase("t", testSchema(t))
	if err := db.Insert("nope", value.Tuple{}); err == nil {
		t.Error("insert into unknown table should fail")
	}
	if err := db.Insert("Lake", value.Tuple{value.NewText("x")}); err == nil {
		t.Error("wrong arity should fail")
	}
	if err := db.Insert("Lake", value.Tuple{value.NewText("x"), value.NewText("abc")}); err == nil {
		t.Error("non-coercible value should fail")
	}
	if err := db.Insert("Lake", value.Tuple{value.NewText("x"), value.NewInt(5)}); err != nil {
		t.Errorf("int should coerce to decimal: %v", err)
	}
	if err := db.Insert("Lake", value.Tuple{value.NullValue, value.NullValue}); err != nil {
		t.Errorf("nulls should insert: %v", err)
	}
	if err := db.InsertStrings("Lake", "only-one"); err == nil {
		t.Error("InsertStrings arity mismatch should fail")
	}
	if err := db.InsertStrings("Lake", "ok", "not-a-number"); err == nil {
		t.Error("InsertStrings bad decimal should fail")
	}
	if err := db.InsertStrings("missing", "x"); err == nil {
		t.Error("InsertStrings unknown table should fail")
	}
	if db.NumRows("Lake") != 2 {
		t.Errorf("NumRows = %d", db.NumRows("Lake"))
	}
	if db.NumRows("missing") != 0 {
		t.Error("NumRows for unknown table should be 0")
	}
}

func TestBulkInsertAndTotals(t *testing.T) {
	db := NewDatabase("t", testSchema(t))
	tuples := []value.Tuple{
		{value.NewText("A"), value.NewDecimal(1)},
		{value.NewText("B"), value.NewDecimal(2)},
	}
	if err := db.BulkInsert("Lake", tuples); err != nil {
		t.Fatal(err)
	}
	if db.NumRows("Lake") != 2 {
		t.Errorf("NumRows = %d", db.NumRows("Lake"))
	}
	if err := db.BulkInsert("Lake", []value.Tuple{{value.NewText("x")}}); err == nil {
		t.Error("bulk insert with bad tuple should fail")
	}
}

func TestAnalyzeStats(t *testing.T) {
	db := testDB(t)
	st, ok := db.Stats(ref("Lake", "Area"))
	if !ok {
		t.Fatal("stats for Lake.Area missing")
	}
	if st.Type != value.Decimal || st.RowCount != 4 || st.NullCount != 0 {
		t.Errorf("stats: %+v", st)
	}
	if st.Min.Decimal() != 53.2 || st.Max.Decimal() != 58000 {
		t.Errorf("min/max: %v %v", st.Min, st.Max)
	}
	if _, ok := db.Stats(ref("Lake", "Missing")); ok {
		t.Error("stats for unknown column should be absent")
	}
	all := db.AllStats()
	if len(all) != 9 {
		t.Errorf("AllStats len = %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Ref.Less(all[i-1].Ref) {
			t.Error("AllStats not sorted")
		}
	}
}

// TestAllStatsIsBuiltOnce: a frozen database answers AllStats with the one
// slice Analyze sorted, allocating nothing, in the order a fresh sort of
// every column's statistics by ColumnRef.Less gives; before the freeze it
// has none.
func TestAllStatsIsBuiltOnce(t *testing.T) {
	db := loadTestDB(t)
	if got := db.AllStats(); len(got) != 0 {
		t.Errorf("unanalysed database: AllStats = %v, want none", got)
	}
	db.Analyze()
	var want []schema.Stats
	for _, tab := range db.Schema().Tables() {
		for _, c := range tab.Columns {
			st, ok := db.Stats(schema.ColumnRef{Table: tab.Name, Column: c.Name})
			if !ok {
				t.Fatalf("no statistics for %s.%s", tab.Name, c.Name)
			}
			want = append(want, st)
		}
	}
	slices.SortFunc(want, func(a, b schema.Stats) int {
		if a.Ref.Less(b.Ref) {
			return -1
		}
		if b.Ref.Less(a.Ref) {
			return 1
		}
		return 0
	})
	if got := db.AllStats(); !reflect.DeepEqual(got, want) {
		t.Errorf("AllStats = %v\nwant %v", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = db.AllStats() }); allocs != 0 {
		t.Errorf("AllStats allocates %.1f times per call on a frozen database, want 0", allocs)
	}
}

// TestAnalyzeIsIdempotent: analysing a frozen database again changes
// nothing — the same dictionaries, statistics and data version.
func TestAnalyzeIsIdempotent(t *testing.T) {
	db := testDB(t)
	if !db.frozen.Load() {
		t.Fatal("expected analyzed")
	}
	x, err := db.ColumnIndex(ref("Country", "Name"))
	if err != nil {
		t.Fatal(err)
	}
	stats, version := db.AllStats(), db.Version()
	db.Analyze()
	if again, _ := db.ColumnIndex(ref("Country", "Name")); again != x {
		t.Error("a second Analyze rebuilt the dictionaries")
	}
	if !reflect.DeepEqual(db.AllStats(), stats) || db.Version() != version {
		t.Error("a second Analyze changed the statistics or the data version")
	}
	if st, _ := db.Stats(ref("Country", "Name")); st.RowCount != 1 {
		t.Errorf("stats: %+v", st)
	}
}

// TestFrozenDatabaseRefusesWrites: once analysed, every write entry point
// answers ErrFrozen and changes nothing — not the data version, the row
// counts, the dictionaries (the same pointers) or the statistics.
func TestFrozenDatabaseRefusesWrites(t *testing.T) {
	db := testDB(t)
	indexes := make(map[schema.ColumnRef]*exec.ColumnIndex)
	for _, st := range db.AllStats() {
		x, err := db.ColumnIndex(st.Ref)
		if err != nil {
			t.Fatal(err)
		}
		indexes[st.Ref] = x
	}
	version, lakes, stats := db.Version(), db.NumRows("Lake"), db.AllStats()
	nowhere := value.Tuple{value.NewText("Lake Nowhere"), value.NewDecimal(1)}
	for _, w := range []struct {
		name  string
		write func() error
	}{
		{"Insert", func() error { return db.Insert("Lake", nowhere) }},
		{"InsertStrings", func() error { return db.InsertStrings("Lake", "Lake Nowhere", "1") }},
		{"BulkInsert", func() error { return db.BulkInsert("Lake", []value.Tuple{nowhere}) }},
	} {
		if err := w.write(); !errors.Is(err, ErrFrozen) {
			t.Errorf("%s on a frozen database: err = %v, want ErrFrozen", w.name, err)
		}
		if db.Version() != version || db.NumRows("Lake") != lakes {
			t.Errorf("%s changed the version or the row counts", w.name)
		}
		for r, x := range indexes {
			if got, _ := db.ColumnIndex(r); got != x {
				t.Errorf("%s replaced the dictionary of %s", w.name, r)
			}
		}
		if !reflect.DeepEqual(db.AllStats(), stats) {
			t.Errorf("%s changed the statistics", w.name)
		}
		if db.ColumnHasKeyword(ref("Lake", "Name"), "Lake Nowhere") {
			t.Errorf("%s reached the dictionaries", w.name)
		}
	}
}

func TestColumnKeywordSets(t *testing.T) {
	db := testDB(t)
	if !db.ColumnHasKeyword(ref("Lake", "Name"), "lake tahoe") || !db.ColumnHasKeyword(ref("geo_lake", "Lake"), " Lake Tahoe ") {
		t.Error("both columns holding Lake Tahoe should report it")
	}
	if !db.ColumnHasKeyword(ref("geo_lake", "Province"), "california") {
		t.Error("ColumnHasKeyword should be case-insensitive")
	}
	if db.ColumnHasKeyword(ref("Lake", "Name"), "california") {
		t.Error("California is not a lake name")
	}
	if db.ColumnHasKeyword(ref("No", "Col"), "x") {
		t.Error("unknown column should not match")
	}
	if db.ColumnHasKeyword(ref("geo_lake", "Lake"), "zzz") {
		t.Error("unknown keyword should not match")
	}
	// Numbers are indexed by their rendering.
	if !db.ColumnHasKeyword(ref("Lake", "Area"), "497") {
		t.Error("numeric keyword lookup failed")
	}
}

func TestUnanalyzedLookups(t *testing.T) {
	db := NewDatabase("t", testSchema(t))
	if db.ColumnHasKeyword(ref("Lake", "Name"), "x") {
		t.Error("ColumnHasKeyword before Analyze should be false")
	}
	if _, ok := db.Stats(ref("Lake", "Name")); ok {
		t.Error("Stats before Analyze should be absent")
	}
	if db.frozen.Load() {
		t.Error("Analyzed before Analyze should be false")
	}
	if _, err := db.ColumnIndex(ref("Lake", "Name")); err == nil {
		t.Error("ColumnIndex before Analyze should fail")
	}
}

func TestColumnValues(t *testing.T) {
	db := testDB(t)
	vals, err := db.ColumnValues(ref("Lake", "Name"))
	if err != nil || len(vals) != 4 {
		t.Fatalf("ColumnValues: %v %v", vals, err)
	}
	if vals[0].Text() != "Lake Tahoe" {
		t.Errorf("first lake = %v", vals[0])
	}
	if _, err := db.ColumnValues(ref("nope", "x")); err == nil {
		t.Error("unknown table should fail")
	}
	if _, err := db.ColumnValues(ref("Lake", "nope")); err == nil {
		t.Error("unknown column should fail")
	}
}

func lakePlan() exec.Plan {
	return exec.Plan{
		Tables: []string{"Lake", "geo_lake"},
		Joins: []exec.JoinEdge{
			{Left: ref("Lake", "Name"), Right: ref("geo_lake", "Lake")},
		},
		Project: []schema.ColumnRef{
			ref("geo_lake", "Province"),
			ref("Lake", "Name"),
			ref("Lake", "Area"),
		},
	}
}

func TestPlanValidate(t *testing.T) {
	db := testDB(t)
	sch := db.Schema()
	if err := (exec.Plan{}).Validate(sch); err == nil {
		t.Error("empty plan should be invalid")
	}
	if err := (exec.Plan{Tables: []string{"nope"}}).Validate(sch); err == nil {
		t.Error("unknown table should be invalid")
	}
	if err := (exec.Plan{Tables: []string{"Lake", "lake"}}).Validate(sch); err == nil {
		t.Error("duplicate table should be invalid")
	}
	p := lakePlan()
	if err := p.Validate(sch); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	bad := lakePlan()
	bad.Joins = nil
	if err := bad.Validate(sch); err == nil {
		t.Error("disconnected plan should be invalid")
	}
	bad = lakePlan()
	bad.Joins[0].Left = ref("Province", "Name")
	if err := bad.Validate(sch); err == nil {
		t.Error("join referencing table outside plan should be invalid")
	}
	bad = lakePlan()
	bad.Project = append(bad.Project, ref("Country", "Name"))
	if err := bad.Validate(sch); err == nil {
		t.Error("projection outside plan should be invalid")
	}
	bad = lakePlan()
	bad.Project[0] = ref("geo_lake", "missing")
	if err := bad.Validate(sch); err == nil {
		t.Error("unknown projection column should be invalid")
	}
	bad = lakePlan()
	bad.Joins[0].Right = ref("geo_lake", "missing")
	if err := bad.Validate(sch); err == nil {
		t.Error("unknown join column should be invalid")
	}
	if got := p.String(); !strings.Contains(got, "Lake.Name = geo_lake.Lake") || !strings.Contains(got, "geo_lake.Province") {
		t.Errorf("Plan.String = %q", got)
	}
}

func TestExecuteLakeJoin(t *testing.T) {
	db := testDB(t)
	res, err := db.Execute(lakePlan())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 5 {
		t.Fatalf("expected 5 join rows, got %d:\n%s", res.NumRows(), res)
	}
	want := value.Tuple{value.NewText("California"), value.NewText("Lake Tahoe"), value.NewDecimal(497)}
	if !res.Contains(want) {
		t.Errorf("result missing %v:\n%s", want, res)
	}
	if res.Stats.JoinsExecuted != 1 || res.Stats.RowsScanned != 9 {
		t.Errorf("stats: %+v", res.Stats)
	}
	if !strings.Contains(res.String(), "Lake Tahoe") {
		t.Error("Result.String should include data")
	}
	if res.Contains(value.Tuple{value.NewText("Texas"), value.NewText("Lake Tahoe"), value.NewDecimal(497)}) {
		t.Error("Contains should reject absent tuple")
	}
}

func TestExecuteThreeWayJoin(t *testing.T) {
	db := testDB(t)
	p := exec.Plan{
		Tables: []string{"Lake", "geo_lake", "Province", "Country"},
		Joins: []exec.JoinEdge{
			{Left: ref("Lake", "Name"), Right: ref("geo_lake", "Lake")},
			{Left: ref("geo_lake", "Province"), Right: ref("Province", "Name")},
			{Left: ref("Province", "Country"), Right: ref("Country", "Name")},
		},
		Project: []schema.ColumnRef{ref("Country", "Code"), ref("Lake", "Name"), ref("Province", "Name")},
	}
	res, err := db.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 5 {
		t.Fatalf("rows = %d\n%s", res.NumRows(), res)
	}
	if !res.Contains(value.Tuple{value.NewText("USA"), value.NewText("Crater Lake"), value.NewText("Oregon")}) {
		t.Errorf("missing expected row:\n%s", res)
	}
	if res.Stats.JoinsExecuted != 3 {
		t.Errorf("JoinsExecuted = %d", res.Stats.JoinsExecuted)
	}
}

func TestExecuteSingleTable(t *testing.T) {
	db := testDB(t)
	p := exec.Plan{
		Tables:  []string{"Lake"},
		Project: []schema.ColumnRef{ref("Lake", "Name")},
	}
	res, err := db.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 4 {
		t.Errorf("rows = %d", res.NumRows())
	}
}

func TestExecuteDistinct(t *testing.T) {
	db := testDB(t)
	p := exec.Plan{
		Tables: []string{"Lake", "geo_lake"},
		Joins: []exec.JoinEdge{
			{Left: ref("Lake", "Name"), Right: ref("geo_lake", "Lake")},
		},
		Project:  []schema.ColumnRef{ref("Lake", "Name")},
		Distinct: true,
	}
	res, err := db.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 4 { // Tahoe appears twice in geo_lake but distinct
		t.Errorf("distinct rows = %d\n%s", res.NumRows(), res)
	}
	p.Distinct = false
	res, _ = db.Execute(p)
	if res.NumRows() != 5 {
		t.Errorf("non-distinct rows = %d", res.NumRows())
	}
}

func TestExecutePushdownAndPredicates(t *testing.T) {
	db := testDB(t)
	opts := exec.ExecOptions{
		ColumnPredicates: []exec.ColumnPredicate{
			{Ref: ref("geo_lake", "Province"), Pred: func(v value.Value) bool {
				return v.MatchesKeyword("California") || v.MatchesKeyword("Nevada")
			}},
		},
	}
	res, err := db.ExecuteWith(lakePlan(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d\n%s", res.NumRows(), res)
	}
	if res.Stats.PredicateFiltered != 3 {
		t.Errorf("PredicateFiltered = %d", res.Stats.PredicateFiltered)
	}

	opts.TuplePredicate = func(tp value.Tuple) bool { return tp[0].MatchesKeyword("Nevada") }
	res, err = db.ExecuteWith(lakePlan(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 {
		t.Errorf("tuple predicate rows = %d", res.NumRows())
	}
	badOpts := exec.ExecOptions{ColumnPredicates: []exec.ColumnPredicate{{Ref: ref("geo_lake", "Nope"), Pred: func(value.Value) bool { return true }}}}
	if _, err := db.ExecuteWith(lakePlan(), badOpts); err == nil {
		t.Error("predicate on unknown column should fail")
	}
}

func TestExecuteLimitAndExists(t *testing.T) {
	db := testDB(t)
	res, err := db.ExecuteWith(lakePlan(), exec.ExecOptions{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 || !res.Stats.TerminatedEarly {
		t.Errorf("limit execution: rows=%d stats=%+v", res.NumRows(), res.Stats)
	}
	ok, st, err := db.Exists(lakePlan(), exec.ExecOptions{})
	if err != nil || !ok {
		t.Fatalf("Exists: %v %v", ok, err)
	}
	if st.ResultRows != 1 {
		t.Errorf("Exists should stop at first row, stats=%+v", st)
	}
	// Exists with impossible predicate.
	ok, _, err = db.Exists(lakePlan(), exec.ExecOptions{TuplePredicate: func(value.Tuple) bool { return false }})
	if err != nil || ok {
		t.Errorf("Exists impossible: %v %v", ok, err)
	}
	// Exists on invalid plan returns an error.
	if _, _, err := db.Exists(exec.Plan{}, exec.ExecOptions{}); err == nil {
		t.Error("Exists on invalid plan should fail")
	}
}

func TestExecuteMaxIntermediate(t *testing.T) {
	db := testDB(t)
	_, err := db.ExecuteWith(lakePlan(), exec.ExecOptions{MaxIntermediate: 2})
	if err == nil {
		t.Error("expected abort when intermediate exceeds cap")
	}
}

func TestExecuteNullJoinKeys(t *testing.T) {
	db := loadTestDB(t)
	if err := db.Insert("geo_lake", value.Tuple{value.NullValue, value.NewText("Nowhere")}); err != nil {
		t.Fatal(err)
	}
	db.Analyze()
	res, err := db.Execute(lakePlan())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 5 {
		t.Errorf("NULL join keys must not match: rows = %d", res.NumRows())
	}
}

func TestExecStatsAdd(t *testing.T) {
	a := exec.ExecStats{RowsScanned: 1, IntermediateRows: 2, JoinsExecuted: 3, ResultRows: 4, PredicateFiltered: 5}
	b := exec.ExecStats{RowsScanned: 10, TerminatedEarly: true, AbortedTooLarge: true}
	a.Add(b)
	if a.RowsScanned != 11 || !a.TerminatedEarly || !a.AbortedTooLarge || a.ResultRows != 4 {
		t.Errorf("Add: %+v", a)
	}
}

func TestJoinEdgeString(t *testing.T) {
	e := exec.JoinEdge{Left: ref("Lake", "Name"), Right: ref("geo_lake", "Lake")}
	if e.String() != "Lake.Name = geo_lake.Lake" {
		t.Errorf("JoinEdge.String = %q", e.String())
	}
}

// Property: for the two-table lake join, the result size equals the number
// of geo_lake rows whose Lake value exists in Lake.Name, whatever rows we
// generate.
func TestJoinCardinalityProperty(t *testing.T) {
	f := func(lakeIDs []uint8, geoIDs []uint8) bool {
		if len(lakeIDs) > 40 {
			lakeIDs = lakeIDs[:40]
		}
		if len(geoIDs) > 40 {
			geoIDs = geoIDs[:40]
		}
		db := NewDatabase("prop", testSchema(t))
		lakeSet := make(map[string]bool)
		for _, id := range lakeIDs {
			name := lakeName(id)
			if lakeSet[name] {
				continue // keep Lake.Name unique so expected count is simple
			}
			lakeSet[name] = true
			if err := db.Insert("Lake", value.Tuple{value.NewText(name), value.NewDecimal(float64(id))}); err != nil {
				return false
			}
		}
		expected := 0
		for _, id := range geoIDs {
			name := lakeName(id)
			if err := db.Insert("geo_lake", value.Tuple{value.NewText(name), value.NewText("P")}); err != nil {
				return false
			}
			if lakeSet[name] {
				expected++
			}
		}
		db.Analyze()
		res, err := db.Execute(lakePlan())
		if err != nil {
			return false
		}
		return res.NumRows() == expected
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func lakeName(id uint8) string {
	return "lake-" + string(rune('a'+id%26)) + "-" + string(rune('0'+id%10))
}

func BenchmarkAnalyze(b *testing.B) {
	src := testDB(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := NewDatabase(src.Name, src.Schema())
		for _, t := range src.Schema().Tables() {
			rows, err := src.SampleRows(t.Name, 0)
			if err != nil {
				b.Fatal(err)
			}
			if err := db.BulkInsert(t.Name, rows); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		db.Analyze()
	}
}

func BenchmarkExecuteLakeJoin(b *testing.B) {
	db := testDB(b)
	p := lakePlan()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := db.Execute(p); err != nil {
			b.Fatal(err)
		}
	}
}
