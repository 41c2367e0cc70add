package sqlgen

import (
	"strings"
	"testing"

	"prism/internal/exec"
	"prism/internal/mem"
	"prism/internal/schema"
	"prism/internal/value"
)

func ref(t, c string) schema.ColumnRef { return schema.ColumnRef{Table: t, Column: c} }

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

func testSchema(t testing.TB) *schema.Schema {
	t.Helper()
	s := schema.New()
	if err := s.AddTable(schema.MustTable("Lake",
		schema.Column{Name: "Name", Type: value.Text},
		schema.Column{Name: "Area", Type: value.Decimal},
	)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTable(schema.MustTable("geo_lake",
		schema.Column{Name: "Lake", Type: value.Text},
		schema.Column{Name: "Province", Type: value.Text},
	)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddForeignKey(schema.ForeignKey{
		From: ref("geo_lake", "Lake"), To: ref("Lake", "Name"),
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGeneratePaperQuery(t *testing.T) {
	got := Generate(lakePlan())
	want := "SELECT geo_lake.Province, Lake.Name, Lake.Area FROM Lake, geo_lake WHERE Lake.Name = geo_lake.Lake"
	if got != want {
		t.Errorf("Generate =\n%s\nwant\n%s", got, want)
	}
}

func TestGenerateDistinctAndSingleTable(t *testing.T) {
	p := exec.Plan{
		Tables:   []string{"Lake"},
		Project:  []schema.ColumnRef{ref("Lake", "Name")},
		Distinct: true,
	}
	got := Generate(p)
	if got != "SELECT DISTINCT Lake.Name FROM Lake" {
		t.Errorf("Generate = %q", got)
	}
	if strings.Contains(got, "WHERE") {
		t.Error("no WHERE clause expected")
	}
}

func TestGenerateQuoting(t *testing.T) {
	p := exec.Plan{
		Tables:  []string{"geo lake"},
		Project: []schema.ColumnRef{{Table: "geo lake", Column: "Pro\"vince"}},
	}
	got := Generate(p)
	if !strings.Contains(got, `"geo lake"."Pro""vince"`) {
		t.Errorf("identifiers should be quoted: %q", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	sch := testSchema(t)
	sql := Generate(lakePlan())
	plan, err := Parse(sql, sch)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Tables) != 2 || len(plan.Joins) != 1 || len(plan.Project) != 3 {
		t.Fatalf("parsed plan = %+v", plan)
	}
	if plan.Project[0].String() != "geo_lake.Province" {
		t.Errorf("projection order must be preserved: %v", plan.Project)
	}
	if Generate(plan) != sql {
		t.Errorf("round trip changed SQL:\n%s\n%s", Generate(plan), sql)
	}
}

func TestParseWithoutSchemaValidation(t *testing.T) {
	plan, err := Parse("SELECT a.x FROM a", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Tables) != 1 || plan.Tables[0] != "a" {
		t.Errorf("plan = %+v", plan)
	}
	// Same statement fails schema validation against the lake schema.
	if _, err := Parse("SELECT a.x FROM a", testSchema(t)); err == nil {
		t.Error("validation against schema should fail for unknown table")
	}
}

func TestParseVariants(t *testing.T) {
	sch := testSchema(t)
	cases := []string{
		"select geo_lake.Province, Lake.Name from Lake, geo_lake where Lake.Name = geo_lake.Lake",
		"SELECT DISTINCT Lake.Name FROM Lake;",
		"SELECT Lake.Name, Lake.Area FROM Lake",
		"SELECT geo_lake.Province, Lake.Name, Lake.Area FROM Lake, geo_lake WHERE Lake.Name = geo_lake.Lake AND geo_lake.Lake = Lake.Name",
	}
	for _, sql := range cases {
		if _, err := Parse(sql, sch); err != nil {
			t.Errorf("Parse(%q): %v", sql, err)
		}
	}
}

func TestParseQuotedIdentifiers(t *testing.T) {
	s := schema.New()
	if err := s.AddTable(schema.MustTable("geo lake", schema.Column{Name: "Pro vince", Type: value.Text})); err != nil {
		t.Fatal(err)
	}
	p := exec.Plan{Tables: []string{"geo lake"}, Project: []schema.ColumnRef{{Table: "geo lake", Column: "Pro vince"}}}
	sql := Generate(p)
	back, err := Parse(sql, s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	if back.Project[0].Table != "geo lake" || back.Project[0].Column != "Pro vince" {
		t.Errorf("quoted round trip = %+v", back.Project)
	}
}

func TestParseErrors(t *testing.T) {
	sch := testSchema(t)
	bad := []string{
		"",
		"UPDATE Lake SET x = 1",
		"SELECT FROM Lake",
		"SELECT Lake.Name",
		"SELECT Lake.Name FROM",
		"SELECT Name FROM Lake",            // unqualified column
		"SELECT Lake.Name FROM Lake WHERE", // dangling where
		"SELECT Lake.Name FROM Lake WHERE Lake.Name",                     // incomplete condition
		"SELECT Lake.Name FROM Lake WHERE Lake.Name = 5andmore trailing", // trailing garbage
		"SELECT Lake.Name FROM Lake WHERE Lake.Name > geo_lake.Lake",     // non-equi join
		"SELECT Lake.Name FROM Lake extra",
		"SELECT \"Lake.Name FROM Lake",                                   // unterminated quote
		"SELECT Lake.Name FROM Lake WHERE Lake.Name = geo_lake.Lake AND", // dangling AND
		"SELECT Lake.Name FROM Lake, WHERE Lake.Name = geo_lake.Lake",    // missing table
	}
	for _, sql := range bad {
		if _, err := Parse(sql, sch); err == nil {
			t.Errorf("Parse(%q) expected error", sql)
		}
	}
}

func TestParseRejectsUnsupportedCharacters(t *testing.T) {
	if _, err := Parse("SELECT Lake.Name FROM Lake WHERE Lake.Area = 497", nil); err == nil {
		t.Error("literal predicates are outside the PJ subset and should be rejected")
	}
	if _, err := Parse("SELECT * FROM Lake", nil); err == nil {
		t.Error("star projection should be rejected")
	}
}

func TestNormalize(t *testing.T) {
	sch := testSchema(t)
	a := "SELECT geo_lake.Province, Lake.Name FROM geo_lake, Lake WHERE geo_lake.Lake = Lake.Name"
	b := "SELECT geo_lake.Province, Lake.Name FROM Lake, geo_lake WHERE Lake.Name = geo_lake.Lake"
	na, err := Normalize(a, sch)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := Normalize(b, sch)
	if err != nil {
		t.Fatal(err)
	}
	if na != nb {
		t.Errorf("normalized forms differ:\n%s\n%s", na, nb)
	}
	if _, err := Normalize("not sql", sch); err == nil {
		t.Error("Normalize should propagate parse errors")
	}
}

func TestExecuteParsedPlan(t *testing.T) {
	// Generated SQL, parsed back, must execute and produce the paper's rows.
	sch := testSchema(t)
	db := mem.NewDatabase("roundtrip", sch)
	rows := [][]string{
		{"Lake Tahoe", "497"},
		{"Crater Lake", "53.2"},
	}
	for _, r := range rows {
		if err := db.InsertStrings("Lake", r...); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.InsertStrings("geo_lake", "Lake Tahoe", "California"); err != nil {
		t.Fatal(err)
	}
	db.Analyze()
	plan, err := Parse(Generate(lakePlan()), sch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Rows[0][0].Text() != "California" {
		t.Errorf("unexpected result:\n%s", res)
	}
}

func BenchmarkGenerate(b *testing.B) {
	p := lakePlan()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Generate(p)
	}
}

func BenchmarkParse(b *testing.B) {
	sql := Generate(lakePlan())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(sql, nil); err != nil {
			b.Fatal(err)
		}
	}
}
