package schema

import (
	"strings"
	"testing"
	"testing/quick"

	"prism/internal/value"
)

func lakeTable(t *testing.T) *Table {
	t.Helper()
	tab, err := NewTable("Lake",
		Column{Name: "Name", Type: value.Text},
		Column{Name: "Area", Type: value.Decimal},
		Column{Name: "Depth", Type: value.Decimal},
	)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	return tab
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(""); err == nil {
		t.Error("empty table name should fail")
	}
	if _, err := NewTable("T", Column{Name: ""}); err == nil {
		t.Error("empty column name should fail")
	}
	if _, err := NewTable("T", Column{Name: "a"}, Column{Name: "A"}); err == nil {
		t.Error("case-insensitive duplicate column should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustTable should panic on error")
		}
	}()
	MustTable("T", Column{Name: "x"}, Column{Name: "x"})
}

func TestTableLookups(t *testing.T) {
	tab := lakeTable(t)
	if tab.Arity() != 3 {
		t.Errorf("Arity = %d", tab.Arity())
	}
	if i := tab.ColumnIndex("area"); i != 1 {
		t.Errorf("ColumnIndex(area) = %d", i)
	}
	if i := tab.ColumnIndex("missing"); i != -1 {
		t.Errorf("ColumnIndex(missing) = %d", i)
	}
	c, ok := tab.Column("NAME")
	if !ok || c.Name != "Name" || c.Type != value.Text {
		t.Errorf("Column(NAME) = %+v %v", c, ok)
	}
	if _, ok := tab.Column("nope"); ok {
		t.Error("Column(nope) should be absent")
	}
	if tab.Arity() != 3 || tab.Columns[0].Name != "Name" || tab.Columns[2].Name != "Depth" {
		t.Errorf("Columns = %v", tab.Columns)
	}
}

func TestColumnRef(t *testing.T) {
	r := ColumnRef{Table: "Lake", Column: "Name"}
	if r.String() != "Lake.Name" {
		t.Errorf("String = %q", r.String())
	}
	if !r.Less(ColumnRef{Table: "Lake", Column: "Z"}) {
		t.Error("Less by column")
	}
	if !r.Less(ColumnRef{Table: "M", Column: "A"}) {
		t.Error("Less by table")
	}
	if r.Less(r) {
		t.Error("not less than itself")
	}
}

func buildMiniSchema(t *testing.T) *Schema {
	t.Helper()
	s := New()
	if err := s.AddTable(lakeTable(t)); err != nil {
		t.Fatal(err)
	}
	geo := MustTable("geo_lake",
		Column{Name: "Lake", Type: value.Text},
		Column{Name: "Province", Type: value.Text},
		Column{Name: "Country", Type: value.Text},
	)
	if err := s.AddTable(geo); err != nil {
		t.Fatal(err)
	}
	prov := MustTable("Province",
		Column{Name: "Name", Type: value.Text},
		Column{Name: "Country", Type: value.Text},
		Column{Name: "Population", Type: value.Int},
	)
	if err := s.AddTable(prov); err != nil {
		t.Fatal(err)
	}
	if err := s.AddForeignKey(ForeignKey{
		From: ColumnRef{Table: "geo_lake", Column: "Lake"},
		To:   ColumnRef{Table: "Lake", Column: "Name"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddForeignKey(ForeignKey{
		From: ColumnRef{Table: "geo_lake", Column: "Province"},
		To:   ColumnRef{Table: "Province", Column: "Name"},
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaTables(t *testing.T) {
	s := buildMiniSchema(t)
	if _, ok := s.Table("LAKE"); !ok {
		t.Error("case-insensitive table lookup failed")
	}
	if _, ok := s.Table("nope"); ok {
		t.Error("unknown table should be absent")
	}
	if tables := s.Tables(); len(tables) != 3 || tables[0].Name != "Lake" || tables[1].Name != "geo_lake" {
		t.Errorf("Tables() = %v", tables)
	}
	if err := s.AddTable(lakeTable(t)); err == nil {
		t.Error("duplicate table should fail")
	}
	if err := s.AddTable(nil); err == nil {
		t.Error("nil table should fail")
	}
	if err := s.AddTable(&Table{Name: "X", Columns: []Column{{Name: "A"}}}); err == nil {
		t.Error("a table not built by NewTable should fail")
	}
}

func TestSchemaResolve(t *testing.T) {
	s := buildMiniSchema(t)
	ref, err := s.Resolve(ColumnRef{Table: "lake", Column: "area"})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if ref.Table != "Lake" || ref.Column != "Area" {
		t.Errorf("Resolve canonicalisation = %v", ref)
	}
	if _, err := s.Resolve(ColumnRef{Table: "nope", Column: "x"}); err == nil {
		t.Error("unknown table should fail")
	}
	if _, err := s.Resolve(ColumnRef{Table: "Lake", Column: "nope"}); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestForeignKeys(t *testing.T) {
	s := buildMiniSchema(t)
	fks := s.ForeignKeys()
	if len(fks) != 2 {
		t.Fatalf("ForeignKeys len = %d", len(fks))
	}
	if fks[0].String() != "geo_lake.Lake -> Lake.Name" {
		t.Errorf("fk string = %q", fks[0].String())
	}
	if err := s.AddForeignKey(ForeignKey{
		From: ColumnRef{Table: "Lake", Column: "Name"},
		To:   ColumnRef{Table: "Lake", Column: "Area"},
	}); err == nil {
		t.Error("self-referencing FK should be rejected")
	}
	if err := s.AddForeignKey(ForeignKey{
		From: ColumnRef{Table: "missing", Column: "x"},
		To:   ColumnRef{Table: "Lake", Column: "Name"},
	}); err == nil {
		t.Error("FK with unknown endpoint should fail")
	}
	if fks := s.ForeignKeys(); len(fks) != 2 {
		t.Errorf("ForeignKeys = %v", fks)
	}
}

func TestSchemaString(t *testing.T) {
	s := buildMiniSchema(t)
	str := s.String()
	if !strings.Contains(str, "Lake(Name text, Area decimal, Depth decimal)") {
		t.Errorf("schema string missing Lake table:\n%s", str)
	}
	if !strings.Contains(str, "FK geo_lake.Lake -> Lake.Name") {
		t.Errorf("schema string missing FK:\n%s", str)
	}
}

func TestStatsCollector(t *testing.T) {
	ref := ColumnRef{Table: "Lake", Column: "Area"}
	c := NewStatsCollector(ref, value.Decimal)
	for _, v := range []value.Value{
		value.NewDecimal(497),
		value.NewDecimal(53.2),
		value.NullValue,
		value.NewDecimal(981),
		value.NewDecimal(497), // duplicate
	} {
		c.Add(v)
	}
	st := c.Stats(3) // the distinct count is the caller's: the collector keeps no dictionary
	if st.RowCount != 5 || st.NullCount != 1 || st.Distinct != 3 {
		t.Errorf("counts: %+v", st)
	}
	if st.NonNullCount() != 4 {
		t.Errorf("NonNullCount = %d", st.NonNullCount())
	}
	if st.Min.Decimal() != 53.2 || st.Max.Decimal() != 981 {
		t.Errorf("min/max: %v / %v", st.Min, st.Max)
	}
	if st.MaxLength != 4 { // "53.2" and "497" -> 4
		t.Errorf("MaxLength = %d", st.MaxLength)
	}
	if !strings.Contains(st.String(), "Lake.Area") {
		t.Errorf("Stats.String() = %q", st.String())
	}
}

func TestStatsEmptyColumn(t *testing.T) {
	c := NewStatsCollector(ColumnRef{Table: "T", Column: "C"}, value.Int)
	st := c.Stats(0)
	if st.RowCount != 0 || !st.Min.IsNull() || !st.Max.IsNull() {
		t.Errorf("empty stats: %+v", st)
	}
	if st.NullCount != 0 || st.NonNullCount() != 0 {
		t.Errorf("empty column counts: %+v", st)
	}
}

// Property: after adding any sequence of ints, Min <= Max and MaxLength
// equals the longest rendering.
func TestStatsProperties(t *testing.T) {
	f := func(vals []int16) bool {
		c := NewStatsCollector(ColumnRef{Table: "T", Column: "C"}, value.Int)
		maxLen := 0
		for _, x := range vals {
			v := value.NewInt(int64(x))
			if l := v.TextLength(); l > maxLen {
				maxLen = l
			}
			c.Add(v)
		}
		st := c.Stats(0)
		if len(vals) == 0 {
			return st.RowCount == 0
		}
		if st.Min.Compare(st.Max) > 0 {
			return false
		}
		return st.MaxLength == maxLen && st.RowCount == len(vals) && st.NullCount == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkStatsCollector(b *testing.B) {
	ref := ColumnRef{Table: "T", Column: "C"}
	vals := make([]value.Value, 1000)
	for i := range vals {
		vals[i] = value.NewInt(int64(i % 117))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewStatsCollector(ref, value.Int)
		for _, v := range vals {
			c.Add(v)
		}
		_ = c.Stats(117)
	}
}
