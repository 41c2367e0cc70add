package constraint

import (
	"strings"
	"testing"

	"prism/internal/lang"
	"prism/internal/schema"
	"prism/internal/value"
)

// paperSpec builds the §3 demo specification: 3 target columns, one sample
// ("California || Nevada", "Lake Tahoe", missing) and a metadata constraint
// on the third column.
func paperSpec(t *testing.T) *Spec {
	t.Helper()
	sp, err := ParseGrid(3,
		[][]string{{"California || Nevada", "Lake Tahoe", ""}},
		[]string{"", "", "DataType=='decimal' AND MinValue>='0'"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestParseGridPaperExample(t *testing.T) {
	sp := paperSpec(t)
	if sp.NumColumns != 3 || len(sp.Samples) != 1 {
		t.Fatalf("spec = %+v", sp)
	}
	if sp.Metadata[2] == nil || sp.Metadata[0] != nil {
		t.Error("metadata placement wrong")
	}
	if !sp.ColumnConstrained(0) || !sp.ColumnConstrained(1) || !sp.ColumnConstrained(2) {
		t.Error("all three columns are constrained in the demo example")
	}
	if sp.ColumnConstrained(3) || sp.ColumnConstrained(-1) {
		t.Error("out-of-range columns are unconstrained")
	}
	if sp.Resolution() != lang.ResolutionMedium {
		t.Errorf("Resolution = %v", sp.Resolution())
	}
	str := sp.String()
	if !strings.Contains(str, "Lake Tahoe") || !strings.Contains(str, "metadata col 3") {
		t.Errorf("String():\n%s", str)
	}
}

func TestParseGridErrors(t *testing.T) {
	if _, err := ParseGrid(0, nil, nil); err == nil {
		t.Error("zero columns should fail")
	}
	if _, err := ParseGrid(2, [][]string{{"a"}}, nil); err == nil {
		t.Error("row arity mismatch should fail")
	}
	if _, err := ParseGrid(2, [][]string{{">=", "b"}}, nil); err == nil {
		t.Error("bad cell should fail")
	}
	if _, err := ParseGrid(2, [][]string{{"a", "b"}}, []string{"only-one"}); err == nil {
		t.Error("metadata arity mismatch should fail")
	}
	if _, err := ParseGrid(2, [][]string{{"a", "b"}}, []string{"Bogus == 1", ""}); err == nil {
		t.Error("bad metadata cell should fail")
	}
	if _, err := ParseGrid(2, [][]string{{"", ""}}, []string{"", ""}); err == nil {
		t.Error("fully empty specification should fail")
	}
	if _, err := ParseGrid(1, nil, nil); err == nil {
		t.Error("no samples and no metadata should fail")
	}
}

func TestNewSpecValidation(t *testing.T) {
	cells, _ := lang.ParseSampleRow([]string{"x", "y"})
	s := SampleConstraint{Cells: cells}
	if _, err := NewSpec(3, []SampleConstraint{s}, nil); err == nil {
		t.Error("sample arity mismatch should fail")
	}
	sp, err := NewSpec(2, []SampleConstraint{s}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Metadata) != 2 {
		t.Error("nil metadata should expand to one nil per column")
	}
	if _, err := NewSpec(2, []SampleConstraint{s}, make([]lang.MetaExpr, 3)); err == nil {
		t.Error("metadata arity mismatch should fail")
	}
}

func TestSampleConstraintMatching(t *testing.T) {
	sp := paperSpec(t)
	s := sp.Samples[0]
	if got := s.ConstrainedColumns(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("ConstrainedColumns = %v", got)
	}
	if s.IsEmpty() {
		t.Error("sample is not empty")
	}
	good := value.Tuple{value.NewText("California"), value.NewText("Lake Tahoe"), value.NewDecimal(497)}
	if !s.MatchesTuple(good) {
		t.Error("paper tuple should match")
	}
	alsoGood := value.Tuple{value.NewText("Nevada"), value.NewText("lake tahoe"), value.NullValue}
	if !s.MatchesTuple(alsoGood) {
		t.Error("disjunction + case-insensitive match expected")
	}
	bad := value.Tuple{value.NewText("Oregon"), value.NewText("Lake Tahoe"), value.NewDecimal(497)}
	if s.MatchesTuple(bad) {
		t.Error("Oregon violates the first cell")
	}
	if s.MatchesTuple(good[:2]) {
		t.Error("short tuple should not match")
	}
	if s.Resolution() != lang.ResolutionMedium {
		t.Error("sample with disjunction is medium resolution")
	}
	if !strings.Contains(s.String(), "California || Nevada") {
		t.Errorf("String = %q", s)
	}
}

func TestSampleMatchesProjection(t *testing.T) {
	sp := paperSpec(t)
	s := sp.Samples[0]
	// Project only column 1 (Lake Name).
	if !s.MatchesProjection([]int{1}, value.Tuple{value.NewText("Lake Tahoe")}) {
		t.Error("projection on lake name should match")
	}
	if s.MatchesProjection([]int{1}, value.Tuple{value.NewText("Crater Lake")}) {
		t.Error("wrong lake should not match")
	}
	// Projection covering unconstrained column passes trivially.
	if !s.MatchesProjection([]int{2}, value.Tuple{value.NewDecimal(5)}) {
		t.Error("unconstrained column projection should match")
	}
	if s.MatchesProjection([]int{0, 1}, value.Tuple{value.NewText("California")}) {
		t.Error("length mismatch should not match")
	}
	if s.MatchesProjection([]int{7}, value.Tuple{value.NewText("x")}) {
		t.Error("out-of-range column index should not match")
	}
}

func TestEmptySampleResolution(t *testing.T) {
	s := SampleConstraint{Cells: make([]lang.ValueExpr, 3)}
	if !s.IsEmpty() || s.Resolution() != lang.ResolutionLow {
		t.Error("empty sample should be low resolution")
	}
}

func TestColumnKeywordsAndExprs(t *testing.T) {
	sp, err := ParseGrid(2,
		[][]string{
			{"California || Nevada", "Lake Tahoe"},
			{"California", ">= 100"},
		},
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.ColumnValueExprs(0)) != 2 || len(sp.ColumnValueExprs(1)) != 2 {
		t.Error("ColumnValueExprs counts wrong")
	}
	if sp.ColumnValueExprs(5) != nil {
		t.Error("out-of-range column has no value constraints")
	}
}

func TestSpecResolutionLevels(t *testing.T) {
	high, err := ParseGrid(2, [][]string{{"California", "Lake Tahoe"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if high.Resolution() != lang.ResolutionHigh {
		t.Error("exact cells are high resolution")
	}
	low, err := ParseGrid(1, nil, []string{"DataType == 'decimal'"})
	if err != nil {
		t.Fatal(err)
	}
	if low.Resolution() != lang.ResolutionLow {
		t.Error("metadata-only spec is low resolution")
	}
	if paperSpec(t).Resolution() != lang.ResolutionMedium {
		t.Error("a disjunction cell is medium resolution")
	}
}

func stats(ref schema.ColumnRef, typ value.Kind, vals ...value.Value) schema.Stats {
	c := schema.NewStatsCollector(ref, typ)
	distinct := make(map[string]bool)
	for _, v := range vals {
		c.Add(v)
		if !v.IsNull() {
			distinct[v.Key()] = true
		}
	}
	return c.Stats(len(distinct))
}

func TestColumnFeasible(t *testing.T) {
	sp := paperSpec(t)
	provStats := stats(schema.ColumnRef{Table: "geo_lake", Column: "Province"}, value.Text,
		value.NewText("California"), value.NewText("Oregon"))
	nameStats := stats(schema.ColumnRef{Table: "Lake", Column: "Name"}, value.Text,
		value.NewText("Lake Tahoe"), value.NewText("Crater Lake"))
	areaStats := stats(schema.ColumnRef{Table: "Lake", Column: "Area"}, value.Decimal,
		value.NewDecimal(53.2), value.NewDecimal(497))
	negStats := stats(schema.ColumnRef{Table: "Geo", Column: "Elevation"}, value.Decimal,
		value.NewDecimal(-86), value.NewDecimal(400))
	hasProv := func(kw string) bool { return strings.EqualFold(kw, "California") }
	hasName := func(kw string) bool {
		return strings.EqualFold(kw, "Lake Tahoe") || strings.EqualFold(kw, "Crater Lake")
	}
	hasNone := func(string) bool { return false }

	if !sp.ColumnFeasible(0, provStats, hasProv) {
		t.Error("province column should be feasible for target column 0")
	}
	if sp.ColumnFeasible(0, nameStats, hasName) {
		t.Error("lake-name column lacks California/Nevada keywords")
	}
	if !sp.ColumnFeasible(1, nameStats, hasName) {
		t.Error("lake-name column should be feasible for target column 1")
	}
	if !sp.ColumnFeasible(2, areaStats, hasNone) {
		t.Error("area column satisfies the metadata constraint")
	}
	if sp.ColumnFeasible(2, negStats, hasNone) {
		t.Error("negative-min column violates MinValue >= 0")
	}
	if sp.ColumnFeasible(2, nameStats, hasNone) {
		t.Error("text column violates DataType == decimal")
	}
	if sp.ColumnFeasible(9, areaStats, hasNone) || sp.ColumnFeasible(-1, areaStats, hasNone) {
		t.Error("out-of-range target columns are infeasible")
	}
}

func TestColumnFeasibleMultipleSamples(t *testing.T) {
	// Two samples naming different provinces: a column containing only one
	// of them must still be feasible (different samples may bind different
	// rows, and the candidate is only pruned if no row can serve a sample —
	// which execution-time validation decides, not column feasibility).
	sp, err := ParseGrid(1, [][]string{{"California"}, {"Texas"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := stats(schema.ColumnRef{Table: "P", Column: "Name"}, value.Text, value.NewText("California"))
	has := func(kw string) bool { return strings.EqualFold(kw, "California") }
	if !sp.ColumnFeasible(0, st, has) {
		t.Error("column containing one of the sample keywords should remain feasible")
	}
}

func TestMatchesResult(t *testing.T) {
	sp, err := ParseGrid(2,
		[][]string{
			{"California || Nevada", "Lake Tahoe"},
			{"Oregon", "Crater Lake"},
		},
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	rows := []value.Tuple{
		{value.NewText("California"), value.NewText("Lake Tahoe")},
		{value.NewText("Oregon"), value.NewText("Crater Lake")},
		{value.NewText("Florida"), value.NewText("Fort Peck Lake")},
	}
	if !sp.MatchesResult(rows) {
		t.Error("result containing both samples should match")
	}
	if sp.MatchesResult(rows[:1]) {
		t.Error("missing second sample should not match")
	}
	if sp.MatchesResult(nil) {
		t.Error("empty result should not match")
	}
	// A spec whose samples are all empty matches anything.
	empty := &Spec{NumColumns: 1, Samples: []SampleConstraint{{Cells: make([]lang.ValueExpr, 1)}}, Metadata: make([]lang.MetaExpr, 1)}
	if !empty.MatchesResult(nil) {
		t.Error("spec with empty samples matches any result")
	}
}

func BenchmarkSpecMatchesResult(b *testing.B) {
	sp, err := ParseGrid(3,
		[][]string{{"California || Nevada", "Lake Tahoe", ">= 100"}},
		nil,
	)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]value.Tuple, 0, 1000)
	for i := 0; i < 1000; i++ {
		rows = append(rows, value.Tuple{
			value.NewText("Province-" + string(rune('a'+i%26))),
			value.NewText("Lake-" + string(rune('a'+i%26))),
			value.NewDecimal(float64(i)),
		})
	}
	rows = append(rows, value.Tuple{value.NewText("Nevada"), value.NewText("Lake Tahoe"), value.NewDecimal(497)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !sp.MatchesResult(rows) {
			b.Fatal("expected match")
		}
	}
}
