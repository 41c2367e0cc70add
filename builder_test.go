package prism

import (
	"context"
	"testing"
	"time"
)

// TestSpecBuilderMatchesParsedGrid: the typed builder must produce the
// same canonical specification as the grid parser — same String rendering
// and, end to end, the same discovered mapping set.
func TestSpecBuilderMatchesParsedGrid(t *testing.T) {
	built, err := NewSpec(3).
		Sample(OneOf("California", "Nevada"), Exact("Lake Tahoe"), Any()).
		Metadata(2, DataTypeIs("decimal"), MinValueAtLeast(0)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	parsed := paperSpec(t)
	if built.String() != parsed.String() {
		t.Fatalf("builder diverges from the grid parser:\nbuilt:\n%s\nparsed:\n%s",
			built, parsed)
	}

	eng := mondialEngine(t)
	ctx := context.Background()
	opts := Options{IncludeResults: true, ResultLimit: 5}
	fromBuilt, err := eng.Discover(ctx, built, opts)
	if err != nil {
		t.Fatal(err)
	}
	fromParsed, err := eng.Discover(ctx, parsed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromBuilt.Mappings) == 0 || len(fromBuilt.Mappings) != len(fromParsed.Mappings) {
		t.Fatalf("mapping counts differ: built=%d parsed=%d",
			len(fromBuilt.Mappings), len(fromParsed.Mappings))
	}
	for i := range fromBuilt.Mappings {
		if fromBuilt.Mappings[i].SQL != fromParsed.Mappings[i].SQL {
			t.Errorf("mapping %d: %q vs %q", i, fromBuilt.Mappings[i].SQL, fromParsed.Mappings[i].SQL)
		}
	}
}

func TestSpecBuilderConstructors(t *testing.T) {
	cases := []struct {
		got  ValueConstraint
		want string
	}{
		{Exact("Lake Tahoe"), "Lake Tahoe"},
		{Exact(497), "497"},
		{Exact(0.5), "0.5"},
		{OneOf("a", "b", "c"), "a || b || c"},
		{OneOf("solo"), "solo"},
		{Between(100, 600), "[100, 600]"},
		{Between(1.5, 2.5), "[1.5, 2.5]"},
		{AtLeast(10), ">= 10"},
		{AtMost(20), "<= 20"},
		{GreaterThan(0), "> 0"},
		{LessThan(5), "< 5"},
		{NotEqualTo(0), "!= 0"},
		{AllOf(AtLeast(1), AtMost(9)), ">= 1 && <= 9"},
		{AllOf(AtLeast(1), nil), ">= 1"},
		{AnyOf(Exact("x"), Between(1, 2)), "x || [1, 2]"},
		{Not(Exact("x")), "NOT (x)"},
		{AtLeast(DateValue(2020, time.March, 14)), ">= 2020-03-14"},
		{AtMost(TimeValue(17, 30, 0)), "<= 17:30:00"},
	}
	for _, tc := range cases {
		if tc.got == nil {
			t.Errorf("constructor for %q returned nil", tc.want)
			continue
		}
		if s := tc.got.String(); s != tc.want {
			t.Errorf("String() = %q, want %q", s, tc.want)
		}
	}
	if Any() != nil || OneOf() != nil || AllOf() != nil || Not(nil) != nil {
		t.Error("empty constructors must produce unconstrained (nil) cells")
	}

	meta := []struct {
		got  MetaConstraint
		want string
	}{
		{DataTypeIs("decimal"), "DataType = 'decimal'"},
		{ColumnNamed("Area"), "ColumnName = 'Area'"},
		{TableNamed("Lake%"), "TableName = 'Lake%'"},
		{MinValueAtLeast(0), "MinValue >= '0'"},
		{MaxValueAtMost(100), "MaxValue <= '100'"},
		{MaxLengthAtMost(30), "MaxLength <= '30'"},
		{MetaAllOf(DataTypeIs("int"), MinValueAtLeast(0)), "DataType = 'int' AND MinValue >= '0'"},
		{MetaAnyOf(ColumnNamed("Area"), ColumnNamed("Size")), "ColumnName = 'Area' OR ColumnName = 'Size'"},
		{MetaAllOf(DataTypeIs("int"), nil), "DataType = 'int'"},
	}
	for _, tc := range meta {
		if s := tc.got.String(); s != tc.want {
			t.Errorf("String() = %q, want %q", s, tc.want)
		}
	}
	if MetaAllOf() != nil || MetaAnyOf() != nil {
		t.Error("empty metadata combinators must be nil")
	}
}

func TestSpecBuilderErrors(t *testing.T) {
	// Too many cells and an out-of-range metadata column are both reported.
	_, err := NewSpec(2).
		Sample(Exact("a"), Exact("b"), Exact("c")).
		Metadata(5, DataTypeIs("int")).
		Build()
	if err == nil {
		t.Fatal("Build should fail")
	}
	// A spec without any constraint is rejected like the parser rejects it.
	if _, err := NewSpec(2).Sample(Any(), nil).Build(); err == nil {
		t.Error("unconstrained spec should fail")
	}
	if _, err := NewSpec(0).Build(); err == nil {
		t.Error("zero columns should fail")
	}
	// Short rows are padded, and padding alone is fine when another cell
	// carries a constraint.
	sp, err := NewSpec(3).Sample(Exact("x")).Build()
	if err != nil {
		t.Fatalf("padded sample: %v", err)
	}
	if sp.Samples[0].Arity() != 3 {
		t.Errorf("padded arity = %d", sp.Samples[0].Arity())
	}
}
