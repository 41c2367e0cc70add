package exec

import (
	"testing"

	"prism/internal/schema"
	"prism/internal/value"
)

func testSchema(t *testing.T) *schema.Schema {
	t.Helper()
	sch := schema.New()
	lake, err := schema.NewTable("Lake",
		schema.Column{Name: "Name", Type: value.Text},
		schema.Column{Name: "Area", Type: value.Decimal},
	)
	if err != nil {
		t.Fatal(err)
	}
	geo, err := schema.NewTable("geo_lake",
		schema.Column{Name: "Province", Type: value.Text},
		schema.Column{Name: "Lake", Type: value.Text},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.AddTable(lake); err != nil {
		t.Fatal(err)
	}
	if err := sch.AddTable(geo); err != nil {
		t.Fatal(err)
	}
	return sch
}

func TestPlanValidate(t *testing.T) {
	sch := testSchema(t)
	ref := func(tb, c string) schema.ColumnRef { return schema.ColumnRef{Table: tb, Column: c} }
	good := Plan{
		Tables:  []string{"Lake", "geo_lake"},
		Joins:   []JoinEdge{{Left: ref("geo_lake", "Lake"), Right: ref("Lake", "Name")}},
		Project: []schema.ColumnRef{ref("Lake", "Name")},
	}
	if err := good.Validate(sch); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	cases := []struct {
		name string
		plan Plan
	}{
		{"no tables", Plan{}},
		{"unknown table", Plan{Tables: []string{"Nope"}}},
		{"duplicate table", Plan{Tables: []string{"Lake", "lake"}}},
		{"unknown join column", Plan{
			Tables: []string{"Lake", "geo_lake"},
			Joins:  []JoinEdge{{Left: ref("geo_lake", "Nope"), Right: ref("Lake", "Name")}},
		}},
		{"projection outside plan", Plan{
			Tables:  []string{"Lake"},
			Project: []schema.ColumnRef{ref("geo_lake", "Province")},
		}},
		{"disconnected", Plan{
			Tables:  []string{"Lake", "geo_lake"},
			Project: []schema.ColumnRef{ref("Lake", "Name")},
		}},
	}
	for _, tc := range cases {
		if err := tc.plan.Validate(sch); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestStartTableSmallestFirst(t *testing.T) {
	p := Plan{Tables: []string{"A", "B", "C"}}
	sizes := map[string]int{"A": 100, "B": 10, "C": 1000}
	if got := StartTable(p, func(tbl string) int { return sizes[tbl] }); got != "B" {
		t.Errorf("StartTable = %q, want B", got)
	}
	// Declaration order breaks ties.
	ties := map[string]int{"A": 10, "B": 10, "C": 10}
	if got := StartTable(p, func(tbl string) int { return ties[tbl] }); got != "A" {
		t.Errorf("StartTable with ties = %q, want A", got)
	}
	// A single table stays put.
	if got := StartTable(Plan{Tables: []string{"A"}}, func(string) int { return 1 }); got != "A" {
		t.Errorf("single-table start = %q", got)
	}
}

func TestRegistry(t *testing.T) {
	if _, err := New("definitely-not-registered", nil); err == nil {
		t.Error("unknown executor should error")
	}
	Register("Test Backend", func(src Source) (Executor, error) { return nil, nil })
	found := false
	for _, name := range Names() {
		if name == "testbackend" {
			found = true
		}
	}
	if !found {
		t.Errorf("normalized name missing from %v", Names())
	}
	if _, err := New("  TEST backend ", nil); err != nil {
		t.Errorf("case/space-insensitive lookup failed: %v", err)
	}
}

func TestInterruptChecker(t *testing.T) {
	never := NewInterruptChecker(nil)
	for i := 0; i < 3*InterruptEvery; i++ {
		if never.Hit() {
			t.Fatal("nil interrupt must never fire")
		}
	}
	armed := NewInterruptChecker(func() bool { return true })
	fired := false
	for i := 0; i < 2*InterruptEvery; i++ {
		if armed.Hit() {
			fired = true
			break
		}
	}
	if !fired {
		t.Error("armed interrupt should fire within one polling window")
	}
}

func TestExecStatsAdd(t *testing.T) {
	a := ExecStats{RowsScanned: 1, JoinsExecuted: 1, TerminatedEarly: true, SelectionsReused: 2}
	b := ExecStats{RowsScanned: 2, IntermediateRows: 5, AbortedTooLarge: true, SelectionsReused: 3}
	a.Add(b)
	if a.RowsScanned != 3 || a.IntermediateRows != 5 || a.JoinsExecuted != 1 || a.SelectionsReused != 5 {
		t.Errorf("bad accumulation: %+v", a)
	}
	if !a.TerminatedEarly || !a.AbortedTooLarge {
		t.Error("flags should be sticky")
	}
}

func TestPlanFingerprint(t *testing.T) {
	base := Plan{
		Tables: []string{"Lake", "geo_lake"},
		Joins:  []JoinEdge{{Left: schema.ColumnRef{Table: "Lake", Column: "Name"}, Right: schema.ColumnRef{Table: "geo_lake", Column: "Lake"}}},
		Project: []schema.ColumnRef{
			{Table: "geo_lake", Column: "Province"},
			{Table: "Lake", Column: "Name"},
		},
	}
	fp := base.Fingerprint()
	if fp == "" || len(fp) != 16 {
		t.Fatalf("fingerprint %q should be a 16-hex token", fp)
	}

	// Table order, join orientation and case are normalised away.
	reordered := Plan{
		Tables: []string{"GEO_LAKE", "lake"},
		Joins:  []JoinEdge{{Left: schema.ColumnRef{Table: "geo_lake", Column: "Lake"}, Right: schema.ColumnRef{Table: "LAKE", Column: "name"}}},
		Project: []schema.ColumnRef{
			{Table: "Geo_Lake", Column: "province"},
			{Table: "Lake", Column: "Name"},
		},
	}
	if got := reordered.Fingerprint(); got != fp {
		t.Errorf("reordered plan fingerprint = %s, want %s", got, fp)
	}

	// The projection order is part of the identity (it fixes output columns).
	swapped := base
	swapped.Project = []schema.ColumnRef{base.Project[1], base.Project[0]}
	if got := swapped.Fingerprint(); got == fp {
		t.Error("swapping projection order should change the fingerprint")
	}

	// Distinct changes the result set, so it changes the fingerprint.
	distinct := base
	distinct.Distinct = true
	if got := distinct.Fingerprint(); got == fp {
		t.Error("Distinct should change the fingerprint")
	}

	// Dropping the join edge changes the fingerprint.
	crossed := base
	crossed.Joins = nil
	if got := crossed.Fingerprint(); got == fp {
		t.Error("removing the join should change the fingerprint")
	}
}
