package exec

import (
	"errors"
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
	if _, err := New("definitely-not-registered", nil); !errors.Is(err, ErrUnknownExecutor) {
		t.Errorf("unknown executor: err = %v, want ErrUnknownExecutor", err)
	}
	Register("test-backend", func(src Source) (Executor, error) { return nil, nil })
	if _, err := New("test-backend", nil); err != nil {
		t.Errorf("registered factory not found: %v", err)
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
