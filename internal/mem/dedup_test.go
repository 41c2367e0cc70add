package mem

import (
	"testing"

	"prism/internal/exec"
	"prism/internal/schema"
	"prism/internal/value"
)

// TestTupleDeduperMatchesKeyMap checks that the fingerprint-keyed deduper
// is observably identical to a map[key]struct{}, including the cross-kind
// key collisions (3 ≡ 3.0 ≡ "3") DISTINCT relies on, and tells apart two
// tuples whose element keys join to the same text.
func TestTupleDeduperMatchesKeyMap(t *testing.T) {
	tuples := []value.Tuple{
		{value.NewInt(3), value.NewText("a")},
		{value.NewDecimal(3.0), value.NewText("A")}, // key-equal to the first
		{value.NewText("3"), value.NewText("a")},    // key-equal too
		{value.NewInt(4), value.NewText("a")},
		{value.NullValue, value.NewText("a")},
		{value.NewInt(3), value.NewText("b")},
		{value.NewInt(3), value.NewText("a")}, // exact repeat
		{value.NewText("a|t:b"), value.NewText("c")},
		{value.NewText("a"), value.NewText("b|t:c")}, // not the row above
	}
	d := newTupleDeduper()
	model := make(map[string]struct{})
	for i, tup := range tuples {
		_, dup := model[tup.Key()]
		model[tup.Key()] = struct{}{}
		if got := d.seen(tup); got != dup {
			t.Errorf("tuple %d (%v): seen = %v, reference map says %v", i, tup, got, dup)
		}
	}
	if len(model) != 6 {
		t.Errorf("%d distinct keys, want 6", len(model))
	}
}

func TestTupleDeduperManyBuckets(t *testing.T) {
	d := newTupleDeduper()
	for i := int64(0); i < 1000; i++ {
		if d.seen(value.Tuple{value.NewInt(i)}) {
			t.Fatalf("fresh tuple %d reported as seen", i)
		}
	}
	for i := int64(0); i < 1000; i++ {
		if !d.seen(value.Tuple{value.NewInt(i)}) {
			t.Fatalf("recorded tuple %d reported as fresh", i)
		}
	}
}

// TestDistinctKeepsRowsWhoseKeysJoinAlike runs SELECT DISTINCT over two
// rows whose element keys, joined with a separator, would spell the same
// text: they are different rows, and both are kept.
func TestDistinctKeepsRowsWhoseKeysJoinAlike(t *testing.T) {
	sch := schema.New()
	if err := sch.AddTable(schema.MustTable("Pair",
		schema.Column{Name: "A", Type: value.Text}, schema.Column{Name: "B", Type: value.Text})); err != nil {
		t.Fatal(err)
	}
	db := NewDatabase("pairs", sch)
	for _, row := range [][2]string{{"a|t:b", "c"}, {"a", "b|t:c"}, {"A", "B|T:C"}} {
		if err := db.Insert("Pair", value.Tuple{value.NewText(row[0]), value.NewText(row[1])}); err != nil {
			t.Fatal(err)
		}
	}
	db.Analyze()
	res, err := db.Execute(exec.Plan{
		Tables:   []string{"Pair"},
		Project:  []schema.ColumnRef{{Table: "Pair", Column: "A"}, {Table: "Pair", Column: "B"}},
		Distinct: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 || res.Rows[1][0].Text() != "a" {
		t.Errorf("DISTINCT kept %v, want the first two rows", res.Rows)
	}
}
