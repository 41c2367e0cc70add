package dataset_test

import (
	"math"
	"slices"
	"testing"

	"prism/internal/dataset"
	"prism/internal/difftest"
	"prism/internal/exec"
	"prism/internal/mem"
	"prism/internal/schema"
	"prism/internal/value"
)

// column is one column of a frozen database with its cells as they were
// loaded, read before the freeze: once a database is analysed its key
// dictionary is the only copy of a cell, and ColumnValues reads that.
type column struct {
	label string
	x     *exec.ColumnIndex
	stats schema.Stats
	vals  []value.Value
}

// frozenColumns returns every column of the bundled databases — as their
// generators fill them (dataset.Load) — and of the corner-case chain, the
// sampled join and the numeric-view menagerie, with the cells read before
// Analyze and the key dictionary and statistics after.
func frozenColumns(t *testing.T) []column {
	t.Helper()
	dbs := []*mem.Database{difftest.Quirks(t), difftest.BigJoin(t), difftest.Ranges(t)}
	for _, name := range dataset.Names() {
		db, err := dataset.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, db)
	}
	var out []column
	for _, db := range dbs {
		if dataset.Frozen(db) {
			t.Fatalf("%s is analysed before its cells are read", db.Name)
		}
		var refs []schema.ColumnRef
		for _, table := range db.Schema().Tables() {
			for _, col := range table.Columns {
				refs = append(refs, schema.ColumnRef{Table: table.Name, Column: col.Name})
			}
		}
		first := len(out)
		for _, ref := range refs {
			vals, err := db.ColumnValues(ref)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, column{label: db.Name + " " + ref.String(), vals: vals})
		}
		db.Analyze()
		for i, ref := range refs {
			x, err := db.ColumnIndex(ref)
			if err != nil {
				t.Fatal(err)
			}
			out[first+i].x = x
			out[first+i].stats, _ = db.Stats(ref)
		}
	}
	return out
}

// identical reports whether two cells are the same bits (Identical).
var identical = dataset.Identical

// checkIndexAgainstRows compares one column's key dictionary with a
// brute-force grouping of the column's rows by Value.Key.
func checkIndexAgainstRows(t *testing.T, label string, x *exec.ColumnIndex, vals []value.Value) {
	t.Helper()
	var order []string // keys in first-seen row order
	groups := make(map[string][]int32)
	var nulls []int32
	for row, v := range vals {
		if v.IsNull() {
			nulls = append(nulls, int32(row))
			continue
		}
		k := v.Key()
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], int32(row))
	}
	if x.NumRows() != len(vals) || len(x.Vals) != len(order) {
		t.Fatalf("%s: %d rows, %d values; want %d rows and %d keys", label, x.NumRows(), len(x.Vals), len(vals), len(order))
	}
	idOf := make(map[string]int32, len(order))
	for id, k := range order {
		idOf[k] = int32(id)
		rows := groups[k]
		if !identical(x.Vals[id], vals[rows[0]]) {
			t.Errorf("%s: id %d holds %v, want the first value seen, %v", label, id, x.Vals[id], vals[rows[0]])
		}
		if !slices.Equal(x.Post.At(int32(id)), rows) {
			t.Errorf("%s: key %q is held by rows %v, want %v", label, k, x.Post.At(int32(id)), rows)
		}
		if self, ok := x.JoinID(x, int32(id)); !ok || self != int32(id) {
			t.Errorf("%s: id %d joins id %d of its own column (found %v)", label, id, self, ok)
		}
	}
	if !slices.Equal(x.NullRows(), nulls) {
		t.Errorf("%s: NULL rows %v, want %v", label, x.NullRows(), nulls)
	}
	var variants []int32
	for row, v := range vals {
		want := int32(len(order))
		if !v.IsNull() {
			want = idOf[v.Key()]
			// -0 is not identical to 0: a row holding it beside a first 0 is
			// a variant.
			if !identical(v, x.Vals[want]) {
				variants = append(variants, int32(row))
			}
		}
		if x.RowID[row] != want {
			t.Fatalf("%s: row %d has id %d, want %d", label, row, x.RowID[row], want)
		}
	}
	if !slices.Equal(x.VariantRows, variants) || len(x.VariantVals) != len(variants) {
		t.Fatalf("%s: variant rows %v with %d values, want %v", label, x.VariantRows, len(x.VariantVals), variants)
	}
	for i, row := range variants {
		if !identical(x.VariantVals[i], vals[row]) {
			t.Errorf("%s: variant row %d holds %v, want %v", label, row, x.VariantVals[i], vals[row])
		}
	}
	viewed := 0
	for _, v := range x.Vals {
		if f, ok := v.Float(); ok && !math.IsNaN(f) {
			viewed++
		}
	}
	if len(x.Views) != viewed || len(x.ByView) != viewed {
		t.Fatalf("%s: %d views over %d ids, want %d", label, len(x.Views), len(x.ByView), viewed)
	}
	seen := make(map[int32]bool)
	for i, id := range x.ByView {
		f, ok := x.Vals[id].Float()
		if !ok || math.IsNaN(f) || f != x.Views[i] || seen[id] || (i > 0 && x.Views[i-1] > f) {
			t.Errorf("%s: view %d is %v for id %d (%v), after %v", label, i, x.Views[i], id, x.Vals[id], x.Views[max(i, 1)-1])
		}
		seen[id] = true
	}
}

// TestColumnIndexMatchesBruteForce: on every column of the bundled
// databases, the corner-case chain, the sampled join and the numeric-view
// menagerie, the key dictionary is the grouping of the loaded cells by
// Value.Key — ids in first-seen order, ascending postings, the NULL list,
// variants exactly the rows not identical to their id's first value, views
// sorted and NaN-free — and the statistics carry its counts.
func TestColumnIndexMatchesBruteForce(t *testing.T) {
	for _, c := range frozenColumns(t) {
		checkIndexAgainstRows(t, c.label, c.x, c.vals)
		st := c.stats
		if st.RowCount != c.x.NumRows() || st.NullCount != len(c.x.NullRows()) || st.Distinct != len(c.x.Vals) {
			t.Errorf("%s: statistics count %d rows, %d nulls, %d distinct; the index %d, %d, %d",
				c.label, st.RowCount, st.NullCount, st.Distinct, c.x.NumRows(), len(c.x.NullRows()), len(c.x.Vals))
		}
		// The statistics ride only the rows that introduce an id or are
		// variants; a collector fed every row must agree.
		col := schema.NewStatsCollector(st.Ref, st.Type)
		for _, v := range c.vals {
			col.Add(v)
		}
		want := col.Stats(len(c.x.Vals))
		if !identical(st.Min, want.Min) || !identical(st.Max, want.Max) || st.MaxLength != want.MaxLength ||
			st.RowCount != want.RowCount || st.NullCount != want.NullCount {
			t.Errorf("%s: statistics %v, a collector fed every row %v", c.label, st, want)
		}
	}
}

// TestColumnIndexKeywordsAndValues: on every column of the bundled
// databases, the corner-case chain, the sampled join and the numeric-view
// menagerie, the key dictionary's keyword lookup is the brute-force one —
// each keyword in {Normalize(v.String()) : v non-NULL} but the empty
// rendering and those that parse as a number finds exactly the ids of the
// rows that render it, so its rows cover them; the
// views hold every row's id under a rendering that parses as a number
// other than NaN — and the value it stores for every row is the row's own,
// as loaded.
func TestColumnIndexKeywordsAndValues(t *testing.T) {
	variants := 0
	for _, c := range frozenColumns(t) {
		label, x, vals := c.label, c.x, c.vals
		ids := make(map[string][]int32) // keyword -> ids of the rows rendering it
		for row, v := range vals {
			if got := x.Value(int32(row)); !identical(got, v) {
				t.Errorf("%s: row %d stores %v (%s), want %v (%s)", label, row, got, got.Kind(), v, v.Kind())
			}
			if v.IsNull() {
				continue
			}
			kw, id := value.Normalize(v.String()), x.RowID[row]
			if f, numeric := value.NewText(kw).Float(); numeric {
				if !math.IsNaN(f) && !slices.Contains(x.ViewRange(f, f), id) {
					t.Errorf("%s: row %d renders %q, which the views do not hold", label, row, kw)
				}
				continue
			}
			if kw != "" {
				ids[kw] = append(ids[kw], id)
			}
		}
		for kw, want := range ids {
			slices.Sort(want)
			want = slices.Compact(want)
			var got []int32
			x.KeywordIDs(kw, func(id int32) bool { got = append(got, id); return true })
			if slices.Sort(got); !slices.Equal(got, want) {
				t.Errorf("%s: keyword %q lists ids %v, want %v", label, kw, got, want)
			}
		}
		variants += len(x.VariantRows)
	}
	if variants == 0 {
		t.Fatal("no column has variant rows: the check does not reach them")
	}
}
