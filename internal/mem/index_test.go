package mem_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"prism/internal/bayes"
	"prism/internal/colexec"
	"prism/internal/difftest"
	"prism/internal/exec"
	"prism/internal/lang"
	"prism/internal/mem"
	"prism/internal/rowset"
	"prism/internal/schema"
	"prism/internal/value"
)

// identical is EqualStrict, with a NaN decimal identical to itself.
func identical(a, b value.Value) bool {
	return a.EqualStrict(b) || a.Kind() == value.Decimal && b.Kind() == value.Decimal && math.IsNaN(a.Decimal()) && math.IsNaN(b.Decimal())
}

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
	if x.NumRows() != len(vals) || len(x.Vals) != len(order) || len(x.Keys) != len(order) || len(x.IDs) != len(order) {
		t.Fatalf("%s: %d rows, %d values, %d keys, %d ids; want %d rows and %d keys",
			label, x.NumRows(), len(x.Vals), len(x.Keys), len(x.IDs), len(vals), len(order))
	}
	for id, k := range order {
		rows := groups[k]
		if x.Keys[id] != k || x.IDs[k] != int32(id) {
			t.Errorf("%s: id %d is key %q (IDs says %d), want %q", label, id, x.Keys[id], x.IDs[k], k)
		}
		if !identical(x.Vals[id], vals[rows[0]]) {
			t.Errorf("%s: id %d holds %v, want the first value seen, %v", label, id, x.Vals[id], vals[rows[0]])
		}
		if !slices.Equal(x.Post.At(int32(id)), rows) || !slices.Equal(x.RowsOf(k), rows) {
			t.Errorf("%s: key %q is held by rows %v, want %v", label, k, x.Post.At(int32(id)), rows)
		}
	}
	if !slices.Equal(x.NullRows(), nulls) {
		t.Errorf("%s: NULL rows %v, want %v", label, x.NullRows(), nulls)
	}
	var variants []int32
	for row, v := range vals {
		want := int32(len(order))
		if !v.IsNull() {
			want = x.IDs[v.Key()]
			// NaN is not EqualStrict to itself: every NaN row but the one
			// that introduced the id is a variant.
			if !v.EqualStrict(x.Vals[want]) && int32(row) != groups[v.Key()][0] {
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
// menagerie, the key dictionary is the grouping of the rows by Value.Key —
// ids in first-seen order, ascending postings, the NULL list, variants
// exactly the rows not identical to their id's first value, views sorted and
// NaN-free — and the statistics carry its counts.
func TestColumnIndexMatchesBruteForce(t *testing.T) {
	dbs := difftest.Databases(t)
	for _, db := range []*mem.Database{difftest.Quirks(t), difftest.BigJoin(t), difftest.Ranges(t)} {
		dbs[db.Name] = db
	}
	for name, db := range dbs {
		db.Analyze()
		for _, ref := range db.Schema().AllColumns() {
			label := name + " " + ref.String()
			x, err := db.ColumnIndex(ref)
			if err != nil {
				t.Fatal(err)
			}
			vals, err := db.ColumnValues(ref)
			if err != nil {
				t.Fatal(err)
			}
			checkIndexAgainstRows(t, label, x, vals)
			st, _ := db.Stats(ref)
			if st.RowCount != x.NumRows() || st.NullCount != len(x.NullRows()) || st.Distinct != len(x.Vals) {
				t.Errorf("%s: statistics count %d rows, %d nulls, %d distinct; the index %d, %d, %d",
					label, st.RowCount, st.NullCount, st.Distinct, x.NumRows(), len(x.NullRows()), len(x.Vals))
			}
		}
	}
}

// TestColumnIndexKeywordsAndValues: on every column of the bundled
// databases, the corner-case chain, the sampled join and the numeric-view
// menagerie, the key dictionary's keyword table is the brute-force one —
// its keywords are {Normalize(v.String()) : v non-NULL} (the empty
// rendering excepted), each listing, ascending, exactly the ids of the rows
// that render it, so its rows cover them — and the value it stores for
// every row is the row's own. One rendering is left to the numeric views: a
// decimal zero of the other sign than its id's value (-0 beside 0) is no
// variant, since EqualStrict does not tell the two apart, so the table
// lists the id's rendering only; the keyword of the other is a number, and
// the views hold the id under it.
func TestColumnIndexKeywordsAndValues(t *testing.T) {
	dbs := difftest.Databases(t)
	for _, db := range []*mem.Database{difftest.Quirks(t), difftest.BigJoin(t), difftest.Ranges(t)} {
		dbs[db.Name] = db
	}
	variants := 0
	for name, db := range dbs {
		db.Analyze()
		for _, ref := range db.Schema().AllColumns() {
			label := name + " " + ref.String()
			x, err := db.ColumnIndex(ref)
			if err != nil {
				t.Fatal(err)
			}
			vals, err := db.ColumnValues(ref)
			if err != nil {
				t.Fatal(err)
			}
			ids := make(map[string][]int32) // keyword -> ids of the rows rendering it
			for row, v := range vals {
				if got := x.Value(int32(row)); !identical(got, v) {
					t.Errorf("%s: row %d stores %v (%s), want %v (%s)", label, row, got, got.Kind(), v, v.Kind())
				}
				if v.IsNull() {
					continue
				}
				kw, id := value.Normalize(v.String()), x.RowID[row]
				if _, variant := x.Variant(int32(row)); !variant && kw != value.Normalize(x.Vals[id].String()) {
					if f, ok := exec.NumericKeyword(kw); !ok || !slices.Contains(x.ViewRange(f, f), id) {
						t.Errorf("%s: row %d renders %q, which neither the keyword table nor the views hold", label, row, kw)
					}
					continue
				}
				if kw != "" {
					ids[kw] = append(ids[kw], id)
				}
			}
			if len(x.Text) != len(ids) {
				t.Errorf("%s: %d keywords, want %d", label, len(x.Text), len(ids))
			}
			for kw, want := range ids {
				slices.Sort(want)
				want = slices.Compact(want)
				if got := x.IDsOfKeyword(kw); !slices.Equal(got, want) {
					t.Errorf("%s: keyword %q lists ids %v, want %v", label, kw, got, want)
				}
			}
			variants += len(x.VariantRows)
		}
	}
	if variants == 0 {
		t.Fatal("no column has variant rows: the check does not reach them")
	}
}

// selectBattery builds the predicates ColumnIndex.Select is put to on one
// column, around up to eight of its stored values: pure numeric ranges with
// bounds on stored views, between them, the wrong way round and beyond them;
// date and time ranges; orderings, which non-numeric text satisfies from
// above; negations, which accept NULL; disjunctions of ranges; keywords.
func selectBattery(vals []value.Value) []lang.ValueExpr {
	num := func(lo, hi float64) lang.Range { return lang.Range{Lo: value.NewDecimal(lo), Hi: value.NewDecimal(hi)} }
	negZero, inf := math.Copysign(0, -1), math.Inf(1)
	out := []lang.ValueExpr{
		num(negZero, 0), num(0, negZero), num(-inf, inf), num(-math.MaxFloat64, math.MaxFloat64),
		num(1e300, inf), num(inf, inf), num(-inf, -inf),
		lang.Range{Lo: value.NewDateYMD(2019, 6, 1), Hi: value.NewDateYMD(2020, 12, 31)},
		lang.Range{Lo: value.NewTimeHMS(6, 0, 0), Hi: value.NewTimeHMS(18, 30, 0)},
		lang.Compare{Op: lang.OpGe, Const: value.NewInt(0)},
		lang.Compare{Op: lang.OpLt, Const: value.NewText("m")},
		lang.Not{Term: num(0, 10)},
	}
	var sample []value.Value
	for at := 0; at < len(vals); at += max(1, len(vals)/8) {
		if !vals[at].IsNull() {
			sample = append(sample, vals[at])
		}
	}
	for i, a := range sample {
		b := sample[(i+1)%len(sample)]
		out = append(out,
			lang.Keyword{Word: a.String()},
			lang.Compare{Op: lang.OpGe, Const: a},
			lang.Compare{Op: lang.OpLt, Const: b},
			lang.Range{Lo: a, Hi: b},
			lang.Not{Term: lang.Keyword{Word: a.String()}},
		)
		f, fok := a.Float()
		g, gok := b.Float()
		if !fok || !gok || math.IsNaN(f) || math.IsNaN(g) {
			continue
		}
		lo, hi := min(f, g), max(f, g)
		out = append(out,
			num(f, f), lang.Range{Lo: value.NewInt(int64(f)), Hi: value.NewInt(int64(f))},
			num(lo, hi), num(hi, lo-1), num(f-0.25, f), num(f, f+0.25), num(hi+1, hi+1e6),
			lang.Or{Terms: []lang.ValueExpr{num(lo, lo), num(hi, hi+1)}},
			lang.Not{Term: num(lo, hi)},
		)
	}
	return out
}

// TestSelectMatchesBruteForce: on every column of the bundled databases, the
// corner-case chain, the sampled join and the numeric-view menagerie, the
// rows ColumnIndex.Select returns for every predicate of the battery — cast
// as filter.Validator casts a cell, exact bounds for a pure numeric range —
// are, ascending, the rows whose value satisfies the predicate. An exact
// range reads only the sorted views, so it fails here as soon as a variant of
// a value has another view than the value, or NULL has one.
func TestSelectMatchesBruteForce(t *testing.T) {
	dbs := difftest.Databases(t)
	for _, db := range []*mem.Database{difftest.Quirks(t), difftest.BigJoin(t), difftest.Ranges(t)} {
		dbs[db.Name] = db
	}
	exactOnVariants := 0
	for name, db := range dbs {
		db.Analyze()
		for _, ref := range db.Schema().AllColumns() {
			x, err := db.ColumnIndex(ref)
			if err != nil {
				t.Fatal(err)
			}
			vals, err := db.ColumnValues(ref)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range selectBattery(vals) {
				p := exec.ColumnPredicate{Ref: ref, Pred: e.Eval}
				if b, ok := lang.NumericBounds(e); ok {
					p.Bounds = &exec.NumericBounds{Lo: b.Lo, Hi: b.Hi, HasLo: b.HasLo, HasHi: b.HasHi}
					_, p.BoundsExact = lang.ExactRangeBounds(e)
				}
				var want []int32
				for row, v := range vals {
					if e.Eval(v) {
						want = append(want, int32(row))
					}
				}
				rows := rowset.New(len(vals))
				if x.Select(&p, rows, nil) {
					t.Fatalf("%s %s %s: interrupted without an interrupt", name, ref, e)
				}
				if got := rows.AppendTo(nil); !slices.Equal(got, want) {
					t.Errorf("%s %s %s (exact %v): rows %v, want %v", name, ref, e, p.BoundsExact, got, want)
				}
				if p.BoundsExact && len(x.VariantRows) > 0 && len(want) > 0 {
					exactOnVariants++
				}
			}
		}
	}
	if exactOnVariants == 0 {
		t.Fatal("no exact range selected rows of a column with variants: the battery does not reach the case")
	}
}

// allIndexes returns the key dictionary of every column, by column.
func allIndexes(t *testing.T, db *mem.Database) map[schema.ColumnRef]*exec.ColumnIndex {
	t.Helper()
	out := make(map[schema.ColumnRef]*exec.ColumnIndex)
	for _, ref := range db.Schema().AllColumns() {
		x, err := db.ColumnIndex(ref)
		if err != nil {
			t.Fatal(err)
		}
		out[ref] = x
	}
	return out
}

// TestColumnIndexFollowsMutation: an Insert drops the dictionaries and the
// next Analyze builds new ones over the new rows, while the dictionaries
// handed out before — and the model and the executor built on them — keep
// describing the rows they were built from.
func TestColumnIndexFollowsMutation(t *testing.T) {
	db := difftest.Databases(t)["mondial"]
	name := schema.ColumnRef{Table: "Lake", Column: "Name"}
	old, err := db.ColumnIndex(name)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := db.ColumnIndex(name); again != old {
		t.Fatal("two look-ups of an unchanged database returned two dictionaries")
	}
	model := bayes.Train(db)
	ex, err := colexec.New(db)
	if err != nil {
		t.Fatal(err)
	}
	rows := old.NumRows()
	lake, _ := db.Relation("Lake")
	fresh, nowhere := lake.Rows[0].Clone(), value.NewText("Lake Nowhere")
	fresh[lake.Schema.ColumnIndex("Name")] = nowhere
	if err := db.Insert("Lake", fresh); err != nil {
		t.Fatal(err)
	}
	db.Analyze()
	rebuilt, err := db.ColumnIndex(name)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt == old || rebuilt.NumRows() != rows+1 || len(rebuilt.RowsOf(nowhere.Key())) != 1 {
		t.Errorf("after Insert and Analyze the dictionary has %d rows, want a new one with %d", rebuilt.NumRows(), rows+1)
	}
	if old.NumRows() != rows || old.RowsOf(nowhere.Key()) != nil {
		t.Error("the dictionary handed out before the Insert changed")
	}
	isNew := []bayes.ColumnConstraint{{Ref: name, Expr: lang.Keyword{Word: "Lake Nowhere"}}}
	plan := exec.Plan{Tables: []string{"Lake"}, Project: []schema.ColumnRef{name}}
	for _, c := range []struct {
		label string
		model *bayes.Model
		ex    exec.Executor
		want  int
	}{
		{"built before the Insert", model, ex, 0},
		{"built after it", bayes.Train(db), must(colexec.New(db)), 1},
	} {
		if n, ok := c.model.ExactMatchingRows("Lake", isNew); !ok || n != c.want {
			t.Errorf("model %s counts %d rows named Lake Nowhere (known %v), want %d", c.label, n, ok, c.want)
		}
		if n := c.model.RelationSize("Lake"); n != rows+c.want {
			t.Errorf("model %s has %d lakes, want %d", c.label, n, rows+c.want)
		}
		res, err := c.ex.ExecuteWith(plan, exec.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != rows+c.want {
			t.Errorf("executor %s returns %d lakes, want %d", c.label, res.NumRows(), rows+c.want)
		}
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// TestColumnIndexAfterRestore: a snapshot carries no dictionary; the
// restored database builds, when first asked — here by eight goroutines at
// once, which must all be handed the same ones — those the writer holds.
func TestColumnIndexAfterRestore(t *testing.T) {
	for name, db := range difftest.Databases(t) {
		var snap bytes.Buffer
		if err := db.WriteSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		restored, err := mem.ReadSnapshot(&snap)
		if err != nil {
			t.Fatal(err)
		}
		askers := make([]map[schema.ColumnRef]*exec.ColumnIndex, 8)
		var wg sync.WaitGroup
		for i := range askers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				askers[i] = make(map[schema.ColumnRef]*exec.ColumnIndex)
				for _, ref := range restored.Schema().AllColumns() {
					restored.ColumnHasKeyword(ref, "497.0") // the numeric half reads the dictionary too
					askers[i][ref], _ = restored.ColumnIndex(ref)
				}
			}()
		}
		wg.Wait()
		want := allIndexes(t, db)
		for ref, x := range askers[0] {
			if x == nil || !reflect.DeepEqual(x, want[ref]) {
				t.Errorf("%s: restored dictionary of %s differs from the writer's", name, ref)
			}
			for _, other := range askers[1:] {
				if other[ref] != x {
					t.Errorf("%s: two goroutines were handed two dictionaries of %s", name, ref)
				}
			}
		}
		if len(askers[0]) == 0 || len(askers[0]) != len(want) {
			t.Fatalf("%s: %d columns indexed, want %d", name, len(askers[0]), len(want))
		}
	}
}

// TestColumnHasKeywordCoversMatchesKeyword: related-column search must not
// turn down a keyword a value of the column matches. For every non-null value
// of every column of the bundled databases, its own rendering and a battery
// of spellings of its numeric view — integer, one decimal, exponent, a
// leading zero, surrounding blanks — are in the column whenever the value
// matches them.
func TestColumnHasKeywordCoversMatchesKeyword(t *testing.T) {
	for name, db := range difftest.Databases(t) {
		checked := 0
		for _, ref := range db.Schema().AllColumns() {
			vals, err := db.ColumnValues(ref)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vals {
				if v.IsNull() {
					continue
				}
				spellings := []string{v.String()}
				if f, ok := v.Float(); ok {
					spellings = append(spellings, fmt.Sprintf("%.1f", f), fmt.Sprintf("%e", f),
						fmt.Sprintf("0%v", f), fmt.Sprintf("  %v ", f))
					if f == math.Trunc(f) && math.Abs(f) < 1e15 {
						spellings = append(spellings, fmt.Sprintf("%d", int64(f)))
					}
				}
				for _, kw := range spellings {
					if v.MatchesKeyword(kw) {
						checked++
						if !db.ColumnHasKeyword(ref, kw) {
							t.Errorf("%s %s: %v matches keyword %q, which the column is said not to hold", name, ref, v, kw)
						}
					}
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: nothing checked", name)
		}
	}
}
