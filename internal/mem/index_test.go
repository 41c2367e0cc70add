package mem_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"prism/internal/difftest"
	"prism/internal/exec"
	"prism/internal/lang"
	"prism/internal/mem"
	"prism/internal/rowset"
	"prism/internal/schema"
	"prism/internal/value"
)

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
		for _, st := range db.AllStats() {
			ref := st.Ref
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
	for _, st := range db.AllStats() {
		x, err := db.ColumnIndex(st.Ref)
		if err != nil {
			t.Fatal(err)
		}
		out[st.Ref] = x
	}
	return out
}

// TestColumnIndexAfterRestore: a snapshot carries no dictionary; the
// database ReadSnapshot returns is frozen into the dictionaries the writer
// holds.
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
		if !frozen(restored) {
			t.Fatalf("%s: the restored database is not frozen", name)
		}
		got, want := allIndexes(t, restored), allIndexes(t, db)
		if len(got) == 0 || len(got) != len(want) {
			t.Fatalf("%s: %d columns indexed, want %d", name, len(got), len(want))
		}
		for ref, x := range got {
			if !reflect.DeepEqual(x, want[ref]) {
				t.Errorf("%s: restored dictionary of %s differs from the writer's", name, ref)
			}
		}
	}
}

// TestSnapshotKeepsEveryCell: a snapshot reads every cell off the key
// dictionaries, and the database it restores holds, bit for bit, the cells
// loaded before the freeze — variant rows ("ABC"/"abc", "3"/"3.0"), NaN and
// -0 beside 0 included.
func TestSnapshotKeepsEveryCell(t *testing.T) {
	for _, db := range []*mem.Database{difftest.Quirks(t), difftest.BigJoin(t), difftest.Ranges(t)} {
		loaded := make(map[string][]value.Tuple)
		for _, table := range db.Schema().Tables() {
			loaded[table.Name], _ = db.SampleRows(table.Name, 0)
		}
		var snap bytes.Buffer
		if err := db.WriteSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		restored, err := mem.ReadSnapshot(&snap)
		if err != nil {
			t.Fatal(err)
		}
		for table, want := range loaded {
			got, err := restored.SampleRows(table, 0)
			if err != nil || len(got) != len(want) {
				t.Fatalf("%s %s: %d rows restored, want %d (%v)", db.Name, table, len(got), len(want), err)
			}
			for row := range want {
				for ci, v := range want[row] {
					if w := got[row][ci]; w.Kind() != v.Kind() || w.String() != v.String() ||
						v.Kind() == value.Decimal && math.Float64bits(w.Decimal()) != math.Float64bits(v.Decimal()) {
						t.Errorf("%s %s row %d column %d: %v (%s) restored, %v (%s) loaded", db.Name, table, row, ci, w, w.Kind(), v, v.Kind())
					}
				}
			}
		}
	}
}

// TestColumnHasKeywordCoversMatchesKeyword: related-column search reports a
// keyword exactly when some value of the column matches it. On every column
// of the bundled databases, the corner-case chain and the numeric-view
// menagerie (NaN decimals, "nan" text), the keywords are every non-null
// value's own rendering, upper-cased, and a battery of spellings of its
// numeric view — integer, one decimal, exponent, a leading zero,
// surrounding blanks — plus a few that match nothing.
func TestColumnHasKeywordCoversMatchesKeyword(t *testing.T) {
	dbs := difftest.Databases(t)
	for _, db := range []*mem.Database{difftest.Quirks(t), difftest.Ranges(t)} {
		db.Analyze()
		dbs[db.Name] = db
	}
	for name, db := range dbs {
		reported, refused := 0, 0
		for _, st := range db.AllStats() {
			ref := st.Ref
			vals, err := db.ColumnValues(ref)
			if err != nil {
				t.Fatal(err)
			}
			keywords := map[string]value.Value{"NaN": value.NullValue, "zzz": value.NullValue, " ": value.NullValue}
			for _, v := range vals {
				if v.IsNull() {
					continue
				}
				keywords[v.String()], keywords[strings.ToUpper(v.String())] = v, v
				if f, ok := v.Float(); ok {
					for _, kw := range []string{fmt.Sprintf("%.1f", f), fmt.Sprintf("%e", f), fmt.Sprintf("0%v", f), fmt.Sprintf("  %v ", f)} {
						keywords[kw] = v
					}
					if f == math.Trunc(f) && math.Abs(f) < 1e15 {
						keywords[fmt.Sprintf("%d", int64(f))] = v
					}
				}
			}
			for kw, from := range keywords {
				// The value a keyword was spelt from mostly matches it; the
				// whole column is searched only when it does not.
				matched := from.MatchesKeyword(kw) || slices.ContainsFunc(vals, func(v value.Value) bool { return v.MatchesKeyword(kw) })
				if got := db.ColumnHasKeyword(ref, kw); got != matched {
					t.Errorf("%s %s: ColumnHasKeyword(%q) = %v, but some value matches it: %v", name, ref, kw, got, matched)
				}
				if matched {
					reported++
				} else {
					refused++
				}
			}
		}
		if reported == 0 || refused == 0 {
			t.Errorf("%s: %d keywords reported, %d refused; the check needs both", name, reported, refused)
		}
	}
}

// frozen reports whether db is analysed: whether it refuses writes.
func frozen(db *mem.Database) bool {
	return errors.Is(db.Insert("", nil), mem.ErrFrozen)
}
