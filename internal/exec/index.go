package exec

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"prism/internal/rowset"
	"prism/internal/schema"
	"prism/internal/value"
)

// CSR is a sequence of int32 lists stored flat, list i at
// Items[Off[i]:Off[i+1]]: nothing in it for the garbage collector to trace.
type CSR struct{ Off, Items []int32 }

// At returns list i.
func (c CSR) At(i int32) []int32 { return c.Items[c.Off[i]:c.Off[i+1]] }

// GroupCSR groups vals (nil: the positions 0, 1, 2, …) into n lists by keys,
// each in input order, with a counting sort: exact-size allocations only.
func GroupCSR(n int, keys, vals []int32) CSR {
	c := CSR{Off: make([]int32, n+1), Items: make([]int32, len(keys))}
	for _, k := range keys {
		c.Off[k+1]++
	}
	for i := 0; i < n; i++ {
		c.Off[i+1] += c.Off[i]
	}
	next := append([]int32(nil), c.Off[:n]...)
	for i, k := range keys {
		v := int32(i)
		if vals != nil {
			v = vals[i]
		}
		c.Items[next[k]] = v
		next[k]++
	}
	return c
}

// ColumnIndex is the key dictionary of one column: how its values are keyed
// (Value.Key, under which values that Compare equal collide), which rows
// hold each key, and how each value renders as a keyword. It is the one
// place set-up renders a key per cell; the column statistics, the Bayesian
// model, related-column search and the columnar executor — which stores no
// other copy of the column — all read it. Value ids are dense and handed out
// in first-seen row order, so an index is a function of the column's rows
// alone.
// It is immutable once built and describes the rows it was built from: a
// Source drops its indexes when its data changes, and whoever still holds one
// keeps answering about the old rows.
type ColumnIndex struct {
	IDs  map[string]int32 // Value.Key() -> value id
	Vals []value.Value    // value id -> the first value seen with that key
	Keys []string         // value id -> that key
	// RowID is the value id of every row, len(Vals) for a NULL row.
	RowID []int32
	// Post.At(id) are the rows holding value id, ascending; the last list,
	// Post.At(len(Vals)), are the NULL rows.
	Post CSR
	// VariantRows hold a value that shares its key with Vals[id] without
	// being identical to it ("Lake"/"lake", "3"/"3.0"): a predicate need not
	// agree across those, so whoever evaluates one per value id evaluates
	// these rows one by one (VariantVals), ascending.
	VariantRows []int32
	VariantVals []value.Value
	// ByView lists the value ids whose value has a numeric view (Value.Float)
	// that is not NaN, ascending by it; Views[i] is the view of
	// Vals[ByView[i]], and of every row holding that id: values that share a
	// key share their view. The views are taken from the values themselves,
	// whatever their kind: numeric-looking text has one.
	ByView []int32
	Views  []float64
	// Text maps the keyword a value or variant renders as
	// (value.Normalize(v.String()), never empty) to the entry of TextIDs that
	// lists, ascending, the value ids holding such a value or variant. The
	// rows of those ids hold every row that renders the keyword, and may hold
	// rows of the same id that render otherwise ("3" beside a variant "3.0"):
	// whoever seeds candidates from it re-checks them.
	Text    map[string]int32
	TextIDs CSR
	// plain is len(Vals) when the column has no variant rows, 0 when it
	// has: a row whose id is below it stores Vals[id] (Value).
	plain int
}

// NewColumnIndex indexes column ci of rows in one pass, and returns the
// column's statistics with it: minimum, maximum and maximum length ride the
// pass, the counts are the index's own.
func NewColumnIndex(ref schema.ColumnRef, typ value.Kind, rows []value.Tuple, ci int) (*ColumnIndex, schema.Stats) {
	x := &ColumnIndex{IDs: make(map[string]int32), RowID: make([]int32, len(rows))}
	stats := schema.NewStatsCollector(ref, typ)
	for row, tuple := range rows {
		v := tuple[ci]
		stats.Add(v)
		if v.IsNull() {
			x.RowID[row] = -1
			continue
		}
		key := v.Key()
		id, seen := x.IDs[key]
		if !seen {
			id = int32(len(x.Vals))
			x.IDs[key] = id
			x.Vals, x.Keys = append(x.Vals, v), append(x.Keys, key)
		} else if !v.EqualStrict(x.Vals[id]) {
			x.VariantRows = append(x.VariantRows, int32(row))
			x.VariantVals = append(x.VariantVals, v)
		}
		x.RowID[row] = id
	}
	for row, id := range x.RowID {
		if id < 0 {
			x.RowID[row] = int32(len(x.Vals))
		}
	}
	x.Post = GroupCSR(len(x.Vals)+1, x.RowID, nil)
	if len(x.VariantRows) == 0 {
		x.plain = len(x.Vals)
	}
	x.sortViews()
	x.indexText()
	return x, stats.Stats(len(x.Vals))
}

// indexText fills Text and TextIDs with one Normalize per value id and per
// variant row. A keyword that is the tail of its id's key (the key of a
// number or of trimmed text is a two-byte class prefix and the rendering)
// shares the key's bytes.
func (x *ColumnIndex) indexText() {
	x.Text = make(map[string]int32, len(x.Vals))
	var pairs [][2]int32 // (entry, id)
	add := func(v value.Value, id int32) {
		kw := value.Normalize(v.String())
		if kw == "" {
			return
		}
		if k := x.Keys[id]; len(k) > 2 && k[2:] == kw {
			kw = k[2:]
		}
		entry, seen := x.Text[kw]
		if !seen {
			entry = int32(len(x.Text))
			x.Text[kw] = entry
		}
		pairs = append(pairs, [2]int32{entry, id})
	}
	for id, v := range x.Vals {
		add(v, int32(id))
	}
	if len(x.VariantRows) > 0 {
		for i, row := range x.VariantRows {
			add(x.VariantVals[i], x.RowID[row])
		}
		// A variant mostly renders as its id's value does ("Lake"/"lake").
		slices.SortFunc(pairs, func(a, b [2]int32) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
		pairs = slices.Compact(pairs)
	}
	entries, ids := make([]int32, len(pairs)), make([]int32, len(pairs))
	for i, p := range pairs {
		entries[i], ids[i] = p[0], p[1]
	}
	x.TextIDs = GroupCSR(len(x.Text), entries, ids)
}

// sortViews fills ByView and Views. The sort runs on a scratch slice of
// pairs; the two slices the index keeps are sized exactly.
func (x *ColumnIndex) sortViews() {
	type viewed struct {
		view float64
		id   int32
	}
	var pairs []viewed
	for id, v := range x.Vals {
		if f, ok := v.Float(); ok && !math.IsNaN(f) {
			pairs = append(pairs, viewed{f, int32(id)})
		}
	}
	if len(pairs) == 0 {
		return
	}
	slices.SortFunc(pairs, func(a, b viewed) int { return cmp.Compare(a.view, b.view) })
	x.ByView, x.Views = make([]int32, len(pairs)), make([]float64, len(pairs))
	for i, p := range pairs {
		x.ByView[i], x.Views[i] = p.id, p.view
	}
}

// NumRows returns the number of rows indexed.
func (x *ColumnIndex) NumRows() int { return len(x.RowID) }

// NullRows returns the ascending NULL rows.
func (x *ColumnIndex) NullRows() []int32 { return x.Post.At(int32(len(x.Vals))) }

// RowsOf returns the ascending rows whose value has the key, if any.
func (x *ColumnIndex) RowsOf(key string) []int32 {
	id, ok := x.IDs[key]
	if !ok {
		return nil
	}
	return x.Post.At(id)
}

// IDsOfKeyword returns the value ids some value or variant of which renders
// as the normalised keyword kw (Text), ascending.
func (x *ColumnIndex) IDsOfKeyword(kw string) []int32 {
	entry, ok := x.Text[kw]
	if !ok {
		return nil
	}
	return x.TextIDs.At(entry)
}

// Value returns the value stored in row: NULL for a NULL row, the row's own
// value for a variant row, and the value of its id otherwise. It is on the
// executor's per-tuple path and small enough to inline there: one compare
// reads a non-NULL row of a column without variants.
func (x *ColumnIndex) Value(row int32) value.Value {
	if id := x.RowID[row]; int(id) < x.plain {
		return x.Vals[id]
	}
	return x.storedValue(row)
}

func (x *ColumnIndex) storedValue(row int32) value.Value {
	if v, ok := x.Variant(row); ok {
		return v
	}
	if id := x.RowID[row]; int(id) < len(x.Vals) {
		return x.Vals[id]
	}
	return value.NullValue
}

// Variant returns row's own value if it is a variant row (VariantRows). It
// inlines to one compare on a column without variants.
func (x *ColumnIndex) Variant(row int32) (value.Value, bool) {
	if x.VariantRows == nil {
		return value.Value{}, false
	}
	return x.variant(row)
}

func (x *ColumnIndex) variant(row int32) (value.Value, bool) {
	i, ok := slices.BinarySearch(x.VariantRows, row)
	if !ok {
		return value.NullValue, false
	}
	return x.VariantVals[i], true
}

// ViewRange returns the stretch of ByView whose numeric views lie in
// [lo, hi] — a pure numeric range holds for exactly those values
// (lang.ExactRangeBounds), a numeric keyword for those in [f, f]
// (Value.MatchesKeyword). An interval with lo > hi holds nothing.
func (x *ColumnIndex) ViewRange(lo, hi float64) []int32 {
	from := sort.SearchFloat64s(x.Views, lo)
	to := sort.Search(len(x.Views), func(i int) bool { return x.Views[i] > hi })
	return x.ByView[from:max(from, to)]
}

// Select adds to rows the rows whose value satisfies cp — the rows of the
// predicate, as a set over the column — without reading a row it does not
// keep. A BoundsExact predicate holds for exactly the values whose numeric
// view lies in its bounds, so its rows are the postings of ViewRange: values
// that share a key share their view, and NULL has none. Any other predicate
// is evaluated once per value id, once per variant row (VariantRows: it need
// not agree across values that share a key) and, if the column holds NULL,
// once for NULL. Rows already in the bitmap stay, except variant rows, which
// their own verdict decides. Select polls interrupt (nil never fires) once
// per value id it takes or evaluates and once per variant row, and reports a
// hit with the rows it has added so far.
func (x *ColumnIndex) Select(cp *ColumnPredicate, rows *rowset.Bitmap, interrupt *InterruptChecker) (aborted bool) {
	if b := cp.Bounds; cp.BoundsExact && b != nil && b.HasLo && b.HasHi {
		for _, id := range x.ViewRange(b.Lo, b.Hi) {
			if interrupt.Hit() {
				return true
			}
			rows.AddSorted(x.Post.At(id))
		}
		return false
	}
	for id, v := range x.Vals {
		if interrupt.Hit() {
			return true
		}
		if cp.Pred(v) {
			rows.AddSorted(x.Post.At(int32(id)))
		}
	}
	for i, row := range x.VariantRows {
		if interrupt.Hit() {
			return true
		}
		rows.Remove(row)
		if cp.Pred(x.VariantVals[i]) {
			rows.Add(row)
		}
	}
	if nulls := x.NullRows(); len(nulls) > 0 && cp.Pred(value.NullValue) {
		rows.AddSorted(nulls)
	}
	return false
}

// NumericKeyword returns the number a keyword is compared as, if
// Value.MatchesKeyword compares it numerically: the numeric view of the
// keyword as a text. NaN is not a numeric keyword: it equals no stored view.
func NumericKeyword(kw string) (float64, bool) {
	f, ok := value.NewText(kw).Float()
	return f, ok && !math.IsNaN(f)
}
