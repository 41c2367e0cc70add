package exec

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"

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
// (by Value.Key's classes, under which values that Compare equal collide),
// which rows hold each key, and how each value renders as a keyword. It keys
// a cell without rendering it: a number, date or time by its class and 64
// bits (Value.NumKey), text by its folded bytes, which are the text itself
// when it is lower-case already. The column statistics, the Bayesian model,
// related-column search and the columnar executor — which stores no other
// copy of the column — all read it. Value ids are dense and handed out in
// first-seen row order, so an index is a function of the column's rows alone.
// It is immutable once built, and it stores the column: Value(row) returns
// every cell as it was loaded, and a Source whose data is its indexes (a
// frozen mem.Database) keeps no other copy.
type ColumnIndex struct {
	Vals []value.Value // value id -> the first value seen with that key
	// RowID is the value id of every row, len(Vals) for a NULL row.
	RowID []int32
	// Post.At(id) are the rows holding value id, ascending; the last list,
	// Post.At(len(Vals)), are the NULL rows.
	Post CSR
	// VariantRows hold a value that shares its key with Vals[id] without
	// being identical to it ("Lake"/"lake", "3"/"3.0", -0/0): a predicate
	// need not agree across those, so whoever evaluates one per value id
	// evaluates these rows one by one (VariantVals), ascending.
	VariantRows []int32
	VariantVals []value.Value
	// ByView lists the value ids whose value has a numeric view (Value.Float)
	// that is not NaN, ascending by it; Views[i] is the view of
	// Vals[ByView[i]], and of every row holding that id: values that share a
	// key share their view. The views are taken from the values themselves,
	// whatever their kind: numeric-looking text has one.
	ByView []int32
	Views  []float64
	// nums[c] maps the bits of a key of class c (Value.NumKey) to its value
	// id, texts the folded text of a key of value.ClassText. texts is also
	// where a text keyword is looked up (KeywordIDs): the keyword a value
	// renders as, value.Normalize(v.String()), is its folded text unless
	// it is one of respelled's.
	nums  [value.ClassText]map[uint64]int32
	texts map[string]int32
	// respelled lists, sorted by keyword, the value ids whose keyword is not
	// their folded text: every date and time (a rendering such as year
	// 12000's "12000-01-01" does not parse back), and text with blanks at
	// its edges. Text of blanks alone renders no keyword and is not listed.
	respelled []keywordID
	// keys[id] is the key of value id: its class and bits, or for
	// value.ClassText its position in folded, the folded texts in id order.
	keys   []dictKey
	folded []string
	// plain is len(Vals) when the column has no variant rows, 0 when it
	// has: a row whose id is below it stores Vals[id] (Value).
	plain int
}

// dictKey is the key of one value id (ColumnIndex.keys).
type dictKey struct {
	class value.KeyClass
	bits  uint64
}

// keywordID is one entry of ColumnIndex.respelled.
type keywordID struct {
	kw string
	id int32
}

// NewColumnIndex indexes column ci of rows in one pass, and returns the
// column's statistics with it: the counts are the index's own, and minimum,
// maximum and maximum length ride the pass over the rows that introduce a
// value id or are variant rows — every other row is identical to a value
// the statistics have had.
func NewColumnIndex(ref schema.ColumnRef, typ value.Kind, rows []value.Tuple, ci int) (*ColumnIndex, schema.Stats) {
	x := &ColumnIndex{RowID: make([]int32, len(rows)), texts: make(map[string]int32)}
	stats := schema.NewStatsCollector(ref, typ)
	var (
		first []int32 // value id -> the row that introduced it
		fold  []byte  // scratch: the folded text of a cell
	)
	for row, tuple := range rows {
		v := tuple[ci]
		if v.IsNull() {
			x.RowID[row] = -1
			continue
		}
		id, seen := x.intern(v, &fold)
		x.RowID[row] = id
		if seen && identical(v, rows[first[id]][ci]) {
			continue
		}
		if seen {
			x.VariantRows = append(x.VariantRows, int32(row))
			x.VariantVals = append(x.VariantVals, v)
		} else {
			first = append(first, int32(row))
		}
		stats.Add(v)
	}
	x.Vals = make([]value.Value, len(first))
	for id, row := range first {
		x.Vals[id] = rows[row][ci]
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
	x.indexRespelled()
	// intern grew keys by append: keep it at its exact length (slices.Clone
	// would round the capacity up to an allocation size). folded is filled
	// from texts here, at its length, rather than grown with keys.
	x.keys = append(make([]dictKey, 0, len(x.keys)), x.keys...)
	x.folded = make([]string, len(x.texts))
	for text, id := range x.texts {
		x.folded[x.keys[id].bits] = text
	}
	st := stats.Stats(len(x.Vals))
	st.RowCount, st.NullCount = x.NumRows(), len(x.NullRows())
	return x, st
}

// identical reports whether v is the very cell w is: two decimals of the
// same bits (so -0 is not 0, and a NaN is the NaN it copies), else
// EqualStrict. A row not identical to its id's first value is a variant
// row, so Value returns every cell as it was loaded.
func identical(v, w value.Value) bool {
	if v.Kind() == value.Decimal && w.Kind() == value.Decimal {
		return math.Float64bits(v.Decimal()) == math.Float64bits(w.Decimal())
	}
	return v.EqualStrict(w)
}

// intern returns the value id of v's key, handing out the next one to a key
// not seen before. fold is scratch for the folded text of v.
func (x *ColumnIndex) intern(v value.Value, fold *[]byte) (id int32, seen bool) {
	next := int32(len(x.keys))
	class, bits := v.NumKey()
	if class != value.ClassText {
		m := x.nums[class]
		if m == nil {
			m = make(map[uint64]int32)
			x.nums[class] = m
		}
		if id, seen = m[bits]; !seen {
			id, m[bits] = next, next
			x.keys = append(x.keys, dictKey{class, bits})
		}
		return id, seen
	}
	s := v.Text()
	*fold = value.AppendFold((*fold)[:0], s)
	if id, seen = x.texts[string(*fold)]; !seen {
		key := s
		if string(*fold) != s {
			key = string(*fold)
		}
		pos := uint64(len(x.texts))
		id, x.texts[key] = next, next
		x.keys = append(x.keys, dictKey{class, pos})
	}
	return id, seen
}

// indexRespelled fills respelled. A variant row needs no entry of its own:
// text that shares a key with its id's value has the same folded form, so
// the same keyword, and a date or a time the same rendering.
func (x *ColumnIndex) indexRespelled() {
	for id, v := range x.Vals {
		switch v.Kind() {
		case value.Int, value.Decimal:
			continue
		case value.Text:
			if s := v.Text(); x.keys[id].class != value.ClassText || strings.TrimSpace(s) == s {
				continue
			}
		}
		if kw := value.Normalize(v.String()); kw != "" {
			x.respelled = append(x.respelled, keywordID{kw, int32(id)})
		}
	}
	slices.SortStableFunc(x.respelled, func(a, b keywordID) int { return strings.Compare(a.kw, b.kw) })
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

// JoinID returns the value id of x whose key is that of value id of probe:
// the id a row holding id joins. It renders, folds and parses nothing.
func (x *ColumnIndex) JoinID(probe *ColumnIndex, id int32) (int32, bool) {
	k := probe.keys[id]
	if k.class == value.ClassText {
		to, ok := x.texts[probe.folded[k.bits]]
		return to, ok
	}
	to, ok := x.nums[k.class][k.bits]
	return to, ok
}

// KeywordIDs calls yield, until it returns false, with value ids whose rows
// hold every row whose value matches keyword kw (Value.MatchesKeyword): for
// a keyword that parses as a number — its numeric view as a text, which
// MatchesKeyword compares it by — the ids whose numeric view equals it (none
// for NaN); for any other, the id whose folded text is its normalised form
// and the ids respelled lists under that form. A keyword of blanks alone has
// none. An id may hold values that do not match: Select evaluates the
// predicate on each. A keyword already lower-case costs no allocation.
func (x *ColumnIndex) KeywordIDs(kw string, yield func(id int32) bool) {
	if f, ok := value.NewText(kw).Float(); ok {
		for _, id := range x.ViewRange(f, f) {
			if !yield(id) {
				return
			}
		}
		return
	}
	kw = value.Normalize(kw)
	if kw == "" {
		return
	}
	if id, ok := x.texts[kw]; ok && !yield(id) {
		return
	}
	i, _ := slices.BinarySearchFunc(x.respelled, kw, func(e keywordID, kw string) int { return strings.Compare(e.kw, kw) })
	for ; i < len(x.respelled) && x.respelled[i].kw == kw; i++ {
		if !yield(x.respelled[i].id) {
			return
		}
	}
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
// (Value.MatchesKeyword). An interval with lo > hi, or a NaN bound, holds
// nothing.
func (x *ColumnIndex) ViewRange(lo, hi float64) []int32 {
	from := sort.SearchFloat64s(x.Views, lo)
	to := sort.Search(len(x.Views), func(i int) bool { return x.Views[i] > hi })
	return x.ByView[from:max(from, to)]
}

// Select adds to rows the rows whose value satisfies cp — the rows of the
// predicate, as a set over the column — without reading a row it does not
// keep. It is the one function that computes the rows of a cell: the
// executor's selections and the failure estimator's match sets are its
// answers. A BoundsExact predicate holds for exactly the values whose
// numeric view lies in its bounds, so its rows are the postings of
// ViewRange: values that share a key share their view, and NULL has none.
// Any other predicate is evaluated once per value id — only the ids
// KeywordIDs lists for its keywords when it has some, which hold every row
// it can keep (ColumnPredicate.Keywords) — once per variant row
// (VariantRows: it need not agree across values that share a key) and, if
// the column holds NULL, once for NULL. Rows already in the bitmap stay,
// except variant rows, which their own verdict decides. Select polls
// interrupt (nil never fires) once per value id it takes or evaluates and
// once per variant row, and reports a hit with the rows it has added so far.
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
	if len(cp.Keywords) > 0 {
		for _, kw := range cp.Keywords {
			x.KeywordIDs(kw, func(id int32) bool {
				if aborted = interrupt.Hit(); !aborted && cp.Pred(x.Vals[id]) {
					rows.AddSorted(x.Post.At(id))
				}
				return !aborted
			})
			if aborted {
				return true
			}
		}
	} else {
		for id, v := range x.Vals {
			if interrupt.Hit() {
				return true
			}
			if cp.Pred(v) {
				rows.AddSorted(x.Post.At(int32(id)))
			}
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
