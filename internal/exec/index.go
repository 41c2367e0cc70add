package exec

import (
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
// bits (Value.NumKey), found by binary search over the ids sorted by key;
// text by its folded bytes, kept once per value id in one string and found
// through a map keyed by substrings of it. The column statistics, the
// Bayesian model, related-column search and the columnar executor — which
// stores no other copy of the column — all read it. Value ids are dense and
// handed out in first-seen row order, so an index is a function of the
// column's rows alone.
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
	// texts maps the folded text of a key of value.ClassText to its value
	// id; its keys are substrings of fold, not one allocation each. It is
	// also where a text keyword is looked up (KeywordIDs): the keyword a
	// value renders as, value.Normalize(v.String()), is its folded text
	// unless it is one of respelled's.
	texts map[string]int32
	// respelled lists, sorted by keyword, the value ids whose keyword is not
	// their folded text: every date and time (a rendering such as year
	// 12000's "12000-01-01" does not parse back), and text with blanks at
	// its edges. Text of blanks alone renders no keyword and is not listed.
	respelled []keywordID
	// keys[id] is the key of value id: its class and bits, or for
	// value.ClassText the offset (high 32 bits) and length (low 32 bits) of
	// its folded text in fold, which holds the folded texts back to back in
	// id order.
	keys []dictKey
	fold string
	// numIDs lists the value ids of every other class, ascending by (class,
	// bits): JoinID finds a number, date or time by binary search over it.
	// That order is exact, so every NaN (keyed by one set of bits) joins
	// every other, and it needs no special case for -0, dates, times or
	// integers past 2^53.
	numIDs []int32
	// plain is len(Vals) when the column has no variant rows, 0 when it
	// has: a row whose id is below it stores Vals[id] (Value).
	plain int
}

// dictKey is the key of one value id (ColumnIndex.keys).
type dictKey struct {
	class value.KeyClass
	bits  uint64
}

// less orders keys by class, then bits, as numIDs is sorted.
func (k dictKey) less(o dictKey) bool {
	return k.class < o.class || k.class == o.class && k.bits < o.bits
}

// builder is what NewColumnIndex keeps only while it builds: the maps from
// a number key to its id, and the folded texts so far, which the texts map
// is keyed by substrings of until the one exact-size copy replaces them.
type builder struct {
	nums    [value.ClassText]map[uint64]int32
	scratch []byte // the folded text of the cell being interned
	text    strings.Builder
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
		b     builder
	)
	for row, tuple := range rows {
		v := tuple[ci]
		if v.IsNull() {
			x.RowID[row] = -1
			continue
		}
		id, seen := x.intern(v, &b)
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
	x.finish(&b)
	st := stats.Stats(len(x.Vals))
	st.RowCount, st.NullCount = x.NumRows(), len(x.NullRows())
	return x, st
}

// finish lays out the lookup structures the index keeps from what intern
// built. intern grew keys by append: it is kept at its exact length
// (slices.Clone would round the capacity up to an allocation size), and so
// are numIDs and fold. The texts map is re-keyed in place: assigning to a
// string key that is there already replaces the key, so each now points
// into fold and the builder's buffers are garbage.
func (x *ColumnIndex) finish(b *builder) {
	x.keys = append(make([]dictKey, 0, len(x.keys)), x.keys...)
	x.sortNumIDs()
	x.fold = strings.Clone(b.text.String())
	for id, k := range x.keys {
		if k.class == value.ClassText {
			x.texts[x.text(k)] = int32(id)
		}
	}
}

// sortNumIDs fills numIDs.
func (x *ColumnIndex) sortNumIDs() {
	n := len(x.keys) - len(x.texts)
	keys := make([]keyed, 0, n)
	for id, k := range x.keys {
		if k.class != value.ClassText {
			keys = append(keys, keyed{k.bits, int32(id), k.class})
		}
	}
	x.numIDs = make([]int32, n)
	for i, k := range sortKeyed(keys) {
		x.numIDs[i] = k.id
	}
}

// keyed is a value id under a key that sortKeyed orders.
type keyed struct {
	bits  uint64
	id    int32
	class value.KeyClass
}

// sortKeyed sorts s by class, then bits, stably, and returns the sorted
// elements, in s or in a scratch slice of its length. It is a
// least-significant-digit radix sort, a byte at a time from the low byte
// of the bits to the class, that skips a byte every element shares: the
// build's comparison sorts cost more than a tenth of it.
func sortKeyed(s []keyed) []keyed {
	if len(s) < 2 {
		return s
	}
	to := make([]keyed, len(s))
	digit := func(e keyed, d int) byte {
		if d == 8 {
			return byte(e.class)
		}
		return byte(e.bits >> (8 * d))
	}
	for d := 0; d <= 8; d++ {
		var next [256]int
		for _, e := range s {
			next[digit(e, d)]++
		}
		if next[digit(s[0], d)] == len(s) {
			continue
		}
		at := 0
		for c, count := range next {
			next[c], at = at, at+count
		}
		for _, e := range s {
			c := digit(e, d)
			to[next[c]] = e
			next[c]++
		}
		s, to = to, s
	}
	return s
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
// not seen before.
func (x *ColumnIndex) intern(v value.Value, b *builder) (id int32, seen bool) {
	next := int32(len(x.keys))
	class, bits := v.NumKey()
	if class != value.ClassText {
		m := b.nums[class]
		if m == nil {
			m = make(map[uint64]int32)
			b.nums[class] = m
		}
		if id, seen = m[bits]; !seen {
			id, m[bits] = next, next
			x.keys = append(x.keys, dictKey{class, bits})
		}
		return id, seen
	}
	b.scratch = value.AppendFold(b.scratch[:0], v.Text())
	if id, seen = x.texts[string(b.scratch)]; !seen {
		off := b.text.Len()
		if uint64(off)+uint64(len(b.scratch)) > math.MaxUint32 {
			panic("exec: a column's folded texts pass 4 GiB")
		}
		// Grow doubles the buffer (a Write alone would grow it by a quarter
		// once it is large). A builder never writes over what it has: the
		// substring stays valid while the builder grows.
		b.text.Grow(len(b.scratch))
		b.text.Write(b.scratch)
		id, x.texts[b.text.String()[off:]] = next, next
		x.keys = append(x.keys, dictKey{class, uint64(off)<<32 | uint64(len(b.scratch))})
	}
	return id, seen
}

// text returns the folded text of a value.ClassText key.
func (x *ColumnIndex) text(k dictKey) string {
	off := k.bits >> 32
	return x.fold[off : off+k.bits&math.MaxUint32]
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

// sortViews fills ByView and Views. The sort runs on scratch slices of
// pairs, each view as bits whose unsigned order is its numeric order; the
// two slices the index keeps are sized exactly.
func (x *ColumnIndex) sortViews() {
	var pairs []keyed
	for id, v := range x.Vals {
		if f, ok := v.Float(); ok && !math.IsNaN(f) {
			b := math.Float64bits(f)
			if b>>63 == 1 {
				b = ^b
			} else {
				b |= 1 << 63
			}
			pairs = append(pairs, keyed{bits: b, id: int32(id)})
		}
	}
	if len(pairs) == 0 {
		return
	}
	x.ByView, x.Views = make([]int32, len(pairs)), make([]float64, len(pairs))
	for i, p := range sortKeyed(pairs) {
		b := p.bits &^ (1 << 63)
		if p.bits>>63 == 0 {
			b = ^p.bits
		}
		x.ByView[i], x.Views[i] = p.id, math.Float64frombits(b)
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
		to, ok := x.texts[probe.text(k)]
		return to, ok
	}
	lo, hi := 0, len(x.numIDs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if x.keys[x.numIDs[m]].less(k) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(x.numIDs) && x.keys[x.numIDs[lo]] == k {
		return x.numIDs[lo], true
	}
	return 0, false
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
