package exec

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"prism/internal/rowset"
	"prism/internal/schema"
	"prism/internal/value"
)

// This file keeps two lookups as they were. The first is the key
// dictionary's join lookup from when it kept a map from each number key to
// its id (nums) and one string per text id (folded): intern and JoinID are
// the old ones, word for word, on a wrapper that carries those structures,
// rebuilt from a dictionary's values. It is the oracle JoinID must agree
// with, id for id. The second is the keyword lookup from when every column
// kept a keyword table beside its key dictionary: a map from each value
// id's keyword to an entry of a CSR that lists, ascending, the ids
// rendering it, and Select reading its lists. The methods are the old ones,
// word for word, on a wrapper that carries the table (and the old keys and
// folded texts it read). It is the oracle KeywordIDs and Select must agree
// with, id set for id set and row for row.

// referenceDict is a key dictionary's old lookup structures: nums[c] maps
// the bits of a key of class c (Value.NumKey) to its value id, texts the
// folded text of a key of value.ClassText; keys[id] is the key of value id,
// its class and bits, or for value.ClassText its position in folded, the
// folded texts in id order.
type referenceDict struct {
	nums   [value.ClassText]map[uint64]int32
	texts  map[string]int32
	keys   []dictKey
	folded []string
}

// referenceDictOf rebuilds x's old lookup structures by interning its
// values in id order, which hands each the id it has in x: Vals[id] is the
// first value seen with its key. It reports an id that comes out otherwise.
func referenceDictOf(t testing.TB, x *ColumnIndex) *referenceDict {
	t.Helper()
	r := &referenceDict{texts: make(map[string]int32)}
	var fold []byte
	for id, v := range x.Vals {
		if got, seen := r.intern(v, &fold); seen || got != int32(id) {
			t.Fatalf("value %v of id %d interns as id %d (seen %v)", v, id, got, seen)
		}
	}
	r.folded = make([]string, len(r.texts))
	for text, id := range r.texts {
		r.folded[r.keys[id].bits] = text
	}
	return r
}

// intern returns the value id of v's key, handing out the next one to a key
// not seen before. fold is scratch for the folded text of v.
func (x *referenceDict) intern(v value.Value, fold *[]byte) (id int32, seen bool) {
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

// referenceJoinID is the old JoinID: the value id of x whose key is that
// of value id of probe.
func (x *referenceDict) referenceJoinID(probe *referenceDict, id int32) (int32, bool) {
	k := probe.keys[id]
	if k.class == value.ClassText {
		to, ok := x.texts[probe.folded[k.bits]]
		return to, ok
	}
	to, ok := x.nums[k.class][k.bits]
	return to, ok
}

// CheckJoinIDs requires that every value id of every column, joined into
// every column (itself included), finds the id and the verdict the old
// lookup found. The external tests run it over the columns of one database.
func CheckJoinIDs(t testing.TB, label string, cols []*ColumnIndex) {
	t.Helper()
	refs := make([]*referenceDict, len(cols))
	for i, x := range cols {
		refs[i] = referenceDictOf(t, x)
	}
	errs := 0
	for i, x := range cols {
		for j, probe := range cols {
			for id := range probe.Vals {
				got, ok := x.JoinID(probe, int32(id))
				want, wantOK := refs[i].referenceJoinID(refs[j], int32(id))
				if got != want || ok != wantOK {
					t.Errorf("%s: id %d (%#v) of column %d joins column %d as (%d, %v), the old lookup (%d, %v)",
						label, id, probe.Vals[id], j, i, got, ok, want, wantOK)
					if errs++; errs == 20 {
						t.Fatalf("%s: too many differences", label)
					}
				}
			}
		}
	}
}

// referenceIndex is a key dictionary with its old keyword table, and the
// old keys and folded texts the table was built from.
type referenceIndex struct {
	*ColumnIndex
	keys    []dictKey
	folded  []string
	Text    map[string]int32
	TextIDs CSR
}

// referenceKeywordIDs builds x's old keyword table.
func referenceKeywordIDs(t testing.TB, x *ColumnIndex) *referenceIndex {
	d := referenceDictOf(t, x)
	r := &referenceIndex{ColumnIndex: x, keys: d.keys, folded: d.folded}
	r.indexText()
	return r
}

// indexText fills Text and TextIDs with the keyword of every value id. A
// variant row needs none of its own: text that shares a key with its id's
// value has the same folded form, so the same keyword (Normalize trims and
// lower-cases), and a number renders none.
func (x *referenceIndex) indexText() {
	x.Text = make(map[string]int32, len(x.folded))
	var entries, ids []int32
	for id := range x.Vals {
		kw := x.keyword(int32(id))
		if kw == "" {
			continue
		}
		entry, seen := x.Text[kw]
		if !seen {
			entry = int32(len(x.Text))
			x.Text[kw] = entry
		}
		entries, ids = append(entries, entry), append(ids, int32(id))
	}
	x.TextIDs = GroupCSR(len(x.Text), entries, ids)
}

// keyword returns what the value v of id is listed under in Text:
// value.Normalize(v.String()), or "" when that parses as a number — which a
// number's rendering and numeric text's do. Text keyed by its folded self
// renders as its folded key unless blanks surround it, so only a date, a
// time and such text render here.
func (x *referenceIndex) keyword(id int32) string {
	v := x.Vals[id]
	switch v.Kind() {
	case value.Int, value.Decimal:
		return ""
	case value.Text:
		k := x.keys[id]
		if k.class != value.ClassText {
			return ""
		}
		if s := v.Text(); strings.TrimSpace(s) == s {
			return x.folded[k.bits]
		}
	}
	return value.Normalize(v.String())
}

// KeywordIDs returns the value ids whose rows hold every row whose value
// matches keyword kw (Value.MatchesKeyword): for a keyword that parses as a
// number — its numeric view as a text, which MatchesKeyword compares it
// by — the ids whose numeric view equals it (none for NaN), in view order;
// for any other, the ids Text lists under its normalised form, ascending.
// Either list may hold ids whose values do not match: Select evaluates the
// predicate on each.
func (x *referenceIndex) KeywordIDs(kw string) []int32 {
	if f, ok := value.NewText(kw).Float(); ok {
		return x.ViewRange(f, f)
	}
	entry, ok := x.Text[value.Normalize(kw)]
	if !ok {
		return nil
	}
	return x.TextIDs.At(entry)
}

// Select is ColumnIndex.Select as it read the keyword table.
func (x *referenceIndex) Select(cp *ColumnPredicate, rows *rowset.Bitmap, interrupt *InterruptChecker) (aborted bool) {
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
			for _, id := range x.KeywordIDs(kw) {
				if interrupt.Hit() {
					return true
				}
				if cp.Pred(x.Vals[id]) {
					rows.AddSorted(x.Post.At(id))
				}
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

// CheckKeywordIDs requires that, for each keyword, x.KeywordIDs visits the
// ids the old keyword table lists, as a set, and that Select keeps the rows
// it kept under a MatchesKeyword predicate. The external tests run it over
// the columns of the generated databases.
func CheckKeywordIDs(t testing.TB, label string, x *ColumnIndex, keywords []string) {
	t.Helper()
	ref := referenceKeywordIDs(t, x)
	for _, kw := range keywords {
		var got []int32
		x.KeywordIDs(kw, func(id int32) bool { got = append(got, id); return true })
		slices.Sort(got)
		want := slices.Sorted(slices.Values(ref.KeywordIDs(kw)))
		if !slices.Equal(got, want) {
			t.Errorf("%s: keyword %q finds ids %v, the keyword table %v", label, kw, got, want)
			continue
		}
		cp := &ColumnPredicate{Pred: func(v value.Value) bool { return v.MatchesKeyword(kw) }, Keywords: []string{kw}}
		kept, wantKept := rowset.New(x.NumRows()), rowset.New(x.NumRows())
		x.Select(cp, kept, nil)
		ref.Select(cp, wantKept, nil)
		if g, w := kept.AppendTo(nil), wantKept.AppendTo(nil); !slices.Equal(g, w) {
			t.Errorf("%s: keyword %q selects rows %v, the keyword table %v", label, kw, g, w)
		}
	}
}

// KeywordProbes returns the keywords CheckKeywordIDs tries on x: every
// value's rendering, upper-cased, padded with blanks and both, the blank
// keywords, and random strings over an alphabet of letters, digits, blanks
// and date and time punctuation.
func KeywordProbes(x *ColumnIndex, rng *rand.Rand) []string {
	kws := []string{"", " ", "\t", "  \n"}
	for _, v := range slices.Concat(x.Vals, x.VariantVals) {
		s := v.String()
		kws = append(kws, s, strings.ToUpper(s), " "+s+"\t", "\t"+strings.ToUpper(s)+" ")
	}
	const alphabet = "aAlLkKeE019-:. \t"
	for range 50 {
		b := make([]byte, 1+rng.Intn(12))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		kws = append(kws, string(b))
	}
	return kws
}

// plantedText and plantedTimes are what no generated column holds and the
// keyword lookup must still answer: text with blanks at its edges (one with
// a variant), empty and all-blank text, case variants and numeric text;
// dates and times, years -5 and 12000 among them.
var (
	plantedText = []string{
		" lake", "LAKE ", "tahoe\t", " LAKE", "", "   ", "\t", "Lake", "lake", "LAKE", "Tahoe", "TAHOE",
		"497", " 497 ", "4.97e2", "nan", "x y", "2020-01-31", " 2020-01-31", "12:00:00", "-0005-01-01",
	}
	plantedTimes = []value.Value{
		value.NewDateYMD(-5, time.January, 1), value.NewDateYMD(12000, time.January, 1),
		value.NewDateYMD(2020, time.January, 31), value.NewDateYMD(0, time.December, 31),
		value.NewTimeHMS(12, 0, 0), value.NewTimeHMS(0, 0, 0), value.NewTimeHMS(23, 59, 59),
	}
)

// columnOf indexes vals as one column.
func columnOf(vals []value.Value) *ColumnIndex {
	rows := make([]value.Tuple, len(vals))
	for i, v := range vals {
		rows[i] = value.Tuple{v}
	}
	x, _ := NewColumnIndex(schema.ColumnRef{Table: "T", Column: "C"}, value.Text, rows, 0)
	return x
}

// TestKeywordIDsMatchReferenceOnPlanted: the planted text, dates and
// times, alone and together with numbers and NULL, answer every probe as the
// old keyword table did.
func TestKeywordIDsMatchReferenceOnPlanted(t *testing.T) {
	var text []value.Value
	for _, s := range plantedText {
		text = append(text, value.NewText(s))
	}
	numbers := []value.Value{value.NewInt(497), value.NewDecimal(497), value.NewDecimal(-1), value.NullValue}
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		label string
		vals  []value.Value
	}{
		{"text", text},
		{"dates and times", plantedTimes},
		{"planted", slices.Concat(text, plantedTimes, numbers)},
	} {
		x := columnOf(c.vals)
		if len(x.respelled) == 0 {
			t.Fatalf("%s: no value id is respelled", c.label)
		}
		CheckKeywordIDs(t, c.label, x, KeywordProbes(x, rng))
	}
}

// FuzzKeywordIDs: a column of fuzzed cells — each piece of cells as text and
// as value.Parse reads it, a date days after the epoch and a time of day —
// answers the fuzzed keyword, and the probes of every value, as the old
// keyword table did.
func FuzzKeywordIDs(f *testing.F) {
	day := func(year int) int64 { return time.Date(year, time.January, 1, 0, 0, 0, 0, time.UTC).Unix() / 86400 }
	planted := strings.Join(plantedText, "|")
	f.Add(planted, day(-5), int64(43200), "lake")
	f.Add(planted, day(12000), int64(0), "12000-01-01")
	f.Add(planted, day(2020)+30, int64(86399), "   ")
	f.Add("O'Higgins|İ|\xff", day(0), int64(1), "-0000-12-31")
	f.Fuzz(func(t *testing.T, cells string, days, secs int64, kw string) {
		var vals []value.Value
		for _, s := range strings.Split(cells, "|") {
			vals = append(vals, value.NewText(s), value.Parse(s))
		}
		days %= 5_000_000 // about 13 700 years either side of 1970
		vals = append(vals, value.NewDate(time.Unix(days*86400, 0)), value.NewTime(time.Unix(secs%86400, 0)))
		x := columnOf(vals)
		CheckKeywordIDs(t, "fuzzed", x, append(KeywordProbes(x, rand.New(rand.NewSource(days))), kw))
	})
}

// plantedKeys are the number and text keys JoinID must tell apart or join
// that no generated column holds: NaNs with other payloads (every NaN is
// one key), -0 beside 0, 3 as an integer, a decimal and text, integers past
// 2^53 (which share a float view with their neighbours), integers whose
// bits are a date's, a time's or a decimal's, case variants, text with
// blanks at its edges and invalid UTF-8.
func plantedKeys() []value.Value {
	vals := []value.Value{
		value.NewDecimal(math.NaN()), value.NewDecimal(math.Float64frombits(0x7ff8000000000001)),
		value.NewDecimal(math.Float64frombits(0xfff8000000000000)), value.NewDecimal(math.Float64frombits(0x7ff0000000000001)),
		value.NewDecimal(0), value.NewDecimal(math.Copysign(0, -1)), value.NewInt(0),
		value.NewInt(3), value.NewDecimal(3), value.NewText("3"), value.NewText(" 3 "), value.NewText("3.0"),
		value.NewInt(1 << 53), value.NewInt(1<<53 + 1), value.NewDecimal(1 << 53), value.NewDecimal(1<<53 + 2),
		value.NewInt(math.MaxInt64), value.NewInt(math.MinInt64), value.NewDecimal(1e15), value.NewInt(1e15 - 1),
		value.NewInt(86400), value.NewDateYMD(1970, time.January, 2), value.NewInt(43200),
		value.NewInt(int64(math.Float64bits(0.5))), value.NewDecimal(0.5), value.NewDecimal(-0.5),
		value.NewText("\xff"), value.NewText("a\xffb"), value.NewText("Lake\xff"), value.NewText("İ"),
	}
	for _, s := range plantedText {
		vals = append(vals, value.NewText(s))
	}
	return append(vals, plantedTimes...)
}

// TestJoinIDMatchesReferenceOnPlanted: the planted keys, as one column, as
// its even and odd halves, and one column per key, join one another as the
// old lookup joined them.
func TestJoinIDMatchesReferenceOnPlanted(t *testing.T) {
	vals := plantedKeys()
	var even, odd []value.Value
	for i, v := range vals {
		if i%2 == 0 {
			even = append(even, v)
		} else {
			odd = append(odd, v)
		}
	}
	cols := []*ColumnIndex{columnOf(vals), columnOf(even), columnOf(odd), columnOf(nil)}
	for _, v := range vals {
		cols = append(cols, columnOf([]value.Value{v, value.NullValue}))
	}
	CheckJoinIDs(t, "planted", cols)
}

// FuzzJoinID: two columns of fuzzed cells — each piece of cells as text and
// as value.Parse reads it, a decimal and an integer of fuzzed bits, a date
// days after the epoch and a time of day — and the planted keys join each
// other as the old lookup joined them.
func FuzzJoinID(f *testing.F) {
	planted := strings.Join(plantedText, "|")
	f.Add(planted, "LAKE|3|3.0| 3 |nan", uint64(0x7ff8000000000001), uint64(0x7ff8000000000000), int64(-2_000_000))
	f.Add("Lake|\xff|-0|0", "lake|a\xffb|0.0", uint64(1<<63), uint64(0), int64(3_700_000))
	f.Add("9007199254740993|9007199254740992", "9007199254740992.0", uint64(1<<53+1), uint64(0x4340000000000000), int64(1))
	f.Fuzz(func(t *testing.T, a, b string, bitsA, bitsB uint64, days int64) {
		column := func(cells string, bits uint64, days int64) *ColumnIndex {
			var vals []value.Value
			for _, s := range strings.Split(cells, "|") {
				vals = append(vals, value.NewText(s), value.Parse(s))
			}
			days %= 5_000_000 // about 13 700 years either side of 1970
			vals = append(vals, value.NewDecimal(math.Float64frombits(bits)), value.NewInt(int64(bits)),
				value.NewDate(time.Unix(days*86400, 0)), value.NewTime(time.Unix(int64(bits%86400), 0)))
			return columnOf(vals)
		}
		CheckJoinIDs(t, "fuzzed", []*ColumnIndex{column(a, bitsA, days), column(b, bitsB, -days), columnOf(plantedKeys())})
	})
}
