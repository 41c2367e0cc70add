package exec

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"prism/internal/rowset"
	"prism/internal/schema"
	"prism/internal/value"
)

// This file keeps the keyword lookup as it was when every column kept a
// keyword table beside its key dictionary: a map from each value id's
// keyword to an entry of a CSR that lists, ascending, the ids rendering it,
// and Select reading its lists. The methods are the old ones, word for
// word, on a wrapper that carries the table. It is the oracle KeywordIDs
// and Select must agree with, id set for id set and row for row.

// referenceIndex is a key dictionary with its old keyword table.
type referenceIndex struct {
	*ColumnIndex
	Text    map[string]int32
	TextIDs CSR
}

// referenceKeywordIDs builds x's old keyword table.
func referenceKeywordIDs(x *ColumnIndex) *referenceIndex {
	r := &referenceIndex{ColumnIndex: x}
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
	ref := referenceKeywordIDs(x)
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
