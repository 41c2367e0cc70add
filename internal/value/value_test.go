package value

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Null:    "null",
		Int:     "int",
		Decimal: "decimal",
		Text:    "text",
		Date:    "date",
		Time:    "time",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "kind(99)" {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestParseKind(t *testing.T) {
	cases := []struct {
		in   string
		want Kind
		ok   bool
	}{
		{"int", Int, true},
		{"INTEGER", Int, true},
		{"decimal", Decimal, true},
		{"Float", Decimal, true},
		{"double", Decimal, true},
		{"numeric", Decimal, true},
		{"text", Text, true},
		{"varchar", Text, true},
		{"string", Text, true},
		{"date", Date, true},
		{"time", Time, true},
		{"datetime", Time, true},
		{"null", Null, true},
		{"  Int  ", Int, true},
		{"blob", Null, false},
		{"", Null, false},
	}
	for _, c := range cases {
		got, err := ParseKind(c.in)
		if c.ok && err != nil {
			t.Errorf("ParseKind(%q) unexpected error: %v", c.in, err)
			continue
		}
		if !c.ok {
			if err == nil {
				t.Errorf("ParseKind(%q) expected error", c.in)
			}
			continue
		}
		if got != c.want {
			t.Errorf("ParseKind(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestKindPredicates(t *testing.T) {
	if !Int.Numeric() || !Decimal.Numeric() {
		t.Error("Int and Decimal should be numeric")
	}
	if Text.Numeric() || Null.Numeric() || Date.Numeric() {
		t.Error("Text/Null/Date should not be numeric")
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	iv := NewInt(42)
	if iv.Kind() != Int || iv.Int() != 42 {
		t.Errorf("NewInt: got %v kind %v", iv, iv.Kind())
	}
	dv := NewDecimal(3.5)
	if dv.Kind() != Decimal || dv.Decimal() != 3.5 {
		t.Errorf("NewDecimal: got %v", dv)
	}
	tv := NewText("Lake Tahoe")
	if tv.Kind() != Text || tv.Text() != "Lake Tahoe" {
		t.Errorf("NewText: got %v", tv)
	}
	dd := NewDateYMD(2019, time.January, 13)
	if dd.Kind() != Date || dd.String() != "2019-01-13" {
		t.Errorf("NewDateYMD: got %v", dd)
	}
	tt := NewTimeHMS(9, 30, 15)
	if tt.Kind() != Time || tt.String() != "09:30:15" {
		t.Errorf("NewTimeHMS: got %v", tt)
	}
	if !NullValue.IsNull() || NullValue.Kind() != Null {
		t.Error("NullValue should be null")
	}
	var zero Value
	if !zero.IsNull() {
		t.Error("zero Value should be NULL")
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Int on text", func() { NewText("x").Int() })
	mustPanic("Decimal on int", func() { NewInt(1).Decimal() })
	mustPanic("Text on int", func() { NewInt(1).Text() })
	mustPanic("TimeValue on text", func() { NewText("x").TimeValue() })
}

func TestFloat(t *testing.T) {
	cases := []struct {
		v    Value
		want float64
		ok   bool
	}{
		{NewInt(7), 7, true},
		{NewDecimal(2.25), 2.25, true},
		{NewText("12.5"), 12.5, true},
		{NewText(" 8 "), 8, true},
		{NewText("abc"), 0, false},
		{NullValue, 0, false},
		{NewDateYMD(1970, time.January, 2), 86400, true},
	}
	for _, c := range cases {
		got, ok := c.v.Float()
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("%v.Float() = %v,%v want %v,%v", c.v, got, ok, c.want, c.ok)
		}
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		v   Value
		str string
	}{
		{NullValue, "NULL"},
		{NewInt(-3), "-3"},
		{NewDecimal(497), "497"},
		{NewText("O'Brien"), "O'Brien"},
		{NewDateYMD(2018, time.December, 18), "2018-12-18"},
		{NewTimeHMS(23, 1, 2), "23:01:02"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
	}
}

func TestCompareBasics(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NullValue, NullValue, 0},
		{NullValue, NewInt(0), -1},
		{NewInt(0), NullValue, 1},
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewDecimal(1.5), NewDecimal(2.5), -1},
		{NewInt(2), NewDecimal(2.0), 0},
		{NewDecimal(2.5), NewInt(2), 1},
		{NewText("apple"), NewText("Banana"), -1},
		{NewText("Apple"), NewText("apple"), 0}, // case-insensitive text comparison
		{NewText("same"), NewText("same"), 0},
		{NewDateYMD(2018, 1, 1), NewDateYMD(2019, 1, 1), -1},
		{NewTimeHMS(1, 0, 0), NewTimeHMS(2, 0, 0), -1},
		{NewText("10"), NewInt(2), 1}, // numeric-looking text coerces
		{NewInt(2), NewText("10"), -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEqualAndEqualStrict(t *testing.T) {
	if !NewInt(2).Equal(NewDecimal(2)) {
		t.Error("2 should Equal 2.0")
	}
	if NewInt(2).EqualStrict(NewDecimal(2)) {
		t.Error("2 should not EqualStrict 2.0")
	}
	if !NewText("Lake").Equal(NewText("lake")) {
		t.Error("Equal should be case-insensitive for text")
	}
	if NewText("Lake").EqualStrict(NewText("lake")) {
		t.Error("EqualStrict should be case-sensitive")
	}
	if !NullValue.EqualStrict(NullValue) {
		t.Error("NULL EqualStrict NULL")
	}
	if !NewDateYMD(2000, 1, 1).EqualStrict(NewDateYMD(2000, 1, 1)) {
		t.Error("equal dates should be strictly equal")
	}
}

func TestLess(t *testing.T) {
	if !NewInt(1).Less(NewInt(2)) {
		t.Error("1 < 2")
	}
	if NewInt(2).Less(NewInt(1)) {
		t.Error("2 !< 1")
	}
}

func TestCompareNaN(t *testing.T) {
	nan := NewDecimal(math.NaN())
	if nan.Compare(nan) != 0 {
		t.Error("NaN should compare equal to NaN for total order")
	}
	if nan.Compare(NewDecimal(1)) != -1 {
		t.Error("NaN should sort before numbers")
	}
	if NewDecimal(1).Compare(nan) != 1 {
		t.Error("numbers should sort after NaN")
	}
}

func TestKeyCollisions(t *testing.T) {
	// Values that compare equal must share a key.
	pairs := [][2]Value{
		{NewInt(3), NewDecimal(3.0)},
		{NewText("Lake"), NewText("lake")},
		{NewText("42"), NewInt(42)},
		{NullValue, NullValue},
	}
	for _, p := range pairs {
		if p[0].Compare(p[1]) != 0 {
			t.Fatalf("test setup: %v and %v should compare equal", p[0], p[1])
		}
		if p[0].Key() != p[1].Key() {
			t.Errorf("Key mismatch for equal values %v / %v: %q vs %q", p[0], p[1], p[0].Key(), p[1].Key())
		}
	}
	// And different values should (in these cases) have different keys.
	if NewInt(1).Key() == NewInt(2).Key() {
		t.Error("different ints should have different keys")
	}
	if NewDateYMD(2000, 1, 1).Key() == NewTimeHMS(0, 0, 0).Key() {
		t.Error("date and time keys should not collide")
	}
}

func TestKeywordMatching(t *testing.T) {
	if !NewText("California").MatchesKeyword("california") {
		t.Error("MatchesKeyword should be case-insensitive")
	}
	if NewText("California").MatchesKeyword("Cali") {
		t.Error("MatchesKeyword should require full equality")
	}
	if !NewDecimal(53.2).MatchesKeyword("53.2") {
		t.Error("numeric keyword should match numerically")
	}
	if !NewInt(53).MatchesKeyword("53.0") {
		t.Error("53 should match keyword 53.0 numerically")
	}
	if NullValue.MatchesKeyword("x") {
		t.Error("NULL never matches")
	}
	if NewText("x").MatchesKeyword("  ") {
		t.Error("blank keyword never matches")
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		kind Kind
	}{
		{"", Null},
		{"null", Null},
		{"NULL", Null},
		{"42", Int},
		{"-7", Int},
		{"3.14", Decimal},
		{"2019-01-13", Date},
		{"12:30:00", Time},
		{"Lake Tahoe", Text},
		{"12abc", Text},
	}
	for _, c := range cases {
		if got := Parse(c.in).Kind(); got != c.kind {
			t.Errorf("Parse(%q).Kind() = %v, want %v", c.in, got, c.kind)
		}
	}
	if Parse("  497  ").Int() != 497 {
		t.Error("Parse should trim whitespace")
	}
}

func TestParseAs(t *testing.T) {
	v, err := ParseAs("42", Int)
	if err != nil || v.Int() != 42 {
		t.Errorf("ParseAs int: %v %v", v, err)
	}
	v, err = ParseAs("42.9", Int)
	if err != nil || v.Int() != 42 {
		t.Errorf("ParseAs int from float: %v %v", v, err)
	}
	if _, err = ParseAs("abc", Int); err == nil {
		t.Error("ParseAs(abc, Int) should fail")
	}
	v, err = ParseAs("3.5", Decimal)
	if err != nil || v.Decimal() != 3.5 {
		t.Errorf("ParseAs decimal: %v %v", v, err)
	}
	if _, err = ParseAs("abc", Decimal); err == nil {
		t.Error("ParseAs(abc, Decimal) should fail")
	}
	v, err = ParseAs("hello", Text)
	if err != nil || v.Text() != "hello" {
		t.Errorf("ParseAs text: %v %v", v, err)
	}
	v, err = ParseAs("2001-02-03", Date)
	if err != nil || v.String() != "2001-02-03" {
		t.Errorf("ParseAs date: %v %v", v, err)
	}
	if _, err = ParseAs("03/02/2001", Date); err == nil {
		t.Error("ParseAs bad date should fail")
	}
	v, err = ParseAs("04:05:06", Time)
	if err != nil || v.String() != "04:05:06" {
		t.Errorf("ParseAs time: %v %v", v, err)
	}
	if _, err = ParseAs("4pm", Time); err == nil {
		t.Error("ParseAs bad time should fail")
	}
	v, err = ParseAs("", Decimal)
	if err != nil || !v.IsNull() {
		t.Errorf("ParseAs empty should be NULL, got %v %v", v, err)
	}
	v, err = ParseAs("anything", Null)
	if err != nil || !v.IsNull() {
		t.Errorf("ParseAs to Null kind: %v %v", v, err)
	}
}

func TestCoerce(t *testing.T) {
	if v, ok := NewInt(3).Coerce(Decimal); !ok || v.Decimal() != 3 {
		t.Error("Int->Decimal coercion failed")
	}
	if v, ok := NewDecimal(3.9).Coerce(Int); !ok || v.Int() != 3 {
		t.Error("Decimal->Int coercion failed")
	}
	if v, ok := NewInt(3).Coerce(Text); !ok || v.Text() != "3" {
		t.Error("Int->Text coercion failed")
	}
	if _, ok := NewText("abc").Coerce(Int); ok {
		t.Error("Text(abc)->Int should fail")
	}
	if v, ok := NewText("12").Coerce(Int); !ok || v.Int() != 12 {
		t.Error("numeric Text->Int should succeed")
	}
	if v, ok := NewText("2020-05-06").Coerce(Date); !ok || v.String() != "2020-05-06" {
		t.Error("Text->Date coercion failed")
	}
	if v, ok := NewText("01:02:03").Coerce(Time); !ok || v.String() != "01:02:03" {
		t.Error("Text->Time coercion failed")
	}
	if _, ok := NullValue.Coerce(Text); ok {
		t.Error("NULL->Text should fail")
	}
	if v, ok := NewText("x").Coerce(Text); !ok || v.Text() != "x" {
		t.Error("same-kind coercion should be identity")
	}
	if _, ok := NewInt(1).Coerce(Date); ok {
		t.Error("Int->Date should fail")
	}
}

func TestTextLength(t *testing.T) {
	if NullValue.TextLength() != 0 {
		t.Error("NULL text length should be 0")
	}
	if NewText("héllo").TextLength() != 5 {
		t.Error("rune-based length expected")
	}
	if NewInt(1234).TextLength() != 4 {
		t.Error("int text length")
	}
}

func TestTuple(t *testing.T) {
	tp := Tuple{NewText("California"), NewText("Lake Tahoe"), NewDecimal(497)}
	cl := tp.Clone()
	if !tp.Equal(cl) {
		t.Error("clone should equal original")
	}
	cl[0] = NewText("Nevada")
	if tp.Equal(cl) {
		t.Error("modifying clone must not affect original")
	}
	if tp.String() != "(California, Lake Tahoe, 497)" {
		t.Errorf("Tuple.String() = %q", tp.String())
	}
	if tp.Key() == cl.Key() {
		t.Error("different tuples should have different keys")
	}
	if tp.Equal(Tuple{NewText("California")}) {
		t.Error("tuples of different length should not be equal")
	}
	if tp.Compare(cl) == 0 {
		t.Error("different tuples should not compare equal")
	}
	if tp.Compare(tp[:2]) <= 0 {
		t.Error("longer tuple with equal prefix should compare greater")
	}
	if tp[:2].Compare(tp) >= 0 {
		t.Error("shorter prefix should compare less")
	}
}

// TestTupleKeyIsInjective pins that a tuple's key tells its elements'
// keys apart: a text key may hold any byte a joined key uses, and two
// tuples key equal exactly when their elements pairwise key equal.
func TestTupleKeyIsInjective(t *testing.T) {
	for _, pair := range [][2]Tuple{
		{{NewText("a|t:b"), NewText("c")}, {NewText("a"), NewText("b|t:c")}},
		{{NewText("a"), NewText("")}, {NewText(""), NewText("a")}},
		{{NewText("1:x")}, {NewText("1"), NewText("x")}},
		{{NullValue, NewText("")}, {NewText(""), NullValue}},
		{{NewText("6:t:abc")}, {NewText("abc"), NewText("")}},
	} {
		if pair[0].Key() == pair[1].Key() {
			t.Errorf("%v and %v share the key %q", pair[0], pair[1], pair[0].Key())
		}
	}
	same := [2]Tuple{{NewInt(3), NewText("Lake")}, {NewText(" 3 "), NewText("LAKE")}}
	if same[0].Key() != same[1].Key() {
		t.Errorf("%v keys %q, %v keys %q", same[0], same[0].Key(), same[1], same[1].Key())
	}
}

// Property: Compare is a total order — antisymmetric and transitive over a
// generated set, and Equal values share keys.
func TestCompareProperties(t *testing.T) {
	gen := func(seed int64) Value {
		switch seed % 6 {
		case 0:
			return NullValue
		case 1:
			return NewInt(seed % 100)
		case 2:
			return NewDecimal(float64(seed%100) / 4)
		case 3:
			return NewText("kw" + strconv.FormatInt(seed%50, 10))
		case 4:
			return NewDateYMD(2000+int(seed%30), time.Month(1+seed%12), 1+int(seed%28))
		default:
			return NewTimeHMS(int(seed%24), int(seed%60), int(seed%60))
		}
	}
	antisym := func(a, b int64) bool {
		x, y := gen(abs64(a)), gen(abs64(b))
		return x.Compare(y) == -y.Compare(x)
	}
	if err := quick.Check(antisym, nil); err != nil {
		t.Errorf("antisymmetry violated: %v", err)
	}
	reflexive := func(a int64) bool {
		x := gen(abs64(a))
		return x.Compare(x) == 0 && x.Key() == x.Key()
	}
	if err := quick.Check(reflexive, nil); err != nil {
		t.Errorf("reflexivity violated: %v", err)
	}
	keyConsistent := func(a, b int64) bool {
		x, y := gen(abs64(a)), gen(abs64(b))
		if x.Compare(y) == 0 {
			return x.Key() == y.Key()
		}
		return true
	}
	if err := quick.Check(keyConsistent, nil); err != nil {
		t.Errorf("key consistency violated: %v", err)
	}
}

// Property: two Text values order exactly as their strings.ToLower forms
// compare byte-wise — the form Compare used before it stopped allocating.
// The alphabet holds what makes the two differ if either is wrong: letters
// whose lower case is ASCII (the Kelvin sign, İ), whose lower case changes
// length (Ⱥ), multi-byte and astral runes, U+FFFD itself, and bytes that are
// not UTF-8 (stray continuation and lead bytes, an encoded surrogate).
func TestCompareTextMatchesToLower(t *testing.T) {
	oracle := func(a, b string) int {
		return strings.Compare(strings.ToLower(a), strings.ToLower(b))
	}
	alphabet := []string{"a", "A", "z", "Z", "k", "K", "i", "I", "0", " ", "_", "[", "`", "{", "\x7f",
		"\u212a", "\u0130", "\u023a", "\u2c65", "é", "É", "ß", "ẞ", "σ", "Σ", "ς", "ǅ", "日", "\ufffd", "\U0001f600", "\U00010400", "\U00010428",
		"\x80", "\xbf", "\xc3", "\xe2\x82", "\xed\xa0\x80", "\xff"}
	rng := rand.New(rand.NewSource(1))
	word := func() string {
		var sb strings.Builder
		for n := rng.Intn(6); n > 0; n-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return sb.String()
	}
	check := func(a, b string) {
		t.Helper()
		if got, want := NewText(a).Compare(NewText(b)), oracle(a, b); got != want {
			t.Fatalf("Compare(%q, %q) = %d, strings.ToLower form gives %d", a, b, got, want)
		}
	}
	for _, a := range alphabet {
		for _, b := range alphabet {
			check(a, b)
			check("x"+a, "X"+b)
		}
	}
	for i := 0; i < 20000; i++ {
		a, b := word(), word()
		check(a, b)
		check(a, a+b) // shared prefix
		check(strings.ToUpper(a), a)
	}
	if err := quick.Check(func(a, b string) bool {
		return NewText(a).Compare(NewText(b)) == oracle(a, b)
	}, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCompareText(b *testing.B) {
	x, y := NewText("Lake Tahoe"), NewText("lake Tanganyika")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if x.Compare(y) >= 0 {
			b.Fatal("order")
		}
	}
}

// Property: Parse/String round-trip preserves Compare equality for values
// that have a canonical rendering.
func TestParseStringRoundTrip(t *testing.T) {
	f := func(i int64, frac uint8) bool {
		iv := NewInt(i % 1_000_000)
		if !Parse(iv.String()).Equal(iv) {
			return false
		}
		dv := NewDecimal(float64(i%10_000) + float64(frac)/256)
		return Parse(dv.String()).Equal(dv)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		if v == math.MinInt64 {
			return math.MaxInt64
		}
		return -v
	}
	return v
}

func BenchmarkValueCompare(b *testing.B) {
	vals := []Value{NewInt(4), NewDecimal(4.5), NewText("Lake Tahoe"), NewDateYMD(2019, 1, 1), NullValue}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := vals[i%len(vals)]
		c := vals[(i+1)%len(vals)]
		_ = a.Compare(c)
	}
}

func BenchmarkValueKey(b *testing.B) {
	vals := []Value{NewInt(4), NewDecimal(4.5), NewText("Lake Tahoe"), NewDateYMD(2019, 1, 1)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = vals[i%len(vals)].Key()
	}
}

// TestParseTemporalDatetimeForms pins the widened Date/Time grammar:
// the conventional "YYYY-MM-DD HH:MM:SS" datetime (what SQLite and most
// CSV exports store), its T-separated and RFC 3339 variants, all parse
// and coerce; garbage still fails.
func TestParseTemporalDatetimeForms(t *testing.T) {
	v, err := ParseAs("2021-03-04 10:30:00", Time)
	if err != nil || v.Kind() != Time {
		t.Errorf("ParseAs datetime as time: %v %v", v, err)
	}
	want := time.Date(2021, 3, 4, 10, 30, 0, 0, time.UTC)
	if err == nil && !v.TimeValue().Equal(want) {
		t.Errorf("ParseAs datetime = %v, want %v", v.TimeValue(), want)
	}
	v, err = ParseAs("2021-03-04T10:30:00", Time)
	if err != nil || v.Kind() != Time {
		t.Errorf("ParseAs T-separated datetime: %v %v", v, err)
	}
	v, err = ParseAs("2021-03-04T10:30:00Z", Time)
	if err != nil || v.Kind() != Time {
		t.Errorf("ParseAs RFC 3339 datetime: %v %v", v, err)
	}
	v, err = ParseAs("2021-03-04 10:30:00", Date)
	if err != nil || v.Kind() != Date || v.String() != "2021-03-04" {
		t.Errorf("ParseAs datetime as date: %v %v", v, err)
	}
	if _, err = ParseAs("2021-03-04 25:99:00", Time); err == nil {
		t.Error("ParseAs out-of-range datetime should fail")
	}

	if v, ok := NewText("2021-03-04 10:30:00").Coerce(Time); !ok || v.Kind() != Time {
		t.Errorf("Coerce datetime text to time: %v %v", v, ok)
	}
	if v, ok := NewText("2021-03-04 10:30:00").Coerce(Date); !ok || v.String() != "2021-03-04" {
		t.Errorf("Coerce datetime text to date: %v %v", v, ok)
	}
	if _, ok := NewText("soonish").Coerce(Time); ok {
		t.Error("Coerce garbage to time should fail")
	}
}

// TestMatchesKeywordDoesNotAllocate: matching a value against a keyword
// renders a number, a date or a time on the stack. The keywords reach the
// textual comparison, with and without a match.
func TestMatchesKeywordDoesNotAllocate(t *testing.T) {
	for _, v := range []Value{
		NewDateYMD(2020, time.January, 31), NewDateYMD(12000, time.January, 1), NewDateYMD(-5, time.March, 1),
		NewTimeHMS(12, 34, 56), NewInt(123456789), NewInt(-9223372036854775808),
		NewDecimal(3.25), NewDecimal(-1.2345678901234567e-300), NewText("Lake Tahoe"),
	} {
		for _, kw := range []string{"lake", " " + strings.ToUpper(v.String()) + " "} {
			want := strings.EqualFold(strings.TrimSpace(v.String()), strings.TrimSpace(kw))
			if got := v.MatchesKeyword(kw); got != want {
				t.Errorf("%v.MatchesKeyword(%q) = %v, want %v", v, kw, got, want)
			}
			if n := testing.AllocsPerRun(100, func() { v.MatchesKeyword(kw) }); n != 0 {
				t.Errorf("%v.MatchesKeyword(%q) allocates %v times, want 0", v, kw, n)
			}
		}
	}
}
