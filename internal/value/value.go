// Package value defines the typed scalar values stored in Prism's in-memory
// relational engine and manipulated by the multiresolution constraint
// language.
//
// A Value is a small tagged union over the data types the paper's metadata
// constraints talk about (decimal, int, text, date, time) plus NULL. Values
// are immutable; all operations return new values.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"
)

// Kind identifies the dynamic type of a Value. The set mirrors the data
// types enumerated by the paper's metadata-constraint grammar (Figure 1):
// decimal, int, text, date, time, plus an explicit NULL.
type Kind uint8

const (
	// Null is the absent value. It compares lower than every other value
	// and never matches a keyword.
	Null Kind = iota
	// Int is a 64-bit signed integer.
	Int
	// Decimal is a 64-bit floating point number (the paper's "decimal").
	Decimal
	// Text is a UTF-8 string.
	Text
	// Date is a calendar date (year, month, day) without a time component.
	Date
	// Time is a time-of-day with second precision.
	Time
)

// String returns the lower-case name used by the constraint language for
// the kind ("int", "decimal", "text", "date", "time", "null").
func (k Kind) String() string {
	switch k {
	case Null:
		return "null"
	case Int:
		return "int"
	case Decimal:
		return "decimal"
	case Text:
		return "text"
	case Date:
		return "date"
	case Time:
		return "time"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind parses a data-type name as written in metadata constraints.
// Parsing is case-insensitive and accepts a few common synonyms
// ("integer", "float", "double", "numeric", "string", "varchar", "char",
// "datetime").
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "null":
		return Null, nil
	case "int", "integer", "bigint", "smallint":
		return Int, nil
	case "decimal", "float", "double", "numeric", "real", "number":
		return Decimal, nil
	case "text", "string", "varchar", "char", "character":
		return Text, nil
	case "date":
		return Date, nil
	case "time", "datetime", "timestamp":
		return Time, nil
	default:
		return Null, fmt.Errorf("value: unknown data type %q", s)
	}
}

// Numeric reports whether the kind holds numbers (Int or Decimal).
func (k Kind) Numeric() bool { return k == Int || k == Decimal }

// Value is an immutable typed scalar. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64   // Int payload; Date/Time payload as unix seconds
	f    float64 // Decimal payload
	s    string  // Text payload
}

// NullValue is the canonical NULL.
var NullValue = Value{}

// NewInt returns an Int value.
func NewInt(v int64) Value { return Value{kind: Int, i: v} }

// NewDecimal returns a Decimal value.
func NewDecimal(v float64) Value { return Value{kind: Decimal, f: v} }

// NewText returns a Text value.
func NewText(v string) Value { return Value{kind: Text, s: v} }

// NewDate returns a Date value truncated to midnight UTC.
func NewDate(t time.Time) Value {
	t = t.UTC()
	d := time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, time.UTC)
	return Value{kind: Date, i: d.Unix()}
}

// NewDateYMD returns a Date value for the given year, month and day.
func NewDateYMD(year int, month time.Month, day int) Value {
	return Value{kind: Date, i: time.Date(year, month, day, 0, 0, 0, 0, time.UTC).Unix()}
}

// NewTime returns a Time value with second precision (UTC).
func NewTime(t time.Time) Value {
	return Value{kind: Time, i: t.UTC().Truncate(time.Second).Unix()}
}

// NewTimeHMS returns a Time value for the given hour, minute, second on the
// zero date (1970-01-01).
func NewTimeHMS(hour, minute, sec int) Value {
	return Value{kind: Time, i: time.Date(1970, 1, 1, hour, minute, sec, 0, time.UTC).Unix()}
}

// Kind returns the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == Null }

// Int returns the integer payload. It panics if v is not an Int.
func (v Value) Int() int64 {
	if v.kind != Int {
		panic("value: Int() on " + v.kind.String())
	}
	return v.i
}

// Decimal returns the floating-point payload. It panics if v is not a
// Decimal.
func (v Value) Decimal() float64 {
	if v.kind != Decimal {
		panic("value: Decimal() on " + v.kind.String())
	}
	return v.f
}

// Text returns the string payload. It panics if v is not Text.
func (v Value) Text() string {
	if v.kind != Text {
		panic("value: Text() on " + v.kind.String())
	}
	return v.s
}

// TimeValue returns the time payload of a Date or Time value in UTC. It
// panics for other kinds.
func (v Value) TimeValue() time.Time {
	if v.kind != Date && v.kind != Time {
		panic("value: TimeValue() on " + v.kind.String())
	}
	return time.Unix(v.i, 0).UTC()
}

// Float returns a best-effort numeric view of v: Int and Decimal convert
// directly, Date and Time convert to unix seconds, numeric-looking Text
// parses, everything else reports ok=false.
func (v Value) Float() (f float64, ok bool) {
	switch v.kind {
	case Int:
		return float64(v.i), true
	case Decimal:
		return v.f, true
	case Date, Time:
		return float64(v.i), true
	case Text:
		t := strings.TrimSpace(v.s)
		if !floatShaped(t) {
			return 0, false
		}
		f, err := strconv.ParseFloat(t, 64)
		if err != nil {
			return 0, false
		}
		return f, true
	default:
		return 0, false
	}
}

// floatShaped reports whether s could possibly parse as a float, using one
// allocation-free scan. strconv.ParseFloat's error path allocates a
// *NumError, which used to dominate allocation profiles — every text value
// probed for a numeric view paid it. The check is conservative: it may
// admit strings ParseFloat then rejects, but never rejects a string
// ParseFloat would accept (decimal and hex literals incl. underscores, and
// the spelled-out specials).
func floatShaped(s string) bool {
	if s == "" {
		return false
	}
	i := 0
	if s[0] == '+' || s[0] == '-' {
		i++
		if i == len(s) {
			return false
		}
	}
	switch c := s[i]; {
	case c >= '0' && c <= '9', c == '.':
	default:
		rest := s[i:]
		return strings.EqualFold(rest, "inf") || strings.EqualFold(rest, "infinity") || strings.EqualFold(rest, "nan")
	}
	for ; i < len(s); i++ {
		switch c := s[i]; {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'f', c >= 'A' && c <= 'F':
			// hex digits cover e/E (exponent) and the 0x prefix's digits
		case c == '+', c == '-':
			// past the first byte a sign follows an exponent's letter, so a
			// date such as 2020-01-31 is not taken for a number
			if p := s[i-1] | 0x20; p != 'e' && p != 'p' {
				return false
			}
		case c == '.', c == '_', c == 'x', c == 'X', c == 'p', c == 'P':
		default:
			return false
		}
	}
	return true
}

// intShaped reports whether s could possibly parse as a base-10 integer
// (an optional sign followed by digits), mirroring floatShaped's purpose
// for strconv.ParseInt.
func intShaped(s string) bool {
	if s == "" {
		return false
	}
	i := 0
	if s[0] == '+' || s[0] == '-' {
		i++
		if i == len(s) {
			return false
		}
	}
	for ; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			// ParseInt also accepts underscores between digits.
			if s[i] != '_' {
				return false
			}
		}
	}
	return true
}

// dateShaped / timeShaped pre-screen the fixed layouts Parse tries, so
// time.Parse's allocating error path only runs on plausible inputs. Both
// are conservative supersets of what time.Parse accepts (4-digit year with
// 1-2 digit month/day; 1-2 digit hour with fixed-position colons).
func dateShaped(s string) bool {
	if len(s) < 8 || len(s) > 10 || s[4] != '-' {
		return false
	}
	for i := 0; i < 4; i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

func timeShaped(s string) bool {
	if len(s) < 5 || len(s) > 8 {
		return false
	}
	c := strings.IndexByte(s, ':')
	return c == 1 || c == 2
}

// String renders v the way result tables and SQL literals display it.
func (v Value) String() string {
	switch v.kind {
	case Null:
		return "NULL"
	case Int:
		return strconv.FormatInt(v.i, 10)
	case Text:
		return v.s
	}
	var buf [32]byte
	return string(v.appendString(buf[:0]))
}

// Equal reports whether two values are equal. Numeric values compare across
// Int/Decimal; Text comparison is case-insensitive to match the keyword
// semantics of value constraints.
func (v Value) Equal(o Value) bool {
	return v.Compare(o) == 0
}

// EqualStrict reports whether two values have the same kind and identical
// payloads (case-sensitive for Text).
func (v Value) EqualStrict(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case Null:
		return true
	case Int:
		return v.i == o.i
	case Decimal:
		return v.f == o.f
	case Text:
		return v.s == o.s
	case Date, Time:
		return v.i == o.i
	}
	return false
}

// Compare returns -1, 0 or +1 ordering v relative to o.
//
// Ordering rules:
//   - NULL sorts before everything and equals only NULL.
//   - Numbers (Int, Decimal) compare numerically across kinds.
//   - Text compares case-insensitively ("Lake" equals "lake"), matching the
//     keyword semantics of value constraints.
//   - Date/Time compare chronologically.
//   - Mixed, non-coercible kinds order by Kind value so the order stays
//     total and deterministic. If one side is numeric-looking Text and the
//     other is a number, the Text is coerced.
func (v Value) Compare(o Value) int {
	if v.kind == Null || o.kind == Null {
		switch {
		case v.kind == Null && o.kind == Null:
			return 0
		case v.kind == Null:
			return -1
		default:
			return 1
		}
	}
	// Numeric cross-kind comparison (including numeric-looking text).
	if v.kind.Numeric() || o.kind.Numeric() {
		if vn, ok := v.Float(); ok {
			if on, ok2 := o.Float(); ok2 {
				return compareFloat(vn, on)
			}
		}
	}
	if v.kind != o.kind {
		// Fall back to a deterministic but arbitrary cross-kind order.
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case Int:
		return compareInt(v.i, o.i)
	case Decimal:
		return compareFloat(v.f, o.f)
	case Text:
		return compareFold(v.s, o.s)
	case Date, Time:
		return compareInt(v.i, o.i)
	}
	return 0
}

// compareFold orders a and b as strings.ToLower(a) and strings.ToLower(b)
// compare byte-wise, without building either: rune by rune, each lowered with
// unicode.ToLower, an invalid byte standing for U+FFFD (what ToLower writes
// for it). UTF-8 sorts by code point, so the first differing lowered rune
// decides, and a proper prefix sorts first.
func compareFold(a, b string) int {
	for a != "" && b != "" {
		ra, rb := rune(a[0]), rune(b[0])
		wa, wb := 1, 1
		if ra < utf8.RuneSelf && rb < utf8.RuneSelf {
			if 'A' <= ra && ra <= 'Z' {
				ra += 'a' - 'A'
			}
			if 'A' <= rb && rb <= 'Z' {
				rb += 'a' - 'A'
			}
		} else {
			ra, wa = utf8.DecodeRuneInString(a)
			rb, wb = utf8.DecodeRuneInString(b)
			ra, rb = unicode.ToLower(ra), unicode.ToLower(rb)
		}
		if ra != rb {
			return compareInt(int64(ra), int64(rb))
		}
		a, b = a[wa:], b[wb:]
	}
	return compareInt(int64(len(a)), int64(len(b)))
}

// Less reports whether v sorts before o.
func (v Value) Less(o Value) bool { return v.Compare(o) < 0 }

func compareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	case math.IsNaN(a) && math.IsNaN(b):
		return 0
	case math.IsNaN(a):
		return -1
	default:
		return 1
	}
}

// Key returns a canonical string usable as a map key. Two values that
// Compare equal produce the same key.
func (v Value) Key() string {
	switch v.kind {
	case Null:
		return "\x00"
	case Int:
		return "i:" + strconv.FormatInt(v.i, 10)
	case Decimal:
		if v.f == math.Trunc(v.f) && math.Abs(v.f) < 1e15 {
			// Make 3 and 3.0 collide, matching Compare semantics.
			return "i:" + strconv.FormatInt(int64(v.f), 10)
		}
		return "f:" + strconv.FormatFloat(v.f, 'g', -1, 64)
	case Text:
		if t := strings.TrimSpace(v.s); floatShaped(t) {
			if f, err := strconv.ParseFloat(t, 64); err == nil {
				if f == math.Trunc(f) && math.Abs(f) < 1e15 {
					return "i:" + strconv.FormatInt(int64(f), 10)
				}
				return "f:" + strconv.FormatFloat(f, 'g', -1, 64)
			}
		}
		return "t:" + strings.ToLower(v.s)
	case Date:
		return "d:" + strconv.FormatInt(v.i, 10)
	case Time:
		return "c:" + strconv.FormatInt(v.i, 10)
	default:
		return "?"
	}
}

// KeyClass is the class of a value's key: the part of Key before the colon.
type KeyClass uint8

const (
	// ClassNull is NULL's.
	ClassNull KeyClass = iota
	// ClassInt ("i:") holds integers, and numbers that are integral and below
	// 1e15 in magnitude.
	ClassInt
	// ClassFloat ("f:") holds every other number.
	ClassFloat
	// ClassDate ("d:") holds dates.
	ClassDate
	// ClassTime ("c:") holds times.
	ClassTime
	// ClassText ("t:") holds text that does not parse as a number.
	ClassText
)

// nanBits are the bits every NaN is keyed by: Key renders them all "NaN".
var nanBits = math.Float64bits(math.NaN())

// NumKey is Key without the string, for every class but ClassText: two
// values of those classes have equal keys exactly when they have equal
// classes and bits. The bits are the integer of ClassInt, the IEEE bits of
// ClassFloat (one NaN for all) and the unix seconds of ClassDate and
// ClassTime. Text of ClassText is keyed by its folded text (AppendFold), and
// its bits are 0, as are NULL's.
func (v Value) NumKey() (KeyClass, uint64) {
	switch v.kind {
	case Int:
		return ClassInt, uint64(v.i)
	case Decimal:
		return floatKey(v.f)
	case Text:
		if f, ok := v.Float(); ok {
			return floatKey(f)
		}
		return ClassText, 0
	case Date:
		return ClassDate, uint64(v.i)
	case Time:
		return ClassTime, uint64(v.i)
	}
	return ClassNull, 0
}

// floatKey is NumKey of a number: 3 and 3.0 collide, as in Key.
func floatKey(f float64) (KeyClass, uint64) {
	switch {
	case f == math.Trunc(f) && math.Abs(f) < 1e15:
		return ClassInt, uint64(int64(f))
	case math.IsNaN(f):
		return ClassFloat, nanBits
	}
	return ClassFloat, math.Float64bits(f)
}

// AppendFold appends strings.ToLower(s) to dst, byte for byte, without
// building the string: ASCII letters are lowered in place, every other rune
// through unicode.ToLower, and a byte that is not UTF-8 becomes U+FFFD.
func AppendFold(dst []byte, s string) []byte {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(s[i:])
		dst = utf8.AppendRune(dst, unicode.ToLower(r))
		i += w
	}
	return dst
}

// Normalize returns the canonical case-insensitive keyword form of a value.
// For text that no blanks surround it is the folded text the key dictionary
// keys it by (AppendFold), which exec.ColumnIndex.KeywordIDs looks it up as.
func Normalize(s string) string {
	return strings.ToLower(strings.TrimSpace(s))
}

// MatchesKeyword reports whether v equals the keyword under Prism's
// value-constraint semantics: numeric keywords compare numerically,
// other keywords compare as case-insensitive text.
func (v Value) MatchesKeyword(keyword string) bool {
	if v.kind == Null {
		return false
	}
	kw := strings.TrimSpace(keyword)
	if kw == "" {
		return false
	}
	if floatShaped(kw) {
		if f, err := strconv.ParseFloat(kw, 64); err == nil {
			if vf, ok := v.Float(); ok {
				return vf == f
			}
		}
	}
	if v.kind == Text {
		return strings.EqualFold(strings.TrimSpace(v.s), kw)
	}
	// Numbers, dates and times render without blanks, here into a buffer on
	// the stack: a keyword cell evaluates every value id it meets.
	var buf [32]byte
	return strings.EqualFold(string(v.appendString(buf[:0])), kw)
}

// appendString appends the rendering String returns for a number, a date or
// a time.
func (v Value) appendString(dst []byte) []byte {
	switch v.kind {
	case Int:
		return strconv.AppendInt(dst, v.i, 10)
	case Decimal:
		return strconv.AppendFloat(dst, v.f, 'g', -1, 64)
	case Date:
		return v.TimeValue().AppendFormat(dst, "2006-01-02")
	case Time:
		return v.TimeValue().AppendFormat(dst, "15:04:05")
	default:
		return append(dst, "<invalid>"...)
	}
}

// Parse converts a raw string into the "most specific" value: integers
// become Int, other numbers Decimal, ISO dates Date, HH:MM:SS Time, and
// everything else Text. Empty strings and the literals "null"/"NULL" parse
// to NULL.
func Parse(s string) Value {
	t := strings.TrimSpace(s)
	if t == "" || strings.EqualFold(t, "null") {
		return NullValue
	}
	// Shape pre-checks keep the strconv/time error paths (which allocate)
	// off the common route where most strings are plain text.
	if intShaped(t) {
		if i, err := strconv.ParseInt(t, 10, 64); err == nil {
			return NewInt(i)
		}
	}
	if floatShaped(t) {
		if f, err := strconv.ParseFloat(t, 64); err == nil {
			return NewDecimal(f)
		}
	}
	if dateShaped(t) {
		if d, err := time.Parse("2006-01-02", t); err == nil {
			return NewDate(d)
		}
	}
	if timeShaped(t) {
		if c, err := time.Parse("15:04:05", t); err == nil {
			return NewTime(c)
		}
	}
	return NewText(s)
}

// ParseAs converts a raw string into a value of the requested kind,
// returning an error when the text cannot be interpreted as that kind.
func ParseAs(s string, k Kind) (Value, error) {
	t := strings.TrimSpace(s)
	if t == "" || strings.EqualFold(t, "null") {
		return NullValue, nil
	}
	switch k {
	case Null:
		return NullValue, nil
	case Int:
		i, err := strconv.ParseInt(t, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(t, 64)
			if ferr != nil {
				return NullValue, fmt.Errorf("value: %q is not an int", s)
			}
			return NewInt(int64(f)), nil
		}
		return NewInt(i), nil
	case Decimal:
		f, err := strconv.ParseFloat(t, 64)
		if err != nil {
			return NullValue, fmt.Errorf("value: %q is not a decimal", s)
		}
		return NewDecimal(f), nil
	case Text:
		return NewText(s), nil
	case Date:
		d, ok := parseDateText(t)
		if !ok {
			return NullValue, fmt.Errorf("value: %q is not a date (want YYYY-MM-DD)", s)
		}
		return d, nil
	case Time:
		c, ok := parseTimeText(t)
		if !ok {
			return NullValue, fmt.Errorf("value: %q is not a time (want HH:MM:SS)", s)
		}
		return c, nil
	default:
		return NullValue, fmt.Errorf("value: unknown kind %v", k)
	}
}

// Coerce converts v to the requested kind when a lossless or conventional
// conversion exists (Int<->Decimal, anything->Text, numeric Text->number).
// It returns ok=false when no sensible conversion exists.
func (v Value) Coerce(k Kind) (Value, bool) {
	if v.kind == k {
		return v, true
	}
	switch k {
	case Null:
		return NullValue, v.kind == Null
	case Int:
		if f, ok := v.Float(); ok {
			return NewInt(int64(f)), true
		}
	case Decimal:
		if f, ok := v.Float(); ok {
			return NewDecimal(f), true
		}
	case Text:
		if v.kind == Null {
			return NullValue, false
		}
		return NewText(v.String()), true
	case Date:
		if v.kind == Text {
			if d, ok := parseDateText(strings.TrimSpace(v.s)); ok {
				return d, true
			}
		}
	case Time:
		if v.kind == Text {
			if c, ok := parseTimeText(strings.TrimSpace(v.s)); ok {
				return c, true
			}
		}
	}
	return NullValue, false
}

// datetimeLayouts are the conventional textual datetime forms accepted
// for Date and Time beyond the canonical YYYY-MM-DD / HH:MM:SS: SQLite
// and most CSV exports write "YYYY-MM-DD HH:MM:SS" (optionally
// T-separated or zoned). time.Parse accepts a fractional-seconds suffix
// on all of them.
var datetimeLayouts = []string{
	"2006-01-02 15:04:05",
	"2006-01-02T15:04:05",
	time.RFC3339,
}

// parseDateText interprets s as a Date: the canonical YYYY-MM-DD, or a
// datetime form truncated to its calendar day.
func parseDateText(s string) (Value, bool) {
	if d, err := time.Parse("2006-01-02", s); err == nil {
		return NewDate(d), true
	}
	for _, layout := range datetimeLayouts {
		if d, err := time.Parse(layout, s); err == nil {
			return NewDate(d), true
		}
	}
	return NullValue, false
}

// parseTimeText interprets s as a Time: the canonical HH:MM:SS (on the
// zero date), or a full datetime form.
func parseTimeText(s string) (Value, bool) {
	if c, err := time.Parse("15:04:05", s); err == nil {
		return NewTime(c), true
	}
	for _, layout := range datetimeLayouts {
		if c, err := time.Parse(layout, s); err == nil {
			return NewTime(c), true
		}
	}
	return NullValue, false
}

// TextLength returns the length in runes of the textual rendering of v,
// used by the MaxLength metadata statistic. NULL has length 0.
func (v Value) TextLength() int {
	var buf [32]byte
	switch v.kind {
	case Null:
		return 0
	case Text:
		return utf8.RuneCountInString(v.s)
	case Int:
		return len(strconv.AppendInt(buf[:0], v.i, 10))
	case Decimal:
		return len(strconv.AppendFloat(buf[:0], v.f, 'g', -1, 64))
	}
	return len(v.String()) // a date or a time renders in ASCII
}

// Tuple is a row of values.
type Tuple []Value

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Key returns a canonical key for the whole tuple: two tuples have the same
// key exactly when they are as long and their values pairwise have the
// same Value.Key. Each element's key follows its length and a colon, so a
// text key that holds another element's spelling cannot make two tuples
// collide.
func (t Tuple) Key() string {
	var b []byte
	for _, v := range t {
		k := v.Key()
		b = strconv.AppendInt(b, int64(len(k)), 10)
		b = append(b, ':')
		b = append(b, k...)
	}
	return string(b)
}

// String renders the tuple as a parenthesised, comma-separated list.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Equal reports whether two tuples have the same length and pairwise-equal
// values (under Value.Compare semantics).
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically.
func (t Tuple) Compare(o Tuple) int {
	n := len(t)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(o[i]); c != 0 {
			return c
		}
	}
	return compareInt(int64(len(t)), int64(len(o)))
}
