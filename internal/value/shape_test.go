package value

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// referenceParse is the pre-guard implementation of Parse: try every
// parser and let the error paths decide. The shape pre-checks exist only
// to keep those (allocating) error paths off the hot path — they must
// never change the outcome.
func referenceParse(s string) Value {
	t := strings.TrimSpace(s)
	if t == "" || strings.EqualFold(t, "null") {
		return NullValue
	}
	if i, err := strconv.ParseInt(t, 10, 64); err == nil {
		return NewInt(i)
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil {
		return NewDecimal(f)
	}
	if d, err := time.Parse("2006-01-02", t); err == nil {
		return NewDate(d)
	}
	if c, err := time.Parse("15:04:05", t); err == nil {
		return NewTime(c)
	}
	return NewText(s)
}

// shapeCorpus stresses the boundaries of the shape pre-checks.
var shapeCorpus = []string{
	"", " ", "null", "NULL",
	"0", "42", "-42", "+42", "007", "1_000",
	"3.5", "-3.5", ".5", "5.", "1e3", "1E-3", "+1e+3", "1_0.5",
	"0x1p-2", "0X1.8P1", "0x_1p2",
	"inf", "Inf", "INF", "+inf", "-Inf", "infinity", "Infinity", "nan", "NaN",
	"9223372036854775807", "9223372036854775808", // int64 max, max+1 (falls to float)
	"1e999", "-1e999", // float overflow errors
	"2020-01-31", "2020-1-2", "2020-1-31", "2020-01-1", "0000-01-01",
	"2020-13-40", "202-01-01", "20200-1-1", "2020-01-31x",
	"15:04:05", "1:2:3", "01:02:03", "23:59:59", "9:5:5", "25:61:61",
	"15:04", "150405", ":::",
	"California", "Lake Tahoe", "O'Higgins", "3rd Street", "e5", "-", "+", ".",
	"1.2.3", "1-2", "12:34-56", "--5", "1..2", "abc123", "123abc",
	"Δ42", "４２", " 42 ", "\t3.5\n",
	"-0005-01-01", "12000-01-01", "1e+5", "1E-5", "0x1p+4", "0x1P-4", "0x1e+5", "1+2", "1e5-", "-1e-5", "+.5e+3",
}

// TestParseShapeGuardsMatchReference is the no-behavior-change property of
// the shape pre-checks.
func TestParseShapeGuardsMatchReference(t *testing.T) {
	for _, s := range shapeCorpus {
		got, want := Parse(s), referenceParse(s)
		bothNaN := got.Kind() == Decimal && want.Kind() == Decimal &&
			got.Decimal() != got.Decimal() && want.Decimal() != want.Decimal()
		if got.Kind() != want.Kind() || (!got.EqualStrict(want) && !bothNaN) {
			t.Errorf("Parse(%q) = %v (%v), reference %v (%v)", s, got, got.Kind(), want, want.Kind())
		}
	}
}

// TestFloatShapeGuardMatchesParseFloat: floatShaped must never reject a
// string ParseFloat accepts (the reverse — admitting strings ParseFloat
// rejects — is fine, the parse still runs).
func TestFloatShapeGuardMatchesParseFloat(t *testing.T) {
	for _, s := range shapeCorpus {
		trimmed := strings.TrimSpace(s)
		if _, err := strconv.ParseFloat(trimmed, 64); err == nil && !floatShaped(trimmed) {
			t.Errorf("floatShaped(%q) = false but ParseFloat accepts it", trimmed)
		}
		// The Text Float() view must agree with a direct parse.
		v := NewText(s)
		f, ok := v.Float()
		rf, err := strconv.ParseFloat(trimmed, 64)
		refOK := err == nil
		if ok != refOK || (ok && f != rf && !(f != f && rf != rf)) {
			t.Errorf("NewText(%q).Float() = (%v, %v), reference (%v, %v)", s, f, ok, rf, refOK)
		}
	}
}

// TestMatchesKeywordShapeGuard pins keyword matching across the corpus
// against the unguarded formulation.
func TestMatchesKeywordShapeGuard(t *testing.T) {
	vals := []Value{
		NewInt(42), NewDecimal(3.5), NewText("42"), NewText("abc"),
		NewText("inf"), NewDecimal(1e3), NullValue, NewText("Lake Tahoe"),
	}
	for _, v := range vals {
		for _, kw := range shapeCorpus {
			got := v.MatchesKeyword(kw)
			want := referenceMatches(v, kw)
			if got != want {
				t.Errorf("MatchesKeyword(%v, %q) = %v, reference %v", v, kw, got, want)
			}
		}
	}
}

func referenceMatches(v Value, keyword string) bool {
	if v.Kind() == Null {
		return false
	}
	kw := strings.TrimSpace(keyword)
	if kw == "" {
		return false
	}
	if f, err := strconv.ParseFloat(kw, 64); err == nil {
		if vf, ok := v.Float(); ok {
			return vf == f
		}
	}
	return strings.EqualFold(strings.TrimSpace(v.String()), kw)
}
