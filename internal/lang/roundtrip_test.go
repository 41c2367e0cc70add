package lang

import (
	"testing"

	"prism/internal/value"
)

// The canonical text of a value constraint (ValueExpr.String) is what
// session deltas write back, what api.Spec carries and what validation keys
// embed, so it has to survive the cell parser: parsing it must succeed, must
// render the same text again, and must mean the same constraint.

// exprSource turns fuzz bytes into a value constraint of bounded depth that
// covers every ValueExpr kind and every comparison operator the parser
// produces, with the words and numbers that are awkward to print.
//
// It stays inside what the cell language can express today. Left out, and
// still open (ROADMAP 6d): a keyword that is a reserved word (NOT, AND, OR)
// or contains a single quote — the lexer has no quote escape, so 'it”s'
// reads as two strings — and date or time constants in comparisons and
// ranges, which print bare (2019-01-13) and lex as a number and a word.
// "= c" is not generated either: the parser reads it as the keyword c.
//
// Also left out, and the defect this test was written next to: a decimal
// constant of a million or more (or below 1e-4) prints in exponent notation
// ("[790000.5, 1.58e+06]"), which the cell parser rejects. The fix belongs
// in quoteConst, but it changes the canonical text of specifications the
// repository's benchmark fingerprints (benchmark/golden/*.json are keyed on
// Spec.String()), so it has to land together with regenerated goldens;
// TestExponentBoundsDoNotParse pins the defect until then.
type exprSource struct {
	data []byte
	at   int
}

func (s *exprSource) next() int {
	if s.at >= len(s.data) {
		return 0
	}
	b := s.data[s.at]
	s.at++
	return int(b)
}

var (
	roundTripWords = []string{
		"Lake Tahoe", "California", "a&b", "x;y|z", `say "hi"`, "(paren)", "[bracket]", "a,b", "a=b", "<tag>",
		"!bang", "", "42", "-7", "3.5", "1e6", "2019-01-13", "15:04:05", "Notable", "android", "tab\there", "été", "日本",
	}
	roundTripNumbers = []float64{
		0, 1, -1, 400, 600.5, 0.25, -0.001, 999999, 999999.5, 123456.789, -54321.25, 0.0001, 0.5, 7, 53.2, 58000, 4400, -0.75,
	}
)

func (s *exprSource) constant() value.Value {
	switch s.next() % 4 {
	case 0:
		return value.NewInt(int64(roundTripNumbers[s.next()%len(roundTripNumbers)]) * 1000003)
	case 1, 2:
		return value.NewDecimal(roundTripNumbers[s.next()%len(roundTripNumbers)])
	default:
		// Text the parser would read back as text: a quoted constant that
		// looks like a number, a date or nothing becomes one.
		for {
			if w := roundTripWords[s.next()%len(roundTripWords)]; value.Parse(w).Kind() == value.Text {
				return value.NewText(w)
			}
		}
	}
}

func (s *exprSource) expr(depth int) ValueExpr {
	kind := s.next() % 6
	if depth == 0 && kind > 2 {
		kind %= 3
	}
	switch kind {
	case 0:
		return Keyword{Word: roundTripWords[s.next()%len(roundTripWords)]}
	case 1:
		ops := []BinOp{OpNe, OpLt, OpLe, OpGt, OpGe}
		return Compare{Op: ops[s.next()%len(ops)], Const: s.constant()}
	case 2:
		lo, hi := s.constant(), s.constant()
		if lo.Compare(hi) > 0 {
			lo, hi = hi, lo
		}
		return Range{Lo: lo, Hi: hi}
	case 3, 4:
		terms := make([]ValueExpr, 2+s.next()%2)
		for i := range terms {
			terms[i] = s.expr(depth - 1)
		}
		if kind == 3 {
			return And{Terms: terms}
		}
		return Or{Terms: terms}
	default:
		return Not{Term: s.expr(depth - 1)}
	}
}

// probes are the cell values a constraint and its re-parsed form must agree
// on.
func roundTripProbes() []value.Value {
	probes := []value.Value{value.NullValue}
	for _, w := range roundTripWords {
		probes = append(probes, value.NewText(w), value.Parse(w))
	}
	for _, f := range roundTripNumbers {
		probes = append(probes, value.NewDecimal(f), value.NewDecimal(f*1.0000001), value.NewInt(int64(f)))
	}
	return probes
}

func checkRoundTrip(t *testing.T, e ValueExpr) {
	t.Helper()
	text := e.String()
	parsed, err := ParseValueConstraint(text)
	if err != nil {
		t.Fatalf("%#v prints %q, which does not parse: %v", e, text, err)
	}
	if parsed == nil {
		t.Fatalf("%#v prints %q, which parses to no constraint", e, text)
	}
	if again := parsed.String(); again != text {
		t.Fatalf("%#v prints %q, which parses to %#v printing %q", e, text, parsed, again)
	}
	for _, v := range roundTripProbes() {
		if e.Eval(v) != parsed.Eval(v) {
			t.Fatalf("%q: original says %v about %s, re-parsed %#v says %v", text, e.Eval(v), v, parsed, parsed.Eval(v))
		}
	}
}

// FuzzCanonicalTextRoundTrips is the property over generated constraints;
// as a plain test it runs the seed corpus, which walks every kind, operator
// and listed number through the generator.
func FuzzCanonicalTextRoundTrips(f *testing.F) {
	for kind := 0; kind < 6; kind++ {
		for a := 0; a < 26; a++ {
			f.Add([]byte{byte(kind), byte(a), byte(a / 2), byte(a + 7), byte(kind + a), byte(a * 3), byte(a + 1), byte(a * 5), 1, byte(a)})
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &exprSource{data: data}
		checkRoundTrip(t, src.expr(3))
	})
}

// TestExponentBoundsDoNotParse records the open defect: when it starts to
// fail, the constant printer was fixed — widen roundTripNumbers to a million
// and beyond and delete it.
func TestExponentBoundsDoNotParse(t *testing.T) {
	r := Range{Lo: value.NewDecimal(790000.5), Hi: value.NewDecimal(1.58e6)}
	if _, err := ParseValueConstraint(r.String()); err == nil {
		t.Errorf("%q parses now: extend the round-trip property to large decimals", r.String())
	}
}
