package lang

import (
	"strings"
	"testing"
	"testing/quick"

	"prism/internal/schema"
	"prism/internal/value"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("California || Nevada")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokenKind{TokenWord, TokenOr, TokenWord, TokenEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("token count = %d, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d = %v, want %v", i, toks[i].Kind, k)
		}
	}
}

func TestLexOperatorsAndLiterals(t *testing.T) {
	toks, err := Lex(">= 100 && <= 600.5")
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind TokenKind
		text string
	}{
		{TokenOp, ">="}, {TokenNumber, "100"}, {TokenAnd, "&&"}, {TokenOp, "<="}, {TokenNumber, "600.5"}, {TokenEOF, ""},
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || (w.text != "" && toks[i].Text != w.text) {
			t.Errorf("token %d = %v, want %v %q", i, toks[i], w.kind, w.text)
		}
	}
	toks, err = Lex("DataType=='decimal' AND MinValue>=‘0’")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	wantKinds := []TokenKind{TokenWord, TokenOp, TokenString, TokenAnd, TokenWord, TokenOp, TokenString, TokenEOF}
	if len(kinds) != len(wantKinds) {
		t.Fatalf("kinds = %v", kinds)
	}
	for i := range wantKinds {
		if kinds[i] != wantKinds[i] {
			t.Errorf("kind %d = %v want %v", i, kinds[i], wantKinds[i])
		}
	}
}

func TestLexNegativeNumbersAndWords(t *testing.T) {
	toks, err := Lex(">= -5")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Kind != TokenNumber || toks[1].Text != "-5" {
		t.Errorf("negative number token = %v", toks[1])
	}
	// A hyphen inside a word stays a word.
	toks, err = Lex("north-dakota")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokenWord || toks[0].Text != "north-dakota" {
		t.Errorf("hyphenated word = %v", toks[0])
	}
	// NOT / != / <>
	toks, err = Lex("NOT x != y <> z")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokenNot || toks[2].Kind != TokenOp || toks[2].Text != "!=" || toks[4].Text != "!=" {
		t.Errorf("tokens = %v", toks)
	}
}

func TestLexErrors(t *testing.T) {
	for _, in := range []string{"a & b", "a | b", "'unterminated", "‘unterminated", "\x7f{"} {
		if _, err := Lex(in); err == nil {
			t.Errorf("Lex(%q) expected error", in)
		} else if !strings.Contains(err.Error(), "lang:") {
			t.Errorf("error should be a SyntaxError: %v", err)
		}
	}
}

func TestTokenStrings(t *testing.T) {
	if (Token{Kind: TokenEOF}).String() != "end of input" {
		t.Error("EOF token string")
	}
	if !strings.Contains((Token{Kind: TokenWord, Text: "x"}).String(), "word") {
		t.Error("word token string")
	}
	for k := TokenEOF; k <= TokenComma; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
	if TokenKind(200).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestParseBareKeyword(t *testing.T) {
	e, err := ParseValueConstraint("Lake Tahoe")
	if err != nil {
		t.Fatal(err)
	}
	kw, ok := e.(Keyword)
	if !ok || kw.Word != "Lake Tahoe" {
		t.Fatalf("parsed %#v", e)
	}
	if !e.Eval(value.NewText("lake tahoe")) {
		t.Error("keyword should match case-insensitively")
	}
	if e.Eval(value.NewText("Lake")) {
		t.Error("keyword requires full match")
	}
	if e.Resolution() != ResolutionHigh {
		t.Error("exact keyword should be high resolution")
	}
}

func TestParseDisjunction(t *testing.T) {
	e, err := ParseValueConstraint("California || Nevada")
	if err != nil {
		t.Fatal(err)
	}
	or, ok := e.(Or)
	if !ok || len(or.Terms) != 2 {
		t.Fatalf("parsed %#v", e)
	}
	if !e.Eval(value.NewText("Nevada")) || !e.Eval(value.NewText("california")) {
		t.Error("disjunction should match either keyword")
	}
	if e.Eval(value.NewText("Oregon")) {
		t.Error("Oregon should not match")
	}
	if e.Resolution() != ResolutionMedium {
		t.Error("disjunction is medium resolution")
	}
	if got := e.String(); got != "California || Nevada" {
		t.Errorf("String = %q", got)
	}
}

func TestParseComparisonsAndRanges(t *testing.T) {
	e := mustParseValue(t, ">= 100 && <= 600")
	if !e.Eval(value.NewDecimal(497)) || e.Eval(value.NewDecimal(50)) || e.Eval(value.NewDecimal(700)) {
		t.Error("conjunction of comparisons misbehaves")
	}
	if e.Resolution() != ResolutionMedium {
		t.Error("comparisons are medium resolution")
	}
	r := mustParseValue(t, "[100, 600]")
	if !r.Eval(value.NewDecimal(100)) || !r.Eval(value.NewDecimal(600)) || r.Eval(value.NewDecimal(99.9)) {
		t.Error("range bounds should be inclusive")
	}
	if r.String() != "[100, 600]" {
		t.Errorf("range String = %q", r.String())
	}
	ne := mustParseValue(t, "!= 0")
	if ne.Eval(value.NewInt(0)) || !ne.Eval(value.NewInt(5)) {
		t.Error("!= misbehaves")
	}
	eq := mustParseValue(t, "= 'Lake Tahoe'")
	if kw, ok := eq.(Keyword); !ok || kw.Word != "Lake Tahoe" {
		t.Errorf("explicit equality should become a Keyword, got %#v", eq)
	}
	lt := mustParseValue(t, "< -2.5")
	if !lt.Eval(value.NewDecimal(-3)) || lt.Eval(value.NewDecimal(0)) {
		t.Error("< negative misbehaves")
	}
	gt := mustParseValue(t, "> 10")
	if gt.Eval(value.NullValue) {
		t.Error("NULL should never satisfy a comparison")
	}
}

func TestParseNotAndParens(t *testing.T) {
	e := mustParseValue(t, "NOT (California || Nevada)")
	if e.Eval(value.NewText("California")) || !e.Eval(value.NewText("Oregon")) {
		t.Error("NOT misbehaves")
	}
	if !strings.HasPrefix(e.String(), "NOT (") {
		t.Errorf("String = %q", e.String())
	}
	e = mustParseValue(t, "(>= 10 && <= 20) || (>= 100 && <= 200)")
	if !e.Eval(value.NewInt(15)) || !e.Eval(value.NewInt(150)) || e.Eval(value.NewInt(50)) {
		t.Error("nested parens misbehave")
	}
	e = mustParseValue(t, "! = 3") // '!' as NOT then '=' 3
	if e.Eval(value.NewInt(3)) || !e.Eval(value.NewInt(4)) {
		t.Error("bang-not misbehaves")
	}
}

func TestParseEmptyCell(t *testing.T) {
	e, err := ParseValueConstraint("   ")
	if err != nil || e != nil {
		t.Errorf("empty cell should parse to nil, got %v %v", e, err)
	}
	m, err := ParseMetadataConstraint("")
	if err != nil || m != nil {
		t.Errorf("empty metadata cell should parse to nil, got %v %v", m, err)
	}
}

func TestParseValueErrors(t *testing.T) {
	bad := []string{
		">=",            // missing constant
		"[1, ]",         // missing hi
		"[5, 2]",        // empty range
		"[1 2]",         // missing comma
		"[1, 2",         // missing bracket
		"(California",   // missing paren
		"California )",  // trailing token
		">= 1 &&",       // dangling AND
		"|| California", // leading OR
		"= ",            // equality without operand
		"&& 5",          // leading AND
		"NOT",           // dangling NOT
		"'unclosed",     // lexer error
	}
	for _, in := range bad {
		if _, err := ParseValueConstraint(in); err == nil {
			t.Errorf("ParseValueConstraint(%q) expected error", in)
		}
	}
}

func TestParseSampleRow(t *testing.T) {
	row, err := ParseSampleRow([]string{"California || Nevada", "Lake Tahoe", ""})
	if err != nil {
		t.Fatal(err)
	}
	if len(row) != 3 || row[0] == nil || row[1] == nil || row[2] != nil {
		t.Fatalf("row = %#v", row)
	}
	if _, err := ParseSampleRow([]string{">="}); err == nil {
		t.Error("bad cell should propagate error")
	}
}

func TestParseMetadataRow(t *testing.T) {
	row, err := ParseMetadataRow([]string{"", "DataType = 'text'", "DataType=='decimal' AND MinValue>='0'"})
	if err != nil {
		t.Fatal(err)
	}
	if row[0] != nil || row[1] == nil || row[2] == nil {
		t.Fatalf("row = %#v", row)
	}
	if _, err := ParseMetadataRow([]string{"DataType =="}); err == nil {
		t.Error("bad metadata cell should propagate error")
	}
}

func statsFor(t *testing.T, typ value.Kind, vals ...value.Value) schema.Stats {
	t.Helper()
	c := schema.NewStatsCollector(schema.ColumnRef{Table: "Lake", Column: "Area"}, typ)
	distinct := make(map[string]bool)
	for _, v := range vals {
		c.Add(v)
		if !v.IsNull() {
			distinct[v.Key()] = true
		}
	}
	return c.Stats(len(distinct))
}

func TestMetadataPredicateEval(t *testing.T) {
	st := statsFor(t, value.Decimal, value.NewDecimal(53.2), value.NewDecimal(497), value.NewDecimal(981))
	cases := []struct {
		in   string
		want bool
	}{
		{"DataType == 'decimal'", true},
		{"DataType == 'text'", false},
		{"DataType != 'text'", true},
		{"MinValue >= '0'", true},
		{"MinValue >= 100", false},
		{"MaxValue <= 1000", true},
		{"MaxValue > 1000", false},
		{"MaxLength <= 4", true},
		{"MaxLength < 3", false},
		{"ColumnName == 'Area'", true},
		{"ColumnName = 'area'", true},
		{"ColumnName != 'Name'", true},
		{"ColumnName == 'Name'", false},
		{"ColumnName == 'Ar%'", true},
		{"TableName == 'Lake'", true},
		{"TableName == 'lak*'", true},
		{"TableName != 'Lake'", false},
		{"DataType == 'decimal' AND MinValue >= '0'", true},
		{"DataType == 'text' OR MinValue >= '0'", true},
		{"DataType == 'text' AND MinValue >= '0'", false},
		{"(DataType=='text' OR DataType=='decimal') AND MaxValue<=1000", true},
	}
	for _, c := range cases {
		e, err := ParseMetadataConstraint(c.in)
		if err != nil {
			t.Errorf("parse %q: %v", c.in, err)
			continue
		}
		if got := e.Eval(st); got != c.want {
			t.Errorf("Eval(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// mustParseMeta parses a metadata constraint the test writes as a literal.
func mustParseValue(t testing.TB, input string) ValueExpr {
	t.Helper()
	e, err := ParseValueConstraint(input)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mustParseMeta(t *testing.T, input string) MetaExpr {
	t.Helper()
	e, err := ParseMetadataConstraint(input)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestMetadataIntSatisfiesDecimal(t *testing.T) {
	st := statsFor(t, value.Int, value.NewInt(10), value.NewInt(20))
	e := mustParseMeta(t, "DataType == 'decimal'")
	if !e.Eval(st) {
		t.Error("an int column should satisfy a decimal data-type requirement")
	}
	e = mustParseMeta(t, "DataType != 'decimal'")
	if e.Eval(st) {
		t.Error("negated decimal requirement should fail for int column")
	}
}

func TestMetadataEmptyColumn(t *testing.T) {
	st := statsFor(t, value.Decimal) // no rows
	if mustParseMeta(t, "MinValue >= 0").Eval(st) {
		t.Error("empty column has no MinValue")
	}
	if mustParseMeta(t, "MaxValue <= 10").Eval(st) {
		t.Error("empty column has no MaxValue")
	}
}

func TestMetadataBadTypeConstant(t *testing.T) {
	st := statsFor(t, value.Decimal, value.NewDecimal(1))
	e := MetaPredicate{Field: FieldDataType, Op: OpEq, Const: "blob"}
	if e.Eval(st) {
		t.Error("unknown type constant should evaluate to false")
	}
	bad := MetaPredicate{Field: FieldMaxLength, Op: OpLe, Const: "abc"}
	if bad.Eval(st) {
		t.Error("non-numeric MaxLength constant should evaluate to false")
	}
	if (MetaPredicate{Field: MetaField(99), Op: OpEq, Const: "x"}).Eval(st) {
		t.Error("unknown field should evaluate to false")
	}
}

func TestParseMetadataErrors(t *testing.T) {
	bad := []string{
		"Bogus == 'x'",        // unknown field
		"DataType 'x'",        // missing operator
		"DataType ==",         // missing constant
		"== 'decimal'",        // missing field
		"DataType == 'x' AND", // dangling AND
		"(DataType == 'x'",    // missing paren
		"DataType == 'x') ",   // trailing paren
	}
	for _, in := range bad {
		if _, err := ParseMetadataConstraint(in); err == nil {
			t.Errorf("ParseMetadataConstraint(%q) expected error", in)
		}
	}
}

func TestParseMetaFieldNames(t *testing.T) {
	cases := map[string]MetaField{
		"DataType": FieldDataType, "type": FieldDataType,
		"ColumnName": FieldColumnName, "column": FieldColumnName,
		"MaxValue": FieldMaxValue, "max": FieldMaxValue,
		"MinValue": FieldMinValue, "min": FieldMinValue,
		"MaxLength": FieldMaxLength, "length": FieldMaxLength,
		"TableName": FieldTableName, "table": FieldTableName,
	}
	for in, want := range cases {
		got, err := ParseMetaField(in)
		if err != nil || got != want {
			t.Errorf("ParseMetaField(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseMetaField("nope"); err == nil {
		t.Error("unknown field should error")
	}
	for f := FieldDataType; f <= FieldTableName; f++ {
		if f.String() == "" {
			t.Errorf("field %d has empty name", f)
		}
		// Round trip.
		back, err := ParseMetaField(f.String())
		if err != nil || back != f {
			t.Errorf("round trip of %v failed: %v %v", f, back, err)
		}
	}
	if MetaField(77).String() == "" {
		t.Error("unknown field should still render")
	}
}

func TestBinOpParsingAndString(t *testing.T) {
	for _, s := range []string{"=", "==", "!=", "<>", "<", "<=", ">", ">="} {
		if _, err := ParseBinOp(s); err != nil {
			t.Errorf("ParseBinOp(%q): %v", s, err)
		}
	}
	if _, err := ParseBinOp("~"); err == nil {
		t.Error("unknown operator should error")
	}
	for op := OpEq; op <= OpGe; op++ {
		if op.String() == "" {
			t.Errorf("op %d has empty string", op)
		}
	}
	if BinOp(55).String() == "" || BinOp(55).apply(value.NewInt(1), value.NewInt(1)) {
		t.Error("unknown op should render and evaluate to false")
	}
	if BinOp(55).applyInt(1, 1) {
		t.Error("unknown op applyInt should be false")
	}
}

func TestColumnFeasible(t *testing.T) {
	st := statsFor(t, value.Decimal, value.NewDecimal(53.2), value.NewDecimal(497), value.NewDecimal(981))
	has := func(kw string) bool { return kw == "497" || kw == "53.2" }
	cases := []struct {
		in   string
		want bool
	}{
		{"497", true},
		{"500", false},
		{">= 100", true},
		{">= 2000", false},
		{"> 981", false},
		{"> 980", true},
		{"<= 53.2", true},
		{"< 53.2", false},
		{"<= 10", false},
		{"[400, 600]", true},
		{"[1000, 2000]", false},
		{"[0, 10]", false},
		{"497 && >= 100", true},
		{"500 && >= 100", false},
		{"500 || >= 100", true},
		{"!= 0", true},
		{"NOT 497", true}, // conservative
	}
	for _, c := range cases {
		e := mustParseValue(t, c.in)
		if got := ColumnFeasible(e, st, has); got != c.want {
			t.Errorf("ColumnFeasible(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if !ColumnFeasible(nil, st, has) {
		t.Error("nil constraint is always feasible")
	}
	empty := statsFor(t, value.Decimal)
	if ColumnFeasible(mustParseValue(t, ">= 0"), empty, has) {
		t.Error("empty column is never feasible")
	}
}

func TestColumnFeasibleNeverFalseNegative(t *testing.T) {
	// Property: if some value in the column satisfies the constraint, the
	// column must be reported feasible.
	vals := []value.Value{
		value.NewDecimal(53.2), value.NewDecimal(497), value.NewDecimal(981), value.NewDecimal(0),
	}
	st := statsFor(t, value.Decimal, vals...)
	has := func(kw string) bool {
		for _, v := range vals {
			if v.MatchesKeyword(kw) {
				return true
			}
		}
		return false
	}
	exprs := []string{
		"497", "0", ">= 900", "<= 0", "[53, 54]", "497 || 5000", ">= 0 && <= 1",
		"!= 53.2", "NOT 497", "> 980.9",
	}
	for _, in := range exprs {
		e := mustParseValue(t, in)
		satisfiable := false
		for _, v := range vals {
			if e.Eval(v) {
				satisfiable = true
				break
			}
		}
		if satisfiable && !ColumnFeasible(e, st, has) {
			t.Errorf("constraint %q is satisfiable but reported infeasible", in)
		}
	}
}

func TestValueExprStringsRoundTrip(t *testing.T) {
	inputs := []string{
		"Lake Tahoe",
		"California || Nevada",
		">= 100 && <= 600",
		"[100, 600]",
		"!= 0",
		"NOT (California || Nevada)",
		"'Lake (Tahoe)'",
	}
	for _, in := range inputs {
		e := mustParseValue(t, in)
		rendered := e.String()
		back, err := ParseValueConstraint(rendered)
		if err != nil {
			t.Errorf("re-parse of %q (from %q) failed: %v", rendered, in, err)
			continue
		}
		// Evaluate both on a probe set and require identical behaviour.
		probes := []value.Value{
			value.NewText("Lake Tahoe"), value.NewText("California"), value.NewText("Nevada"),
			value.NewText("Oregon"), value.NewInt(0), value.NewInt(100), value.NewDecimal(497),
			value.NewDecimal(600), value.NewDecimal(601), value.NullValue, value.NewText("Lake (Tahoe)"),
		}
		for _, p := range probes {
			if e.Eval(p) != back.Eval(p) {
				t.Errorf("round trip of %q changed semantics on %v", in, p)
			}
		}
	}
}

func TestMetaExprStringsRoundTrip(t *testing.T) {
	inputs := []string{
		"DataType == 'decimal' AND MinValue >= '0'",
		"ColumnName = 'Area' OR ColumnName = 'Size'",
		"MaxLength <= 30",
		"(DataType = 'text' OR DataType = 'int') AND MaxValue <= 100",
	}
	stats := []schema.Stats{
		statsFor(t, value.Decimal, value.NewDecimal(0), value.NewDecimal(55)),
		statsFor(t, value.Text, value.NewText("abc"), value.NewText("a-very-long-name")),
		statsFor(t, value.Int, value.NewInt(5), value.NewInt(500)),
	}
	for _, in := range inputs {
		e := mustParseMeta(t, in)
		back, err := ParseMetadataConstraint(e.String())
		if err != nil {
			t.Errorf("re-parse of %q failed: %v", e.String(), err)
			continue
		}
		for _, st := range stats {
			if e.Eval(st) != back.Eval(st) {
				t.Errorf("round trip of %q changed semantics on %v", in, st.Ref)
			}
		}
	}
}

func TestResolutionString(t *testing.T) {
	if ResolutionHigh.String() != "high" || ResolutionMedium.String() != "medium" || ResolutionLow.String() != "low" {
		t.Error("resolution names")
	}
	if Resolution(9).String() == "" {
		t.Error("unknown resolution should render")
	}
	if mustParseValue(t, "= 5 && >= 0").Resolution() != ResolutionHigh {
		t.Error("conjunction containing equality is high resolution")
	}
	if mustParseValue(t, ">= 0 && <= 1").Resolution() != ResolutionMedium {
		t.Error("pure comparison conjunction is medium resolution")
	}
}

func TestNeedsQuotingAndKeywordString(t *testing.T) {
	if (Keyword{Word: "Lake Tahoe"}).String() != "Lake Tahoe" {
		t.Error("plain keyword should not be quoted")
	}
	if (Keyword{Word: "a||b"}).String() != "'a||b'" {
		t.Error("operator-containing keyword should be quoted")
	}
	if (Keyword{Word: ""}).String() != "''" {
		t.Error("empty keyword renders as quotes")
	}
	if (Compare{Op: OpGe, Const: value.NewText("it's")}).String() != ">= 'it''s'" {
		t.Errorf("quote escaping: %q", Compare{Op: OpGe, Const: value.NewText("it's")}.String())
	}
}

func TestWildcardMatch(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"ar%", "area", true},
		{"%ea", "area", true},
		{"a%a", "area", true},
		{"a*a", "area", true},
		{"%r%", "area", true},
		{"x%", "area", false},
		{"area", "area", true},
		{"are", "area", false},
		{"%x%y%", "axbyc", true},
		{"%x%y%", "aybxc", false},
	}
	for _, c := range cases {
		if got := wildcardMatch(c.pattern, c.s); got != c.want {
			t.Errorf("wildcardMatch(%q, %q) = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
}

// Property: for random generated range constraints, Eval agrees with direct
// interval arithmetic.
func TestRangeProperty(t *testing.T) {
	f := func(lo, hi, probe int16) bool {
		if lo > hi {
			lo, hi = hi, lo
		}
		r := Range{Lo: value.NewInt(int64(lo)), Hi: value.NewInt(int64(hi))}
		want := probe >= lo && probe <= hi
		return r.Eval(value.NewInt(int64(probe))) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: lexing never panics and either errors or ends with EOF.
func TestLexTotal(t *testing.T) {
	f := func(s string) bool {
		toks, err := Lex(s)
		if err != nil {
			return true
		}
		return len(toks) > 0 && toks[len(toks)-1].Kind == TokenEOF
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkParseValueConstraint(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseValueConstraint("(California || Nevada) && >= 100 && <= 600"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseMetadataConstraint(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseMetadataConstraint("DataType=='decimal' AND MinValue>='0' AND MaxLength <= 12"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalValueConstraint(b *testing.B) {
	e := mustParseValue(b, "(California || Nevada) && != 'Utah'")
	v := value.NewText("Nevada")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !e.Eval(v) {
			b.Fatal("unexpected eval result")
		}
	}
}
