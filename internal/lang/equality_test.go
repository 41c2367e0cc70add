package lang

import (
	"testing"

	"prism/internal/value"
)

// TestEqualityKeywords checks which constraint shapes yield a keyword
// cover, and that covers are complete: Eval(v) must imply MatchesKeyword
// against one of the returned keywords (executors rely on this to index).
func TestEqualityKeywords(t *testing.T) {
	parse := func(cell string) ValueExpr {
		e, err := ParseValueConstraint(cell)
		if err != nil {
			t.Fatalf("parse %q: %v", cell, err)
		}
		return e
	}
	cases := []struct {
		cell string
		want []string
		ok   bool
	}{
		{"Lake Tahoe", []string{"Lake Tahoe"}, true},
		{"California || Nevada", []string{"California", "Nevada"}, true},
		{"== 497", []string{"497"}, true},
		{">= 100", nil, false},
		{"[100, 600]", nil, false},
		{"NOT (Nevada)", nil, false},
		// A conjunction is covered by its equality-shaped term.
		{"Nevada && >= 0", []string{"Nevada"}, true},
	}
	// Date/Time equality constants (reachable through programmatically
	// built specs, e.g. the workload generator sampling a date column)
	// compare numerically against numeric cells under Compare, which no
	// finite keyword list covers — they must refuse a cover.
	if _, ok := EqualityKeywords(Compare{Op: OpEq, Const: value.Parse("2020-01-31")}); ok {
		t.Error("a Date equality constant must not claim a keyword cover")
	}
	// Nor may a NaN constant: it equals every NaN-viewed value under
	// Compare, "nan" text included, and the keyword "NaN" matches none.
	nan := Compare{Op: OpEq, Const: value.Parse("NaN")}
	if _, ok := EqualityKeywords(Or{Terms: []ValueExpr{Keyword{Word: "Nevada"}, nan}}); ok {
		t.Error("a NaN equality constant must not claim a keyword cover")
	}

	for _, tc := range cases {
		got, ok := EqualityKeywords(parse(tc.cell))
		if ok != tc.ok {
			t.Errorf("EqualityKeywords(%q) ok = %v, want %v", tc.cell, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("EqualityKeywords(%q) = %v, want %v", tc.cell, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("EqualityKeywords(%q) = %v, want %v", tc.cell, got, tc.want)
			}
		}
	}

	// Completeness property over a value corpus: whenever a covered
	// expression accepts a value, the keyword list must match it too.
	corpus := []value.Value{
		value.NewText("Lake Tahoe"), value.NewText("Nevada"), value.NewText("497"),
		value.NewInt(497), value.NewDecimal(497), value.NewInt(1580428800),
		value.Parse("2020-01-31"), value.NullValue,
	}
	for _, cell := range []string{"Lake Tahoe", "California || Nevada", "== 497", "Nevada && >= 0"} {
		expr := parse(cell)
		kws, ok := EqualityKeywords(expr)
		if !ok {
			t.Fatalf("expected cover for %q", cell)
		}
		for _, v := range corpus {
			if !expr.Eval(v) {
				continue
			}
			matched := false
			for _, kw := range kws {
				if v.MatchesKeyword(kw) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("cover violated: %q accepts %v but keywords %v do not match it", cell, v, kws)
			}
		}
	}
}
