package sqlgen

import (
	"strings"
	"testing"
	"unicode"

	"prism/internal/difftest"
	"prism/internal/exec"
	"prism/internal/graphx"
	"prism/internal/schema"
)

// This file keeps Generate as it was before it wrote identifiers straight
// into one builder: every reference concatenated from two quoted strings and
// the table list cloned. It is the oracle Generate must agree with, byte for
// byte.

func referenceGenerate(p exec.Plan) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if p.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, c := range p.Project {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(referenceQuoteRef(c))
	}
	b.WriteString(" FROM ")
	tables := append([]string(nil), p.Tables...)
	for i, t := range tables {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(referenceQuoteIdent(t))
	}
	if len(p.Joins) > 0 {
		b.WriteString(" WHERE ")
		for i, j := range p.Joins {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(referenceQuoteRef(j.Left))
			b.WriteString(" = ")
			b.WriteString(referenceQuoteRef(j.Right))
		}
	}
	return b.String()
}

func referenceQuoteRef(r schema.ColumnRef) string {
	return referenceQuoteIdent(r.Table) + "." + referenceQuoteIdent(r.Column)
}

func referenceQuoteIdent(s string) string {
	needs := false
	for _, r := range s {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' {
			needs = true
			break
		}
	}
	if !needs {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// TestGenerateMatchesReference renders every candidate mapping of the
// generator pools of the bundled databases, and plans over identifiers that
// need quoting, as the reference does, with and without DISTINCT.
func TestGenerateMatchesReference(t *testing.T) {
	var plans []exec.Plan
	for _, db := range difftest.Databases(t) {
		g := graphx.New(db.Schema())
		for _, round := range difftest.Rounds(t, db, 2) {
			cands, err := graphx.Enumerate(g, round.Related, graphx.EnumerateOptions{RequireUsefulLeaves: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cands {
				plans = append(plans, c.Plan())
			}
		}
	}
	odd := []string{"geo lake", `say "hi"`, `"`, `""x`, "1st", "2", "Città", "日本語", "naïve_col", "a.b", "", "tab\tname"}
	for i, table := range odd {
		other := odd[(i+1)%len(odd)]
		plans = append(plans, exec.Plan{
			Tables:  []string{table, other, "Lake"},
			Joins:   []exec.JoinEdge{{Left: ref(table, other), Right: ref(other, table)}, {Left: ref("Lake", "Name"), Right: ref(table, "Lake")}},
			Project: []schema.ColumnRef{ref(table, other), ref(other, "Name"), ref("Lake", table)},
		})
	}
	for _, p := range plans {
		for _, distinct := range []bool{false, true} {
			p.Distinct = distinct
			if got, want := Generate(p), referenceGenerate(p); got != want {
				t.Fatalf("Generate = %q, reference %q", got, want)
			}
		}
	}
	if len(plans) < 100 {
		t.Fatalf("only %d plans compared", len(plans))
	}
	t.Logf("%d plans compared", len(plans))
}

// FuzzGenerate renders plans over arbitrary table and column names — non-ASCII
// letters, invalid UTF-8, quotes, blanks, empty names — and requires Generate
// to equal the reference byte for byte, and the statement assembled from
// FromWhere by GenerateFrom to equal Generate.
func FuzzGenerate(f *testing.F) {
	f.Add("Lake", "Name", "geo_lake", "Province", false)
	f.Add("geo lake", `say "hi"`, "Città", "日本語", true)
	f.Add("", `"`, "naïve_col", "1st", false)
	f.Add("a\xffb", "tab\tname", "\x80", "Ω_9", true)
	f.Fuzz(func(t *testing.T, t1, c1, t2, c2 string, distinct bool) {
		p := exec.Plan{
			Tables:   []string{t1, t2},
			Joins:    []exec.JoinEdge{{Left: ref(t1, c1), Right: ref(t2, c2)}},
			Project:  []schema.ColumnRef{ref(t2, c1), ref(t1, c2), ref(c1, t2)},
			Distinct: distinct,
		}
		got := Generate(p)
		if want := referenceGenerate(p); got != want {
			t.Fatalf("Generate = %q, reference %q", got, want)
		}
		if split := GenerateFrom(p, FromWhere(p)); split != got {
			t.Fatalf("GenerateFrom(FromWhere) = %q, Generate %q", split, got)
		}
		p.Tables, p.Joins = p.Tables[:1], nil
		if got, want := GenerateFrom(p, FromWhere(p)), referenceGenerate(p); got != want {
			t.Fatalf("single table: GenerateFrom(FromWhere) = %q, reference %q", got, want)
		}
	})
}
