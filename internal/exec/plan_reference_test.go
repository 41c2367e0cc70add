package exec

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	"prism/internal/schema"
)

// referenceCanonical is Plan.Canonical as it was when it lower-cased, sorted
// and joined strings; the single-buffer form must render the same text, and
// Fingerprint the same token, since session caches key on both.
func referenceCanonical(p Plan) string {
	tables := make([]string, len(p.Tables))
	for i, t := range p.Tables {
		tables[i] = strings.ToLower(t)
	}
	sort.Strings(tables)
	joins := make([]string, len(p.Joins))
	for i, j := range p.Joins {
		l, r := strings.ToLower(j.Left.String()), strings.ToLower(j.Right.String())
		if l > r {
			l, r = r, l
		}
		joins[i] = l + "=" + r
	}
	sort.Strings(joins)
	project := make([]string, len(p.Project))
	for i, c := range p.Project {
		project[i] = strings.ToLower(c.String())
	}
	s := "t:" + strings.Join(tables, ",") + "|j:" + strings.Join(joins, ",") + "|p:" + strings.Join(project, ",")
	if p.Distinct {
		s += "|distinct"
	}
	return s
}

func referenceFingerprint(p Plan) string {
	h := fnv.New64a()
	h.Write([]byte(referenceCanonical(p)))
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestCanonicalMatchesReference(t *testing.T) {
	ref := func(t, c string) schema.ColumnRef { return schema.ColumnRef{Table: t, Column: c} }
	// Names that exercise the lower-casing: mixed case, non-ASCII letters
	// with and without case, bytes that are not UTF-8, and more parts than
	// the stack buffers hold.
	names := []string{"Lake", "geo_lake", "PROVINCE", "Île", "ÉTÉ_Ünï", "日本", "bad\xffbyte", "trunc\xe2", "", "Z", "a"}
	var plans []Plan
	for i := range names {
		for n := 0; n <= 3; n++ {
			var p Plan
			for k := 0; k <= n; k++ {
				a, b := names[(i+k)%len(names)], names[(i+2*k+1)%len(names)]
				p.Tables = append(p.Tables, a)
				p.Project = append(p.Project, ref(b, a))
				if k > 0 {
					p.Joins = append(p.Joins, JoinEdge{Left: ref(a, b), Right: ref(b, names[(i+k+3)%len(names)])})
				}
			}
			plans = append(plans, p)
			p.Distinct = true
			plans = append(plans, p)
		}
	}
	wide := Plan{}
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("Table_%02d_with_a_long_name", 39-i)
		wide.Tables = append(wide.Tables, name)
		wide.Project = append(wide.Project, ref(name, "Column"))
		if i > 0 {
			wide.Joins = append(wide.Joins, JoinEdge{Left: ref(name, "Key"), Right: ref(wide.Tables[i-1], "Key")})
		}
	}
	plans = append(plans, wide, Plan{})
	for _, p := range plans {
		if got, want := p.Canonical(), referenceCanonical(p); got != want {
			t.Errorf("Canonical = %q, reference %q", got, want)
		}
		if got, want := p.Fingerprint(), referenceFingerprint(p); got != want {
			t.Errorf("Fingerprint of %s = %s, reference %s", p, got, want)
		}
	}
}

var sinkFingerprint string

func BenchmarkPlanFingerprint(b *testing.B) {
	ref := func(t, c string) schema.ColumnRef { return schema.ColumnRef{Table: t, Column: c} }
	p := Plan{
		Tables:  []string{"Lake", "geo_lake", "Province"},
		Joins:   []JoinEdge{{Left: ref("geo_lake", "Lake"), Right: ref("Lake", "Name")}, {Left: ref("geo_lake", "Province"), Right: ref("Province", "Name")}},
		Project: []schema.ColumnRef{ref("geo_lake", "Province"), ref("Lake", "Name"), ref("Lake", "Area")},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkFingerprint = p.Fingerprint()
	}
}
