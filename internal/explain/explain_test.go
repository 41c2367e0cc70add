package explain

import (
	"encoding/json"
	"strings"
	"testing"

	"prism/internal/constraint"
	"prism/internal/graphx"
	"prism/internal/schema"
)

func demoCandidate() graphx.Candidate {
	fk := schema.ForeignKey{
		From: schema.ColumnRef{Table: "geo_lake", Column: "Lake"},
		To:   schema.ColumnRef{Table: "Lake", Column: "Name"},
	}
	return graphx.Candidate{
		Tree: graphx.Tree{Tables: []string{"Lake", "geo_lake"}, Edges: []schema.ForeignKey{fk}},
		Projection: []schema.ColumnRef{
			{Table: "geo_lake", Column: "Province"},
			{Table: "Lake", Column: "Name"},
			{Table: "Lake", Column: "Area"},
		},
	}
}

func demoSpec(t *testing.T) *constraint.Spec {
	t.Helper()
	sp, err := constraint.ParseGrid(3,
		[][]string{{"California || Nevada", "Lake Tahoe", ""}},
		[]string{"", "", "DataType=='decimal' AND MinValue>='0'"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

const demoSQL = "SELECT geo_lake.Province, Lake.Name, Lake.Area FROM Lake, geo_lake WHERE Lake.Name = geo_lake.Lake"

func TestBuildGraphStructure(t *testing.T) {
	g := Build(demoCandidate(), demoSpec(t), demoSQL, AllConstraints())
	if g.SQL != demoSQL {
		t.Error("SQL not embedded")
	}
	rels := g.NodesOfKind(NodeRelation)
	attrs := g.NodesOfKind(NodeAttribute)
	cons := g.NodesOfKind(NodeConstraint)
	if len(rels) != 2 {
		t.Errorf("relations = %d", len(rels))
	}
	if len(attrs) != 3 {
		t.Errorf("attributes = %d", len(attrs))
	}
	// Two sample-cell constraints plus one metadata constraint.
	if len(cons) != 3 {
		t.Errorf("constraints = %d", len(cons))
	}
	joins, projections, satisfies := 0, 0, 0
	for _, e := range g.Edges {
		switch e.Kind {
		case EdgeJoin:
			joins++
		case EdgeProjection:
			projections++
		case EdgeSatisfies:
			satisfies++
		}
	}
	if joins != 1 || projections != 3 || satisfies != 3 {
		t.Errorf("edges: joins=%d proj=%d satisfies=%d", joins, projections, satisfies)
	}
	// Every edge endpoint exists.
	for _, e := range g.Edges {
		if _, ok := g.node(e.From); !ok {
			t.Errorf("dangling edge source %q", e.From)
		}
		if _, ok := g.node(e.To); !ok {
			t.Errorf("dangling edge target %q", e.To)
		}
	}
}

func TestBuildSelections(t *testing.T) {
	spec := demoSpec(t)
	cand := demoCandidate()
	// No metadata, no samples selected explicitly -> nil Samples = all.
	g := Build(cand, spec, "", ConstraintSelection{IncludeMetadata: false})
	if len(g.NodesOfKind(NodeConstraint)) != 2 {
		t.Errorf("expected only the two sample constraints, got %d", len(g.NodesOfKind(NodeConstraint)))
	}
	// Selecting no sample rows but metadata only.
	g = Build(cand, spec, "", ConstraintSelection{Samples: []int{}, IncludeMetadata: true})
	// Samples is non-nil and empty: no sample constraint selected.
	if len(g.NodesOfKind(NodeConstraint)) != 1 {
		t.Errorf("expected only the metadata constraint, got %d", len(g.NodesOfKind(NodeConstraint)))
	}
	// Out-of-range sample index selects nothing.
	g = Build(cand, spec, "", ConstraintSelection{Samples: []int{7}})
	if len(g.NodesOfKind(NodeConstraint)) != 0 {
		t.Error("no constraints should be selected")
	}
	// Nil spec: structural graph only.
	g = Build(cand, nil, "", AllConstraints())
	if len(g.NodesOfKind(NodeConstraint)) != 0 || len(g.NodesOfKind(NodeRelation)) != 2 {
		t.Error("nil spec should produce a purely structural graph")
	}
}

func TestDOTRendering(t *testing.T) {
	g := Build(demoCandidate(), demoSpec(t), demoSQL, AllConstraints())
	dot := g.DOT()
	for _, want := range []string{
		"digraph prism",
		"fillcolor=orange",
		"fillcolor=palegreen",
		"fillcolor=lightblue",
		"geo_lake.Lake = Lake.Name",
		"style=dashed",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestASCIIRendering(t *testing.T) {
	g := Build(demoCandidate(), demoSpec(t), demoSQL, AllConstraints())
	out := g.ASCII()
	for _, want := range []string{
		demoSQL,
		"Relations and joins:",
		"[Lake]",
		"Projected attributes:",
		"column 1 <- geo_lake.Province",
		"California || Nevada",
		"DataType",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ASCII missing %q:\n%s", want, out)
		}
	}
	// Without SQL the header is omitted.
	g2 := Build(demoCandidate(), nil, "", AllConstraints())
	if strings.HasPrefix(g2.ASCII(), "\n") {
		t.Error("ASCII without SQL should not start with a blank line")
	}
}

func TestJSONRendering(t *testing.T) {
	g := Build(demoCandidate(), demoSpec(t), demoSQL, AllConstraints())
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if len(back.Nodes) != len(g.Nodes) || len(back.Edges) != len(g.Edges) || back.SQL != g.SQL {
		t.Error("JSON round trip lost data")
	}
}

func TestSVGRendering(t *testing.T) {
	g := Build(demoCandidate(), demoSpec(t), demoSQL, AllConstraints())
	svg := g.SVG()
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Error("SVG should be a complete document")
	}
	for _, want := range []string{"#ffb347", "#9be29b", "#9ecbff", "stroke-dasharray"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Labels with XML-special characters are escaped.
	if strings.Contains(svg, "&&") && !strings.Contains(svg, "&amp;&amp;") {
		t.Error("SVG should escape ampersands")
	}
	if strings.Contains(svg, "<'") {
		t.Error("SVG should escape quotes and angle brackets")
	}
}

func TestEscapeAndTruncateHelpers(t *testing.T) {
	if escapeXML(`<&>"'`) != "&lt;&amp;&gt;&quot;&apos;" {
		t.Errorf("escapeXML = %q", escapeXML(`<&>"'`))
	}
	if truncate("short", 30) != "short" {
		t.Error("short strings unchanged")
	}
	long := strings.Repeat("x", 50)
	if got := truncate(long, 30); len(got) != 32 || !strings.HasSuffix(got, "…") { // 29 'x' bytes + 3-byte '…'
		t.Errorf("truncate = %q (len %d)", got, len(got))
	}
}

func BenchmarkBuildAndRender(b *testing.B) {
	spec, err := constraint.ParseGrid(3,
		[][]string{{"California || Nevada", "Lake Tahoe", ""}},
		[]string{"", "", "DataType=='decimal' AND MinValue>='0'"},
	)
	if err != nil {
		b.Fatal(err)
	}
	cand := demoCandidate()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := Build(cand, spec, demoSQL, AllConstraints())
		_ = g.DOT()
		_ = g.SVG()
	}
}
