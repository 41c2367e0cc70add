// Package explain builds the query-graph explanations Prism shows for each
// discovered schema mapping query (Figure 4c): orange relation nodes, green
// projected-attribute nodes, join edges, and — when the user selects them —
// blue constraint nodes attached where the constraints are satisfied.
//
// The graph can be rendered as Graphviz DOT, indented ASCII or a
// self-contained SVG, and encoded as JSON through its field tags.
package explain

import (
	"fmt"
	"sort"
	"strings"

	"prism/internal/constraint"
	"prism/internal/graphx"
)

// NodeKind classifies graph nodes.
type NodeKind string

const (
	// NodeRelation is a source table (orange square in the demo UI).
	NodeRelation NodeKind = "relation"
	// NodeAttribute is a projected attribute (green ellipse).
	NodeAttribute NodeKind = "attribute"
	// NodeConstraint is a user constraint (blue box).
	NodeConstraint NodeKind = "constraint"
)

// EdgeKind classifies graph edges.
type EdgeKind string

const (
	// EdgeJoin connects two relations joined by the query.
	EdgeJoin EdgeKind = "join"
	// EdgeProjection connects a relation to one of its projected attributes.
	EdgeProjection EdgeKind = "projection"
	// EdgeSatisfies connects a constraint to the attribute (or relation)
	// where it is satisfied.
	EdgeSatisfies EdgeKind = "satisfies"
)

// Node is one vertex of the explanation graph.
type Node struct {
	ID    string   `json:"id"`
	Kind  NodeKind `json:"kind"`
	Label string   `json:"label"`
	// TargetColumn is the 1-based target-schema column an attribute or
	// constraint node corresponds to (0 when not applicable).
	TargetColumn int `json:"targetColumn,omitempty"`
}

// Edge is one edge of the explanation graph.
type Edge struct {
	From  string   `json:"from"`
	To    string   `json:"to"`
	Kind  EdgeKind `json:"kind"`
	Label string   `json:"label,omitempty"`
}

// Graph is the explanation of one schema mapping query.
type Graph struct {
	Title string `json:"title"`
	SQL   string `json:"sql"`
	Nodes []Node `json:"nodes"`
	Edges []Edge `json:"edges"`
}

// ConstraintSelection names which user constraints to overlay on the graph.
type ConstraintSelection struct {
	// Samples selects sample rows by index (nil = all).
	Samples []int
	// IncludeMetadata overlays metadata constraints as well.
	IncludeMetadata bool
}

// AllConstraints selects every constraint for display.
func AllConstraints() ConstraintSelection { return ConstraintSelection{IncludeMetadata: true} }

// Build constructs the explanation graph for a candidate schema mapping
// query under a constraint specification. sql is the rendered query text to
// embed (may be empty).
func Build(cand graphx.Candidate, spec *constraint.Spec, sql string, sel ConstraintSelection) *Graph {
	g := &Graph{Title: cand.String(), SQL: sql}

	relID := func(table string) string { return "rel:" + strings.ToLower(table) }
	attrID := func(col int) string { return fmt.Sprintf("attr:%d", col+1) }

	// Relation nodes.
	for _, table := range cand.Tree.Tables {
		g.Nodes = append(g.Nodes, Node{ID: relID(table), Kind: NodeRelation, Label: table})
	}
	// Join edges.
	for _, fk := range cand.Tree.Edges {
		g.Edges = append(g.Edges, Edge{
			From:  relID(fk.From.Table),
			To:    relID(fk.To.Table),
			Kind:  EdgeJoin,
			Label: fk.From.String() + " = " + fk.To.String(),
		})
	}
	// Attribute nodes and projection edges.
	for col, src := range cand.Projection {
		g.Nodes = append(g.Nodes, Node{
			ID:           attrID(col),
			Kind:         NodeAttribute,
			Label:        src.String(),
			TargetColumn: col + 1,
		})
		g.Edges = append(g.Edges, Edge{From: relID(src.Table), To: attrID(col), Kind: EdgeProjection})
	}
	if spec == nil {
		return g
	}
	// Constraint nodes.
	wantSample := func(i int) bool {
		if sel.Samples == nil {
			return true
		}
		for _, s := range sel.Samples {
			if s == i {
				return true
			}
		}
		return false
	}
	for si, sample := range spec.Samples {
		if !wantSample(si) {
			continue
		}
		for col, cell := range sample.Cells {
			if cell == nil || col >= len(cand.Projection) {
				continue
			}
			id := fmt.Sprintf("cons:s%d:c%d", si+1, col+1)
			g.Nodes = append(g.Nodes, Node{
				ID:           id,
				Kind:         NodeConstraint,
				Label:        cell.String(),
				TargetColumn: col + 1,
			})
			g.Edges = append(g.Edges, Edge{From: id, To: attrID(col), Kind: EdgeSatisfies,
				Label: fmt.Sprintf("sample %d", si+1)})
		}
	}
	if sel.IncludeMetadata {
		for col, m := range spec.Metadata {
			if m == nil || col >= len(cand.Projection) {
				continue
			}
			id := fmt.Sprintf("cons:m:c%d", col+1)
			g.Nodes = append(g.Nodes, Node{
				ID:           id,
				Kind:         NodeConstraint,
				Label:        m.String(),
				TargetColumn: col + 1,
			})
			g.Edges = append(g.Edges, Edge{From: id, To: attrID(col), Kind: EdgeSatisfies, Label: "metadata"})
		}
	}
	return g
}

// NodesOfKind returns the nodes of one kind, in insertion order.
func (g *Graph) NodesOfKind(kind NodeKind) []Node {
	var out []Node
	for _, n := range g.Nodes {
		if n.Kind == kind {
			out = append(out, n)
		}
	}
	return out
}

// node looks a node up by ID.
func (g *Graph) node(id string) (Node, bool) {
	for _, n := range g.Nodes {
		if n.ID == id {
			return n, true
		}
	}
	return Node{}, false
}

// DOT renders the graph in Graphviz syntax, colouring nodes the way the
// demo UI does (orange relations, green attributes, blue constraints).
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph prism {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [fontname=\"Helvetica\"];\n")
	for _, n := range g.Nodes {
		var attrs string
		switch n.Kind {
		case NodeRelation:
			attrs = "shape=box, style=filled, fillcolor=orange"
		case NodeAttribute:
			attrs = "shape=ellipse, style=filled, fillcolor=palegreen"
		case NodeConstraint:
			attrs = "shape=note, style=filled, fillcolor=lightblue"
		}
		fmt.Fprintf(&b, "  %q [label=%q, %s];\n", n.ID, n.Label, attrs)
	}
	for _, e := range g.Edges {
		style := ""
		switch e.Kind {
		case EdgeJoin:
			style = " dir=none"
		case EdgeSatisfies:
			style = " style=dashed"
		}
		if e.Label != "" {
			fmt.Fprintf(&b, "  %q -> %q [label=%q%s];\n", e.From, e.To, e.Label, style)
		} else {
			fmt.Fprintf(&b, "  %q -> %q [%s];\n", e.From, e.To, strings.TrimSpace(style))
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// ASCII renders an indented textual explanation suitable for terminals.
func (g *Graph) ASCII() string {
	var b strings.Builder
	if g.SQL != "" {
		b.WriteString(g.SQL)
		b.WriteString("\n\n")
	}
	b.WriteString("Relations and joins:\n")
	for _, n := range g.NodesOfKind(NodeRelation) {
		fmt.Fprintf(&b, "  [%s]\n", n.Label)
		for _, e := range g.Edges {
			if e.Kind == EdgeJoin && e.From == n.ID {
				to, _ := g.node(e.To)
				fmt.Fprintf(&b, "    ⋈ %s  (%s)\n", to.Label, e.Label)
			}
		}
	}
	b.WriteString("Projected attributes:\n")
	attrs := g.NodesOfKind(NodeAttribute)
	sort.Slice(attrs, func(i, j int) bool { return attrs[i].TargetColumn < attrs[j].TargetColumn })
	for _, a := range attrs {
		fmt.Fprintf(&b, "  column %d <- %s\n", a.TargetColumn, a.Label)
		for _, e := range g.Edges {
			if e.Kind == EdgeSatisfies && e.To == a.ID {
				from, _ := g.node(e.From)
				fmt.Fprintf(&b, "      satisfies %s: %s\n", e.Label, from.Label)
			}
		}
	}
	return b.String()
}

// SVG renders a simple layered drawing: relations on the top row, projected
// attributes in the middle, constraints at the bottom.
func (g *Graph) SVG() string {
	const (
		colWidth  = 190
		rowHeight = 110
		boxW      = 170
		boxH      = 44
		margin    = 20
	)
	rows := [][]Node{
		g.NodesOfKind(NodeRelation),
		g.NodesOfKind(NodeAttribute),
		g.NodesOfKind(NodeConstraint),
	}
	width := margin * 2
	for _, row := range rows {
		if w := margin*2 + len(row)*colWidth; w > width {
			width = w
		}
	}
	height := margin*2 + rowHeight*3

	pos := make(map[string][2]int)
	for ri, row := range rows {
		for ci, n := range row {
			x := margin + ci*colWidth
			y := margin + ri*rowHeight
			pos[n.ID] = [2]int{x, y}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="Helvetica" font-size="11">`, width, height)
	b.WriteString("\n")
	// Edges first so nodes draw on top.
	for _, e := range g.Edges {
		from, ok1 := pos[e.From]
		to, ok2 := pos[e.To]
		if !ok1 || !ok2 {
			continue
		}
		x1, y1 := from[0]+boxW/2, from[1]+boxH/2
		x2, y2 := to[0]+boxW/2, to[1]+boxH/2
		dash := ""
		if e.Kind == EdgeSatisfies {
			dash = ` stroke-dasharray="4 3"`
		}
		fmt.Fprintf(&b, `  <line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#555"%s/>`, x1, y1, x2, y2, dash)
		b.WriteString("\n")
		if e.Label != "" {
			fmt.Fprintf(&b, `  <text x="%d" y="%d" fill="#555">%s</text>`, (x1+x2)/2, (y1+y2)/2-4, escapeXML(e.Label))
			b.WriteString("\n")
		}
	}
	for _, n := range g.Nodes {
		p, ok := pos[n.ID]
		if !ok {
			continue
		}
		fill := "#f5f5f5"
		rx := 4
		switch n.Kind {
		case NodeRelation:
			fill = "#ffb347" // orange
			rx = 0
		case NodeAttribute:
			fill = "#9be29b" // green
			rx = 22
		case NodeConstraint:
			fill = "#9ecbff" // blue
			rx = 4
		}
		fmt.Fprintf(&b, `  <rect x="%d" y="%d" width="%d" height="%d" rx="%d" fill="%s" stroke="#333"/>`, p[0], p[1], boxW, boxH, rx, fill)
		b.WriteString("\n")
		fmt.Fprintf(&b, `  <text x="%d" y="%d" text-anchor="middle">%s</text>`, p[0]+boxW/2, p[1]+boxH/2+4, escapeXML(truncate(n.Label, 30)))
		b.WriteString("\n")
	}
	b.WriteString("</svg>\n")
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func escapeXML(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "'", "&apos;")
	return r.Replace(s)
}
