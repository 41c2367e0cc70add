package graphx

import (
	"slices"
	"strings"

	"prism/internal/schema"
)

// Subtree is one connected subtree of a join tree, described by position in
// the tree whose Subtrees call produced it.
type Subtree struct {
	// sig is the signature of the subtree as a tree of its own.
	sig string
	// order lists the positions of the subtree's tables in the parent's
	// Tables, in the order the subtree grew, followed by the positions of
	// its edges in the parent's Edges.
	order []int32
}

// Canonical returns the signature of the subtree as a tree of its own:
// Tree.Canonical of the materialised subtree.
func (s Subtree) Canonical() string { return s.sig }

// Size returns the number of tables in the subtree.
func (s Subtree) Size() int { return (len(s.order) + 1) / 2 }

// Tables returns the positions of the subtree's tables in the parent's
// Tables. The slice must not be modified.
func (s Subtree) Tables() []int32 { return s.order[:s.Size()] }

// Subtrees lists every connected subtree of the tree, single tables and the
// tree itself included, in a deterministic order: grown from each table in
// Tables order along the tree's own edges in Edges order, first discovery
// wins. Filters are numbered in this order. Subtrees are described by
// position, so a caller decomposing many candidates over one tree pays for
// the tree once and for integers per candidate. Edges with an endpoint
// outside Tables are ignored.
func (t Tree) Subtrees() []Subtree {
	lower := make([]string, len(t.Tables))
	for p, name := range t.Tables {
		lower[p] = strings.ToLower(name)
	}
	// ends[e] holds the positions of edge e's endpoints, keys[e] its
	// canonical text.
	ends := make([][2]int32, len(t.Edges))
	keys := make([]string, len(t.Edges))
	for e, fk := range t.Edges {
		ends[e] = [2]int32{tablePosition(t.Tables, fk.From.Table), tablePosition(t.Tables, fk.To.Table)}
		keys[e] = edgeSignature(fk)
	}

	var (
		out    []Subtree
		seen   = make(map[string]struct{})
		tables []int32
		edges  []int32
		in     = make([]bool, len(t.Tables))
	)
	signature := func() string {
		if len(edges) == 0 {
			return lower[tables[0]]
		}
		parts := make([]string, len(edges))
		for i, e := range edges {
			parts[i] = keys[e]
		}
		slices.Sort(parts)
		return strings.Join(parts, ";")
	}
	// record adds the subtree on the stacks unless its signature was seen.
	record := func() bool {
		sig := signature()
		if _, dup := seen[sig]; dup {
			return false
		}
		seen[sig] = struct{}{}
		order := make([]int32, 0, len(tables)+len(edges))
		order = append(append(order, tables...), edges...)
		out = append(out, Subtree{sig: sig, order: order})
		return true
	}
	var expand func()
	expand = func() {
		// The subtree at this level is tables[:n]; deeper levels push and
		// pop beyond n.
		n := len(tables)
		for _, p := range tables[:n] {
			for e := range t.Edges {
				var other int32
				switch p {
				case ends[e][0]:
					other = ends[e][1]
				case ends[e][1]:
					other = ends[e][0]
				default:
					continue
				}
				if other < 0 || in[other] {
					continue
				}
				tables, edges, in[other] = append(tables, other), append(edges, int32(e)), true
				if record() {
					expand()
				}
				tables, edges, in[other] = tables[:n], edges[:len(edges)-1], false
			}
		}
	}
	for p := range t.Tables {
		tables, in[p] = append(tables[:0], int32(p)), true
		record()
		expand()
		in[p] = false
	}
	return out
}

// Subtree materialises one of the tree's Subtrees as a tree of its own,
// tables and edges in the order the subtree grew.
func (t Tree) Subtree(s Subtree) Tree {
	n := s.Size()
	sub := Tree{Tables: make([]string, n)}
	for i, p := range s.order[:n] {
		sub.Tables[i] = t.Tables[p]
	}
	if n > 1 {
		sub.Edges = make([]schema.ForeignKey, n-1)
		for i, p := range s.order[n:] {
			sub.Edges[i] = t.Edges[p]
		}
	}
	return sub
}
