package graphx

import (
	"prism/internal/schema"
)

// Subtree is one connected subtree of a join tree, described by position in
// the tree whose Subtrees call produced it.
type Subtree struct {
	// order lists the positions of the subtree's tables in the parent's
	// Tables, in the order the subtree grew, followed by the positions of
	// its edges in the parent's Edges.
	order []int32
}

// Size returns the number of tables in the subtree.
func (s Subtree) Size() int { return (len(s.order) + 1) / 2 }

// Tables returns the positions of the subtree's tables in the parent's
// Tables. The slice must not be modified.
func (s Subtree) Tables() []int32 { return s.order[:s.Size()] }

// Edges returns the positions of the subtree's edges in the parent's Edges.
// The slice must not be modified.
func (s Subtree) Edges() []int32 { return s.order[s.Size():] }

// Subtrees lists every connected subtree of the tree, single tables and the
// tree itself included, in a deterministic order: grown from each table in
// Tables order along the tree's own edges in Edges order, first discovery
// wins. Filters are numbered in this order. Subtrees are described by
// position, and told apart by the positions of their tables and edges, so
// a caller decomposing many candidates over one tree pays for the tree once
// and for integers per candidate, and no signature is rendered. Edges with
// an endpoint outside Tables are ignored.
func (t Tree) Subtrees() []Subtree {
	// Capacity hints: a tree of n <= 5 tables has at most n*n subtrees (a
	// star of five has 20), and for n <= 4 their orders fill at most
	// n*n*(n+1)/2 positions (a star of four fills 35).
	n := len(t.Tables)
	g := grower{
		t:      t,
		ends:   make([][2]int32, len(t.Edges)),
		in:     make([]bool, n),
		tables: make([]int32, 0, n),
		edges:  make([]int32, 0, len(t.Edges)),
		mask:   make([]byte, (n+len(t.Edges)+7)/8),
		seen:   make(map[string]struct{}),
		flat:   make([]int32, 0, n*n*(n+1)/2),
		bounds: make([]int, 0, n*n),
	}
	for e, fk := range t.Edges {
		g.ends[e] = [2]int32{tablePosition(t.Tables, fk.From.Table), tablePosition(t.Tables, fk.To.Table)}
	}
	for p := range t.Tables {
		g.tables, g.in[p] = append(g.tables[:0], int32(p)), true
		g.record()
		g.expand()
		g.in[p] = false
	}
	out := make([]Subtree, len(g.bounds))
	from := 0
	for k, to := range g.bounds {
		out[k] = Subtree{order: g.flat[from:to:to]}
		from = to
	}
	return out
}

// grower is the state of one Subtrees call.
type grower struct {
	t Tree
	// ends[e] holds the positions of edge e's endpoints; in marks the
	// tables of the subtree on the stacks tables and edges.
	ends   [][2]int32
	in     []bool
	tables []int32
	edges  []int32
	// mask has one bit per table position, then one per edge position; a
	// key of one byte, a tree of up to four tables, is not allocated.
	mask []byte
	seen map[string]struct{}
	// flat holds the order of every subtree recorded, one after the other;
	// bounds[k] is where the k-th ends.
	flat   []int32
	bounds []int
}

// record adds the subtree on the stacks unless its positions were seen.
func (g *grower) record() bool {
	clear(g.mask)
	for _, p := range g.tables {
		g.mask[p/8] |= 1 << (p % 8)
	}
	for _, e := range g.edges {
		bit := len(g.t.Tables) + int(e)
		g.mask[bit/8] |= 1 << (bit % 8)
	}
	if _, dup := g.seen[string(g.mask)]; dup {
		return false
	}
	g.seen[string(g.mask)] = struct{}{}
	g.flat = append(append(g.flat, g.tables...), g.edges...)
	g.bounds = append(g.bounds, len(g.flat))
	return true
}

// expand records every subtree that grows from the one on the stacks by
// one edge, and recursively what grows from each new one.
func (g *grower) expand() {
	// The subtree at this level is tables[:n]; deeper levels push and pop
	// beyond n.
	n := len(g.tables)
	for _, p := range g.tables[:n] {
		for e, ends := range g.ends {
			var other int32
			switch p {
			case ends[0]:
				other = ends[1]
			case ends[1]:
				other = ends[0]
			default:
				continue
			}
			if other < 0 || g.in[other] {
				continue
			}
			g.tables, g.edges, g.in[other] = append(g.tables, other), append(g.edges, int32(e)), true
			if g.record() {
				g.expand()
			}
			g.tables, g.edges, g.in[other] = g.tables[:n], g.edges[:len(g.edges)-1], false
		}
	}
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
