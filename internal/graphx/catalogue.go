package graphx

import (
	"slices"
	"strings"
	"sync"

	"prism/internal/schema"
)

// catalogue is a graph's memo of everything about its join trees that
// depends on the schema alone: which trees grow from a seed table, their
// canonical signatures, and how each decomposes into connected subtrees.
// A discovery round only reads it; entries are built the first time a seed
// (or a tree's subtrees) is asked for and kept for the life of the graph.
// The catalogue is bounded by the schema — every entry is a join tree of at
// most MaxTables tables — so it has no capacity and nothing is ever evicted.
// It is safe for concurrent use.
type catalogue struct {
	// tables maps a table name, both as registered and lower-cased, to its
	// dense id; fixed at New.
	tables map[string]int32

	mu sync.Mutex
	// nodes interns one treeNode per canonical signature.
	nodes map[string]*treeNode
	// seeds holds the ConnectedTrees list per (seed table id, maxTables).
	seeds map[seedKey][]*treeRep
	// refs memoises the lower-cased "table.column" text of schema columns,
	// the part a projected column contributes to a candidate signature.
	refs map[schema.ColumnRef]string
}

type seedKey struct {
	table     int32
	maxTables int
}

// treeNode is one distinct join tree of the catalogue: every ordering of the
// same tables and edges shares it.
type treeNode struct {
	// id is dense per catalogue; -1 marks a node outside any catalogue (a
	// hand-built tree, or a table the schema does not know).
	id int32
	// sig is Tree.Canonical(), rendered once.
	sig string
}

// treeRep is a join tree in one concrete table and edge order — the order
// the enumeration from a seed discovered it in, which plans, SQL text and
// filter order all follow.
type treeRep struct {
	node *treeNode
	cat  *catalogue
	// tree is the Tree handed out; tree.rep points back here.
	tree Tree
	// tables holds the table ids parallel to tree.Tables, followed by the
	// ids of the tree's leaf tables (empty for a single-table tree).
	tables []int32

	subsOnce sync.Once
	subs     []Subtree
}

func (r *treeRep) tableIDs() []int32 { return r.tables[:len(r.tree.Tables)] }
func (r *treeRep) leafIDs() []int32  { return r.tables[len(r.tree.Tables):] }

func (c *catalogue) init(sch *schema.Schema) {
	c.tables = make(map[string]int32)
	c.nodes = make(map[string]*treeNode)
	c.seeds = make(map[seedKey][]*treeRep)
	c.refs = make(map[schema.ColumnRef]string)
	for i, name := range sch.TableNames() {
		c.tables[strings.ToLower(name)] = int32(i)
		c.tables[name] = int32(i)
	}
}

// tableID resolves a table name case-insensitively; -1 means the schema has
// no such table. Names in their registered spelling — what column
// statistics and enumerated trees carry — hit without lower-casing.
func (c *catalogue) tableID(name string) int32 {
	if id, ok := c.tables[name]; ok {
		return id
	}
	if id, ok := c.tables[strings.ToLower(name)]; ok {
		return id
	}
	return -1
}

// node interns the tree with the given signature. Callers hold c.mu.
func (c *catalogue) node(sig string) *treeNode {
	n, ok := c.nodes[sig]
	if !ok {
		n = &treeNode{id: int32(len(c.nodes)), sig: sig}
		c.nodes[sig] = n
	}
	return n
}

// rep wraps a freshly built tree as a catalogue entry. Callers hold c.mu.
func (c *catalogue) rep(t Tree) *treeRep {
	r := &treeRep{node: c.node(t.signature()), cat: c}
	leaves := t.Leaves()
	if len(t.Tables) == 1 {
		leaves = nil
	}
	r.tables = make([]int32, 0, len(t.Tables)+len(leaves))
	for _, name := range t.Tables {
		r.tables = append(r.tables, c.tableID(name))
	}
	for _, name := range leaves {
		r.tables = append(r.tables, c.tableID(name))
	}
	t.rep = r
	r.tree = t
	return r
}

// connected returns the catalogue's list of the connected trees of at most
// maxTables tables that contain the seed, building it on first use. Callers
// hold c.mu.
func (c *catalogue) connected(g *Graph, seed int32, name string, maxTables int) []*treeRep {
	key := seedKey{table: seed, maxTables: maxTables}
	if list, ok := c.seeds[key]; ok {
		return list
	}
	trees := g.growTrees(name, maxTables)
	list := make([]*treeRep, len(trees))
	for i, t := range trees {
		list[i] = c.rep(t)
	}
	c.seeds[key] = list
	return list
}

// refText returns the lower-cased "table.column" text of a column
// reference, memoised for columns of known tables. Callers hold c.mu.
func (c *catalogue) refText(ref schema.ColumnRef, table int32) string {
	if text, ok := c.refs[ref]; ok {
		return text
	}
	text := strings.ToLower(ref.String())
	if table >= 0 {
		c.refs[ref] = text
	}
	return text
}

// Subtree is one connected subtree of a join tree, described by position in
// the tree whose Subtrees call produced it.
type Subtree struct {
	node *treeNode
	// order lists the positions of the subtree's tables in the parent's
	// Tables, in the order the subtree grew, followed by the positions of
	// its edges in the parent's Edges.
	order []int32
}

// Canonical returns the signature of the subtree as a tree of its own:
// Tree.Canonical of the materialised subtree.
func (s Subtree) Canonical() string { return s.node.sig }

// Size returns the number of tables in the subtree.
func (s Subtree) Size() int { return (len(s.order) + 1) / 2 }

// Tables returns the positions of the subtree's tables in the parent's
// Tables. The slice is shared and must not be modified.
func (s Subtree) Tables() []int32 { return s.order[:s.Size()] }

// Subtrees lists every connected subtree of the tree, single tables and the
// tree itself included, in a deterministic order: grown from each table in
// Tables order along the tree's own edges in Edges order, first discovery
// wins. Filters are numbered in this order. For an enumerated tree the list
// is computed once per graph and shared between callers, who must not
// modify it; for a hand-built tree it is computed on every call. Edges with
// an endpoint outside Tables are ignored.
func (t Tree) Subtrees() []Subtree {
	r := t.rep
	if r == nil || r.cat == nil {
		return enumerateSubtrees(t, func(sig string) *treeNode { return &treeNode{id: -1, sig: sig} })
	}
	r.subsOnce.Do(func() {
		r.cat.mu.Lock()
		defer r.cat.mu.Unlock()
		r.subs = enumerateSubtrees(r.tree, r.cat.node)
	})
	return r.subs
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

// enumerateSubtrees grows the connected subtrees of t by position. node
// supplies the treeNode of a signature.
func enumerateSubtrees(t Tree, node func(sig string) *treeNode) []Subtree {
	lower := make([]string, len(t.Tables))
	for p, name := range t.Tables {
		lower[p] = strings.ToLower(name)
	}
	position := func(table string) int32 {
		for p, name := range t.Tables {
			if strings.EqualFold(name, table) {
				return int32(p)
			}
		}
		return -1
	}
	// ends[e] holds the positions of edge e's endpoints, keys[e] its
	// canonical text.
	ends := make([][2]int32, len(t.Edges))
	keys := make([]string, len(t.Edges))
	for e, fk := range t.Edges {
		ends[e] = [2]int32{position(fk.From.Table), position(fk.To.Table)}
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
		out = append(out, Subtree{node: node(sig), order: order})
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
