// Package graphx models the source database schema graph (tables connected
// by foreign keys) and enumerates the join trees that candidate schema
// mapping queries are built from (§2.3 step #1: "exhaustively search
// through the source database schema graph and find all possible join
// paths, each connecting a set of related columns that altogether can be
// mapped to all columns in the target schema").
package graphx

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"prism/internal/exec"
	"prism/internal/schema"
)

// Graph is the undirected schema graph: one node per table, one edge per
// foreign key.
type Graph struct {
	sch *schema.Schema
	// adj maps lower(table) -> incident foreign keys.
	adj map[string][]schema.ForeignKey
	// cat memoises the join trees of the schema; see catalogue.
	cat catalogue
}

// New builds the schema graph for a schema. The schema must not gain tables
// or foreign keys afterwards.
func New(sch *schema.Schema) *Graph {
	g := &Graph{sch: sch, adj: make(map[string][]schema.ForeignKey)}
	g.cat.init(sch)
	for _, fk := range sch.ForeignKeys() {
		g.adj[strings.ToLower(fk.From.Table)] = append(g.adj[strings.ToLower(fk.From.Table)], fk)
		g.adj[strings.ToLower(fk.To.Table)] = append(g.adj[strings.ToLower(fk.To.Table)], fk)
	}
	return g
}

// Schema returns the underlying schema.
func (g *Graph) Schema() *schema.Schema { return g.sch }

// Edges returns the foreign keys incident to a table.
func (g *Graph) Edges(table string) []schema.ForeignKey {
	return g.adj[strings.ToLower(table)]
}

// Neighbors returns the tables adjacent to a table in the schema graph.
func (g *Graph) Neighbors(table string) []string {
	var out []string
	seen := make(map[string]struct{})
	for _, fk := range g.Edges(table) {
		other := fk.To.Table
		if strings.EqualFold(other, table) {
			other = fk.From.Table
		}
		key := strings.ToLower(other)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, other)
	}
	sort.Strings(out)
	return out
}

// Tree is a connected, acyclic set of schema-graph edges: the join skeleton
// of a candidate Project-Join query. A single-table tree has no edges.
//
// Trees produced by ConnectedTrees and Enumerate are entries of the graph's
// catalogue: their slices are shared between rounds and must be treated as
// read-only, and Canonical and Subtrees read what the catalogue computed
// once. A tree built as a literal works everywhere an enumerated one does;
// it just pays for those answers on every call.
type Tree struct {
	Tables []string
	Edges  []schema.ForeignKey

	// rep is the catalogue entry of an enumerated tree, nil for a literal.
	rep *treeRep
}

// Size returns the number of tables in the tree.
func (t Tree) Size() int { return len(t.Tables) }

// Contains reports whether the tree includes the table.
func (t Tree) Contains(table string) bool {
	for _, tb := range t.Tables {
		if strings.EqualFold(tb, table) {
			return true
		}
	}
	return false
}

// Leaves returns the tables of degree <= 1 within the tree.
func (t Tree) Leaves() []string {
	if len(t.Tables) == 1 {
		return append([]string(nil), t.Tables...)
	}
	degree := make(map[string]int)
	for _, e := range t.Edges {
		degree[strings.ToLower(e.From.Table)]++
		degree[strings.ToLower(e.To.Table)]++
	}
	var out []string
	for _, tb := range t.Tables {
		if degree[strings.ToLower(tb)] <= 1 {
			out = append(out, tb)
		}
	}
	sort.Strings(out)
	return out
}

// Canonical returns a deterministic signature of the tree (sorted edge
// list, or the table name for single-table trees), used for deduplication.
func (t Tree) Canonical() string {
	if t.rep != nil {
		return t.rep.node.sig
	}
	return t.signature()
}

// signature renders the canonical signature.
func (t Tree) signature() string {
	if len(t.Edges) == 0 {
		if len(t.Tables) == 0 {
			return ""
		}
		return strings.ToLower(t.Tables[0])
	}
	keys := make([]string, len(t.Edges))
	for i, e := range t.Edges {
		keys[i] = edgeSignature(e)
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// edgeSignature renders a foreign key independently of its direction and
// of letter case.
func edgeSignature(e schema.ForeignKey) string {
	a, b := strings.ToLower(e.From.String()), strings.ToLower(e.To.String())
	if a > b {
		a, b = b, a
	}
	return a + "=" + b
}

// String renders the tree compactly.
func (t Tree) String() string {
	if len(t.Edges) == 0 {
		return strings.Join(t.Tables, ",")
	}
	parts := make([]string, len(t.Edges))
	for i, e := range t.Edges {
		parts[i] = e.String()
	}
	return strings.Join(parts, "; ")
}

// clone deep-copies the tree.
func (t Tree) clone() Tree {
	return Tree{
		Tables: append([]string(nil), t.Tables...),
		Edges:  append([]schema.ForeignKey(nil), t.Edges...),
	}
}

// ConnectedTrees enumerates every connected subtree of the schema graph that
// contains the seed table and has at most maxTables tables. The seed-only
// tree is included. Trees are deduplicated by canonical signature. The list
// is built once per graph and (seed, maxTables); the trees returned are
// catalogue entries.
func (g *Graph) ConnectedTrees(seed string, maxTables int) []Tree {
	if maxTables < 1 {
		return nil
	}
	id := g.cat.tableID(seed)
	if id < 0 {
		// Not a table of the schema: nothing to join with and nothing worth
		// remembering.
		return []Tree{{Tables: []string{seed}}}
	}
	g.cat.mu.Lock()
	list := g.cat.connected(g, id, seed, maxTables)
	g.cat.mu.Unlock()
	out := make([]Tree, len(list))
	for i, r := range list {
		out[i] = r.tree
	}
	return out
}

// growTrees is the enumeration behind ConnectedTrees: depth-first growth
// from the seed along foreign keys, first discovery of a signature wins.
func (g *Graph) growTrees(seed string, maxTables int) []Tree {
	canonicalName := seed
	if tbl, ok := g.sch.Table(seed); ok {
		canonicalName = tbl.Name
	}
	start := Tree{Tables: []string{canonicalName}}
	seen := map[string]struct{}{start.signature(): {}}
	out := []Tree{start}
	var expand func(t Tree)
	expand = func(t Tree) {
		if t.Size() >= maxTables {
			return
		}
		for _, table := range t.Tables {
			for _, fk := range g.Edges(table) {
				other := fk.To.Table
				if strings.EqualFold(fk.To.Table, table) {
					other = fk.From.Table
				}
				if t.Contains(other) {
					continue
				}
				next := t.clone()
				next.Tables = append(next.Tables, other)
				next.Edges = append(next.Edges, fk)
				key := next.signature()
				if _, dup := seen[key]; dup {
					continue
				}
				seen[key] = struct{}{}
				out = append(out, next)
				expand(next)
			}
		}
	}
	expand(start)
	return out
}

// Candidate is one candidate schema mapping query: a join tree plus the
// assignment of one source column per target column.
type Candidate struct {
	Tree Tree
	// Projection maps target-column position -> source column.
	Projection []schema.ColumnRef

	// sig is Canonical(), set by Enumerate; empty on a literal.
	sig string
}

// Canonical returns a deterministic signature of the candidate. Enumerate
// renders it once per candidate — rounds sort and fingerprint candidate
// lists by it — so an enumerated candidate's Projection is read-only too.
func (c Candidate) Canonical() string {
	if c.sig != "" {
		return c.sig
	}
	parts := make([]string, 0, len(c.Projection)+1)
	parts = append(parts, c.Tree.Canonical())
	for _, ref := range c.Projection {
		parts = append(parts, strings.ToLower(ref.String()))
	}
	return strings.Join(parts, "#")
}

// Plan converts the candidate into an executable Project-Join plan.
func (c Candidate) Plan() exec.Plan {
	joins := make([]exec.JoinEdge, len(c.Tree.Edges))
	for i, e := range c.Tree.Edges {
		joins[i] = exec.JoinEdge{Left: e.From, Right: e.To}
	}
	return exec.Plan{
		Tables:  append([]string(nil), c.Tree.Tables...),
		Joins:   joins,
		Project: append([]schema.ColumnRef(nil), c.Projection...),
	}
}

// String renders the candidate.
func (c Candidate) String() string {
	cols := make([]string, len(c.Projection))
	for i, ref := range c.Projection {
		cols[i] = ref.String()
	}
	return fmt.Sprintf("π(%s) over [%s]", strings.Join(cols, ", "), c.Tree)
}

// EnumerateOptions tune candidate enumeration.
type EnumerateOptions struct {
	// MaxTables bounds the join-tree size (default 4).
	MaxTables int
	// MaxCandidates bounds the number of candidates returned (default 5000).
	MaxCandidates int
	// RequireUsefulLeaves drops candidates whose join tree has a leaf table
	// hosting no projected column (such a leaf only filters rows and is
	// never needed for a Project-Join mapping; default true via Enumerate).
	RequireUsefulLeaves bool
}

func (o EnumerateOptions) withDefaults() EnumerateOptions {
	if o.MaxTables <= 0 {
		o.MaxTables = 4
	}
	if o.MaxCandidates <= 0 {
		o.MaxCandidates = 5000
	}
	return o
}

// Enumerate produces candidate schema mapping queries from the per-target-
// column sets of related source columns. related[i] lists the feasible
// source columns for target column i; every target column must have at
// least one.
//
// The join trees come from the graph's catalogue, so a round pays for
// merging the seeds' lists and for the candidates it emits, not for
// rediscovering and re-canonicalising the schema's trees.
func Enumerate(g *Graph, related [][]schema.ColumnRef, opts EnumerateOptions) ([]Candidate, error) {
	opts = opts.withDefaults()
	if len(related) == 0 {
		return nil, fmt.Errorf("graphx: no target columns")
	}
	for i, cols := range related {
		if len(cols) == 0 {
			return nil, fmt.Errorf("graphx: target column %d has no related source columns", i+1)
		}
	}

	trees, choices, numTables := g.resolve(related, opts.MaxTables)

	// Deterministic order: smaller trees first (cheaper candidates are
	// preferred and validated earlier), then by signature.
	slices.SortFunc(trees, func(a, b *treeRep) int {
		if c := a.tree.Size() - b.tree.Size(); c != 0 {
			return c
		}
		return strings.Compare(a.node.sig, b.node.sig)
	})

	var (
		out []Candidate
		// inTree marks the table ids of the current tree.
		inTree = make([]bool, numTables)
		// avail[i] are the choices of column i inside the current tree,
		// pick[i] the one the current assignment uses.
		avail = make([][]choice, len(related))
		pick  = make([]int, len(related))
		sig   []byte
	)
	for i, cols := range choices {
		avail[i] = make([]choice, 0, len(cols))
	}
	for _, tree := range trees {
		if len(out) >= opts.MaxCandidates {
			break
		}
		for _, id := range tree.tableIDs() {
			inTree[id] = true
		}
		feasible := true
		for i, cols := range choices {
			avail[i] = avail[i][:0]
			for _, c := range cols {
				if inTree[c.table] {
					avail[i] = append(avail[i], c)
				}
			}
			if len(avail[i]) == 0 {
				feasible = false
				break
			}
		}
		for _, id := range tree.tableIDs() {
			inTree[id] = false
		}
		if !feasible {
			continue
		}
		// Cartesian product of per-column choices, last column fastest.
		clear(pick)
		for {
			if !opts.RequireUsefulLeaves || leavesUseful(tree, avail, pick) {
				cand := Candidate{Tree: tree.tree, Projection: make([]schema.ColumnRef, len(related))}
				sig = append(sig[:0], tree.node.sig...)
				for i, k := range pick {
					cand.Projection[i] = avail[i][k].ref
					sig = append(append(sig, '#'), avail[i][k].text...)
				}
				cand.sig = string(sig)
				out = append(out, cand)
				if len(out) >= opts.MaxCandidates {
					return out, nil
				}
			}
			col := len(pick) - 1
			for col >= 0 {
				if pick[col]++; pick[col] < len(avail[col]) {
					break
				}
				pick[col] = 0
				col--
			}
			if col < 0 {
				break
			}
		}
	}
	return out, nil
}

// choice is one related source column of a target column.
type choice struct {
	ref   schema.ColumnRef
	table int32  // table id; ids past the schema's stand for unknown tables
	text  string // lower-cased "table.column", as candidate signatures spell it
}

// resolve reads everything Enumerate needs from the catalogue in one
// critical section: the join trees reachable from the tables hosting a
// related column (every seed's list merged, a tree keeping the order it has
// in the alphabetically first seed's list) and the related columns as
// choices, duplicates within a target column dropped. numTables bounds the
// table ids used.
func (g *Graph) resolve(related [][]schema.ColumnRef, maxTables int) (trees []*treeRep, choices [][]choice, numTables int) {
	cat := &g.cat
	cat.mu.Lock()
	defer cat.mu.Unlock()

	// Seed tables: every table hosting at least one related column, under
	// the spelling of its last mention. Tables the schema does not know get
	// ids past its own.
	type seed struct {
		name string
		id   int32
	}
	var (
		known   = g.sch.NumTables()
		seeds   []seed
		seedAt  = make([]int, known) // table id -> index into seeds, +1
		unknown map[string]int32     // lower(name) -> id
	)
	choices = make([][]choice, len(related))
	for i, cols := range related {
		choices[i] = make([]choice, 0, len(cols))
		for _, ref := range cols {
			id := cat.tableID(ref.Table)
			text := cat.refText(ref, id)
			if id < 0 {
				lower := strings.ToLower(ref.Table)
				var ok bool
				if id, ok = unknown[lower]; !ok {
					if unknown == nil {
						unknown = make(map[string]int32)
					}
					id = int32(len(seedAt))
					unknown[lower] = id
					seedAt = append(seedAt, 0)
				}
			}
			if seedAt[id] == 0 {
				seeds = append(seeds, seed{id: id})
				seedAt[id] = len(seeds)
			}
			seeds[seedAt[id]-1].name = ref.Table
			if !slices.ContainsFunc(choices[i], func(c choice) bool { return c.text == text }) {
				choices[i] = append(choices[i], choice{ref: ref, table: id, text: text})
			}
		}
	}
	slices.SortFunc(seeds, func(a, b seed) int { return strings.Compare(a.name, b.name) })

	lists := make([][]*treeRep, len(seeds))
	for i, s := range seeds {
		if int(s.id) < known {
			lists[i] = cat.connected(g, s.id, s.name, maxTables)
			continue
		}
		// A table the schema does not know joins with nothing; its tree is
		// not worth remembering.
		t := Tree{Tables: []string{s.name}}
		t.rep = &treeRep{node: &treeNode{id: -1, sig: t.signature()}, tables: []int32{s.id}}
		t.rep.tree = t
		lists[i] = []*treeRep{t.rep}
	}
	seen := make([]bool, len(cat.nodes))
	trees = make([]*treeRep, 0, len(cat.nodes))
	for _, list := range lists {
		for _, r := range list {
			if id := r.node.id; id < 0 {
				trees = append(trees, r)
			} else if !seen[id] {
				seen[id] = true
				trees = append(trees, r)
			}
		}
	}
	return trees, choices, len(seedAt)
}

// leavesUseful reports whether every leaf table of the tree hosts at least
// one column of the assignment.
func leavesUseful(tree *treeRep, avail [][]choice, pick []int) bool {
	for _, leaf := range tree.leafIDs() {
		used := false
		for i, k := range pick {
			if avail[i][k].table == leaf {
				used = true
				break
			}
		}
		if !used {
			return false
		}
	}
	return true
}
